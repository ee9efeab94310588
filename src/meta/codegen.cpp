#include "meta/codegen.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "hdl/emit.hpp"
#include "hdl/parse.hpp"

namespace hwpat::meta {

namespace {

using hdl::Architecture;
using hdl::Assign;
using hdl::DesignUnit;
using hdl::Entity;
using hdl::Expr;
using hdl::IfArm;
using hdl::IfStmt;
using hdl::CaseArm;
using hdl::CaseStmt;
using hdl::Port;
using hdl::PortDir;
using hdl::Process;
using hdl::SignalDecl;
using hdl::Stmt;
using hdl::Type;
using hdl::TypeDecl;

using hdl::add;
using hdl::and_;
using hdl::assign;
using hdl::attr_len;
using hdl::bitl;
using hdl::bitsl;
using hdl::concat;
using hdl::eq;
using hdl::idx;
using hdl::ne;
using hdl::not_;
using hdl::num;
using hdl::or_;
using hdl::others0;
using hdl::resize_;
using hdl::shr;
using hdl::sig;
using hdl::slice;
using hdl::slv;
using hdl::sub;
using hdl::to_int;
using hdl::uns;
using hdl::when_else;
using hdl::xor_;

constexpr const char* kMethods = "methods";
constexpr const char* kParams = "params";
constexpr const char* kImpl = "implementation interface";

/// A spec's effective method set.  generate_container() resolves it
/// once per unit; the predicates below consult it dozens of times.
using Methods = std::vector<Method>;

bool has_method(const Methods& ms, Method m) {
  return std::find(ms.begin(), ms.end(), m) != ms.end();
}

/// True when the generated component must be able to read elements out
/// of the device (pop/read/lookup paths).
bool reads_device(const Methods& ms) {
  return has_method(ms, Method::Pop) || has_method(ms, Method::Read) ||
         has_method(ms, Method::Lookup);
}

/// True when it must write elements into the device.
bool writes_device(const Methods& ms) {
  return has_method(ms, Method::Push) || has_method(ms, Method::Write) ||
         has_method(ms, Method::Insert) || has_method(ms, Method::Remove);
}

/// The m_* strobe that triggers a device write for this container kind
/// — the old string templates hardcoded m_push, which left dangling
/// references in vector/assoc architectures; validate_unit rejects
/// those now.
std::optional<std::string> write_strobe(const Methods& ms) {
  if (has_method(ms, Method::Push)) return "m_push";
  if (has_method(ms, Method::Write)) return "m_write";
  if (has_method(ms, Method::Insert)) return "m_insert";
  if (has_method(ms, Method::Remove)) return "m_remove";
  return std::nullopt;
}

/// The m_* strobe that triggers a device read.
std::optional<std::string> read_strobe(const Methods& ms) {
  if (has_method(ms, Method::Pop)) return "m_pop";
  if (has_method(ms, Method::Read)) return "m_read";
  if (has_method(ms, Method::Lookup)) return "m_lookup";
  return std::nullopt;
}

bool has_addr_port(const Methods& ms) {
  return has_method(ms, Method::Read) || has_method(ms, Method::Write);
}

bool has_key_port(const Methods& ms) {
  return has_method(ms, Method::Insert) || has_method(ms, Method::Lookup) ||
         has_method(ms, Method::Remove);
}

bool has_data_in_port(const Methods& ms) {
  return has_method(ms, Method::Push) || has_method(ms, Method::Insert) ||
         has_method(ms, Method::Write);
}

/// Element width of the container's `data` result port.  The line
/// buffer delivers whole 3-pixel columns, so its data port carries the
/// full column (matching the iterator's m_data width for that device).
int data_port_bits(const ContainerSpec& s) {
  return s.device == DeviceKind::LineBuffer3 ? 3 * s.elem_bits
                                             : s.elem_bits;
}

/// Bridges a device-bus-wide value onto the element-wide data port
/// (zero-extended when the bus is narrower — lane assembly is the
/// iterator's job, §3.3).
Expr widen_to_data(const ContainerSpec& s, Expr bus_value) {
  if (s.effective_bus_bits() == data_port_bits(s)) return bus_value;
  return slv(resize_(uns(std::move(bus_value)), attr_len(sig("data"))));
}

/// Bridges the element-wide data_in operand onto the device bus.
Expr narrow_to_bus(const ContainerSpec& s) {
  const int bus = s.effective_bus_bits();
  if (bus == s.elem_bits) return sig("data_in");
  return slice(sig("data_in"), bus - 1, 0);
}

void add_clock_ports(Entity& e, const ContainerSpec* s = nullptr) {
  if (s && s->device == DeviceKind::AsyncFifoCore) {
    // The dual-clock core owns both domains: each port group below
    // lives entirely on one side of the CDC boundary.
    e.ports.push_back({"wr_clk", PortDir::In, Type::bit(), ""});
    e.ports.push_back({"wr_rst", PortDir::In, Type::bit(), ""});
    e.ports.push_back({"rd_clk", PortDir::In, Type::bit(), ""});
    e.ports.push_back({"rd_rst", PortDir::In, Type::bit(), ""});
    return;
  }
  e.ports.push_back({"clk", PortDir::In, Type::bit(), ""});
  e.ports.push_back({"rst", PortDir::In, Type::bit(), ""});
}

/// The m_* method strobes and the data/done param ports (Fig. 4 layout).
void add_method_ports(Entity& e, const ContainerSpec& s,
                      const Methods& ms) {
  for (Method m : ms)
    e.ports.push_back(
        {"m_" + to_string(m), PortDir::In, Type::bit(), kMethods});
  // params: operand inputs first, then results.
  if (has_data_in_port(ms))
    e.ports.push_back(
        {"data_in", PortDir::In, Type::vec(s.elem_bits), kParams});
  if (has_addr_port(ms))
    e.ports.push_back(
        {"addr", PortDir::In, Type::vec(s.addr_bits), kParams});
  if (has_key_port(ms))
    e.ports.push_back({"key", PortDir::In, Type::vec(8), kParams});
  if (reads_device(ms) || has_method(ms, Method::Size))
    e.ports.push_back(
        {"data", PortDir::Out, Type::vec(data_port_bits(s)), kParams});
  e.ports.push_back({"done", PortDir::Out, Type::bit(), kParams});
}

/// The p_* implementation interface per device (§3.4, Figs. 4/5).
void add_impl_ports(Entity& e, const ContainerSpec& s,
                    const Methods& ms) {
  const int bus = s.effective_bus_bits();
  switch (s.device) {
    case DeviceKind::FifoCore:
    case DeviceKind::LifoCore:
      if (reads_device(ms)) {
        e.ports.push_back({"p_empty", PortDir::In, Type::bit(), kImpl});
        e.ports.push_back({"p_read", PortDir::Out, Type::bit(), kImpl});
        e.ports.push_back({"p_data", PortDir::In, Type::vec(bus), kImpl});
      }
      if (writes_device(ms)) {
        e.ports.push_back({"p_full", PortDir::In, Type::bit(), kImpl});
        e.ports.push_back({"p_write", PortDir::Out, Type::bit(), kImpl});
        e.ports.push_back(
            {"p_wdata", PortDir::Out, Type::vec(bus), kImpl});
      }
      break;
    case DeviceKind::AsyncFifoCore:
      // The CDC machinery lives *inside* this unit, so there is no
      // body-less p_* renaming here: the write domain gets the user's
      // push side or a platform feed, the read domain the pop side or
      // a platform drain, and status flags are exported per domain.
      if (reads_device(ms)) {
        e.ports.push_back({"empty", PortDir::Out, Type::bit(), kImpl});
        if (!writes_device(ms)) {
          // Platform-side feed (write domain) for the read buffer.
          e.ports.push_back({"p_write", PortDir::In, Type::bit(), kImpl});
          e.ports.push_back(
              {"p_wdata", PortDir::In, Type::vec(bus), kImpl});
          e.ports.push_back({"p_full", PortDir::Out, Type::bit(), kImpl});
        }
      }
      if (writes_device(ms)) {
        e.ports.push_back({"full", PortDir::Out, Type::bit(), kImpl});
        if (!reads_device(ms)) {
          // Platform-side drain (read domain) for the write buffer.
          e.ports.push_back({"p_read", PortDir::In, Type::bit(), kImpl});
          e.ports.push_back(
              {"p_data", PortDir::Out, Type::vec(bus), kImpl});
          e.ports.push_back(
              {"p_empty", PortDir::Out, Type::bit(), kImpl});
        }
      }
      break;
    case DeviceKind::Sram:
      e.ports.push_back(
          {"p_addr", PortDir::Out, Type::vec(s.addr_bits), kImpl});
      if (reads_device(ms))
        e.ports.push_back({"p_data", PortDir::In, Type::vec(bus), kImpl});
      if (writes_device(ms)) {
        e.ports.push_back(
            {"p_wdata", PortDir::Out, Type::vec(bus), kImpl});
        e.ports.push_back({"p_we", PortDir::Out, Type::bit(), kImpl});
      }
      e.ports.push_back({"req", PortDir::Out, Type::bit(), kImpl});
      e.ports.push_back({"ack", PortDir::In, Type::bit(), kImpl});
      break;
    case DeviceKind::BlockRam:
      e.ports.push_back({"p_en", PortDir::Out, Type::bit(), kImpl});
      e.ports.push_back(
          {"p_addr", PortDir::Out, Type::vec(s.addr_bits), kImpl});
      if (writes_device(ms)) {
        e.ports.push_back({"p_we", PortDir::Out, Type::bit(), kImpl});
        e.ports.push_back(
            {"p_wdata", PortDir::Out, Type::vec(bus), kImpl});
      }
      if (reads_device(ms))
        e.ports.push_back({"p_data", PortDir::In, Type::vec(bus), kImpl});
      break;
    case DeviceKind::LineBuffer3:
      e.ports.push_back(
          {"p_col", PortDir::In, Type::vec(3 * s.elem_bits), kImpl});
      e.ports.push_back({"p_col_valid", PortDir::In, Type::bit(), kImpl});
      e.ports.push_back({"p_read", PortDir::Out, Type::bit(), kImpl});
      break;
  }
}

/// Architecture of the FIFO/LIFO-backed container: "simply a wrapper of
/// the FIFO core, and hardly includes any logic" (Fig. 4 discussion).
void fill_core_arch(Architecture& a, const ContainerSpec& s,
                    const Methods& ms) {
  if (reads_device(ms)) {
    a.body.push_back(Assign{sig("p_read"), sig("m_pop")});
    a.body.push_back(Assign{sig("data"), widen_to_data(s, sig("p_data"))});
    a.body.push_back(Assign{sig("done"), not_(sig("p_empty"))});
  } else {
    a.body.push_back(Assign{sig("done"), not_(sig("p_full"))});
  }
  if (writes_device(ms)) {
    a.body.push_back(Assign{sig("p_write"), sig("m_push")});
    a.body.push_back(Assign{sig("p_wdata"), narrow_to_bus(s)});
  }
  if (has_method(ms, Method::Size)) {
    // The core exposes no level port; the wrapper keeps a counter.
    const int cb = bits_for(static_cast<Word>(s.depth));
    a.signals.push_back({"count", Type::vec(cb), "", "(others => '0')"});
    Process p;
    p.label = "size_counter";
    p.clocked = true;
    p.reset_body = {assign(sig("count"), others0())};
    const bool up = writes_device(ms);
    const bool down = reads_device(ms);
    const Stmt inc =
        assign(sig("count"), slv(add(uns(sig("count")), num(1))));
    const Stmt dec =
        assign(sig("count"), slv(sub(uns(sig("count")), num(1))));
    if (up && down) {
      p.body = {IfStmt{
          {IfArm{and_(eq(sig("m_push"), bitl('1')),
                      eq(sig("m_pop"), bitl('0'))),
                 {inc}},
           IfArm{and_(eq(sig("m_push"), bitl('0')),
                      eq(sig("m_pop"), bitl('1'))),
                 {dec}}},
          {}}};
    } else if (down) {
      // A pure read buffer: filled by the platform side (p_write of
      // the device feed); the wrapper tracks its own consumption.
      p.body = {IfStmt{{IfArm{eq(sig("m_pop"), bitl('1')), {dec}}}, {}}};
    } else {
      p.body = {IfStmt{{IfArm{eq(sig("m_push"), bitl('1')), {inc}}}, {}}};
    }
    a.body.push_back(std::move(p));
  }
}

/// Architecture of the dual-clock FIFO-backed container: the actual
/// synthesizable CDC core, mirroring the cycle-level C++ model in
/// devices/async_fifo.cpp.  Binary+gray pointer pairs per domain, the
/// opposite domain's gray pointer brought over through a 2-flop
/// synchronizer chain, full/empty from gray compares (the full compare
/// inverts the top two bits — the "1100...0" mask), and show-ahead read
/// data straight out of the storage array.
void fill_async_fifo_arch(Architecture& a, const ContainerSpec& s,
                          const Methods& ms) {
  const int bus = s.effective_bus_bits();
  const int abits = std::max(1, clog2(static_cast<Word>(s.depth)));
  const int pb = abits + 1;  // pointer bits: one wrap bit on top
  const bool user_writes = writes_device(ms);
  const bool user_reads = reads_device(ms);

  a.types.push_back({"mem_t", bus, s.depth});
  a.signals.push_back({"mem", Type::bit(), "mem_t", ""});
  for (const char* n : {"wbin", "wgray", "rbin", "rgray", "rgray_w1",
                        "rgray_w2", "wgray_r1", "wgray_r2"})
    a.signals.push_back({n, Type::vec(pb), "", "(others => '0')"});
  for (const char* n :
       {"wbin_next", "wgray_next", "rbin_next", "rgray_next"})
    a.signals.push_back({n, Type::vec(pb), "", ""});
  a.signals.push_back({"wr_en", Type::bit(), "", ""});
  a.signals.push_back({"rd_en", Type::bit(), "", ""});
  a.signals.push_back({"full_i", Type::bit(), "", ""});
  a.signals.push_back({"empty_i", Type::bit(), "", ""});

  // Next pointer values and their gray encodings: g = b xor (b >> 1).
  auto gray_of = [](const char* bin_next) {
    return slv(xor_(shr(uns(sig(bin_next)), 1), uns(sig(bin_next))));
  };
  a.body.push_back(
      Assign{sig("wbin_next"), slv(add(uns(sig("wbin")), num(1)))});
  a.body.push_back(Assign{sig("wgray_next"), gray_of("wbin_next")});
  a.body.push_back(
      Assign{sig("rbin_next"), slv(add(uns(sig("rbin")), num(1)))});
  a.body.push_back(Assign{sig("rgray_next"), gray_of("rbin_next")});

  // Enables, gated by the domain-local status flag.
  a.body.push_back(
      Assign{sig("wr_en"),
             and_(sig(user_writes ? "m_push" : "p_write"),
                  not_(sig("full_i")))});
  a.body.push_back(Assign{
      sig("rd_en"),
      and_(sig(user_reads ? "m_pop" : "p_read"), not_(sig("empty_i")))});

  // full: write gray equals the synchronized read gray with the top
  // two bits inverted; empty: read gray equals the synchronized write
  // gray.  Both flags are pessimistic under synchronization delay —
  // the safe direction on each side.
  const std::string top2_mask = "11" + std::string(pb - 2, '0');
  a.body.push_back(
      Assign{sig("full_i"),
             when_else(eq(sig("wgray"),
                          xor_(sig("rgray_w2"), bitsl(top2_mask))),
                       bitl('1'), bitl('0'))});
  a.body.push_back(
      Assign{sig("empty_i"),
             when_else(eq(sig("rgray"), sig("wgray_r2")), bitl('1'),
                       bitl('0'))});

  // Show-ahead read data straight out of the array.
  const Expr rd_elem =
      idx(sig("mem"), to_int(uns(slice(sig("rbin"), abits - 1, 0))));
  if (user_reads) {
    a.body.push_back(Assign{sig("data"), widen_to_data(s, rd_elem)});
    a.body.push_back(Assign{sig("done"), not_(sig("empty_i"))});
    a.body.push_back(Assign{sig("empty"), sig("empty_i")});
    if (!user_writes)
      a.body.push_back(Assign{sig("p_full"), sig("full_i")});
  }
  if (user_writes) {
    a.body.push_back(Assign{sig("full"), sig("full_i")});
    if (!user_reads) {
      a.body.push_back(Assign{sig("done"), not_(sig("full_i"))});
      a.body.push_back(Assign{sig("p_data"), rd_elem});
      a.body.push_back(Assign{sig("p_empty"), sig("empty_i")});
    }
  }

  // Write domain: pointer advance + storage write.
  Process wp;
  wp.label = "wr_ptr";
  wp.clocked = true;
  wp.clock = "wr_clk";
  wp.reset = "wr_rst";
  wp.reset_body = {assign(sig("wbin"), others0()),
                   assign(sig("wgray"), others0())};
  wp.body = {IfStmt{
      {IfArm{eq(sig("wr_en"), bitl('1')),
             {assign(idx(sig("mem"),
                         to_int(uns(slice(sig("wbin"), abits - 1, 0)))),
                     user_writes ? narrow_to_bus(s) : sig("p_wdata")),
              assign(sig("wbin"), sig("wbin_next")),
              assign(sig("wgray"), sig("wgray_next"))}}},
      {}}};
  a.body.push_back(std::move(wp));

  // Read-pointer gray brought into the write domain (2-flop chain).
  Process rs;
  rs.label = "sync_rptr";
  rs.clocked = true;
  rs.clock = "wr_clk";
  rs.reset = "wr_rst";
  rs.reset_body = {assign(sig("rgray_w1"), others0()),
                   assign(sig("rgray_w2"), others0())};
  rs.body = {assign(sig("rgray_w1"), sig("rgray")),
             assign(sig("rgray_w2"), sig("rgray_w1"))};
  a.body.push_back(std::move(rs));

  // Read domain: pointer advance.
  Process rp;
  rp.label = "rd_ptr";
  rp.clocked = true;
  rp.clock = "rd_clk";
  rp.reset = "rd_rst";
  rp.reset_body = {assign(sig("rbin"), others0()),
                   assign(sig("rgray"), others0())};
  rp.body = {IfStmt{{IfArm{eq(sig("rd_en"), bitl('1')),
                           {assign(sig("rbin"), sig("rbin_next")),
                            assign(sig("rgray"), sig("rgray_next"))}}},
                    {}}};
  a.body.push_back(std::move(rp));

  // Write-pointer gray brought into the read domain (2-flop chain).
  Process ws;
  ws.label = "sync_wptr";
  ws.clocked = true;
  ws.clock = "rd_clk";
  ws.reset = "rd_rst";
  ws.reset_body = {assign(sig("wgray_r1"), others0()),
                   assign(sig("wgray_r2"), others0())};
  ws.body = {assign(sig("wgray_r1"), sig("wgray")),
             assign(sig("wgray_r2"), sig("wgray_r1"))};
  a.body.push_back(std::move(ws));
}

/// The p_addr expression for one access, resized onto the address bus
/// and offset by the region base.
Expr addr_expr(const ContainerSpec& s, const char* source) {
  return slv(add(resize_(uns(sig(source)), attr_len(sig("p_addr"))),
                 num(static_cast<long long>(s.base_addr))));
}

/// Architecture of the SRAM-backed container: "a little finite state
/// machine that controls memory access, as well as a few registers to
/// store the begin and end pointers of the queue (implemented as a
/// circular buffer)" (Fig. 5 discussion).
void fill_sram_arch(Architecture& a, const ContainerSpec& s,
                    const Methods& ms) {
  const int pb = std::max(1, clog2(static_cast<Word>(s.depth)));
  const int cb = bits_for(static_cast<Word>(s.depth));
  a.signals.push_back({"state", Type::vec(2), "", "\"00\""});
  a.signals.push_back({"ptr_begin", Type::vec(pb), "", "(others => '0')"});
  a.signals.push_back({"ptr_end", Type::vec(pb), "", "(others => '0')"});
  a.signals.push_back({"count", Type::vec(cb), "", "(others => '0')"});
  a.signals.push_back({"front_reg", Type::vec(s.effective_bus_bits()), "",
                       "(others => '0')"});
  a.signals.push_back({"front_valid", Type::bit(), "", "'0'"});

  Process p;
  p.label = "mem_fsm";
  p.clocked = true;
  p.reset_body = {assign(sig("state"), bitsl("00")),
                  assign(sig("ptr_begin"), others0()),
                  assign(sig("ptr_end"), others0()),
                  assign(sig("count"), others0()),
                  assign(sig("front_valid"), bitl('0')),
                  assign(sig("req"), bitl('0'))};

  // idle arm: accept a write request, else prefetch the front element.
  std::vector<IfArm> idle_arms;
  if (writes_device(ms)) {
    // Positional writes address by operand; stream pushes by ptr_end.
    const char* src = has_method(ms, Method::Write)    ? "addr"
                      : has_method(ms, Method::Insert) ? "key"
                                                      : "ptr_end";
    idle_arms.push_back(
        IfArm{eq(sig(*write_strobe(ms)), bitl('1')),
              {assign(sig("p_addr"), addr_expr(s, src)),
               assign(sig("p_wdata"), narrow_to_bus(s)),
               assign(sig("p_we"), bitl('1')),
               assign(sig("req"), bitl('1')),
               assign(sig("state"), bitsl("01"))}});
  }
  if (reads_device(ms)) {
    const bool queued = has_method(ms, Method::Pop);
    const char* src = has_method(ms, Method::Read)     ? "addr"
                      : has_method(ms, Method::Lookup) ? "key"
                                                      : "ptr_begin";
    const Expr cond =
        queued ? and_(eq(sig("front_valid"), bitl('0')),
                      ne(uns(sig("count")), num(0)))
               : eq(sig(*read_strobe(ms)), bitl('1'));
    idle_arms.push_back(IfArm{cond,
                              {assign(sig("p_addr"), addr_expr(s, src)),
                               assign(sig("req"), bitl('1')),
                               assign(sig("state"), bitsl("10"))}});
  }

  std::vector<CaseArm> arms;
  arms.push_back({false, bitsl("00"), "idle", {IfStmt{idle_arms, {}}}});
  if (writes_device(ms))
    arms.push_back(
        {false, bitsl("01"), "write back",
         {IfStmt{{IfArm{eq(sig("ack"), bitl('1')),
                        {assign(sig("req"), bitl('0')),
                         assign(sig("state"), bitsl("00")),
                         assign(sig("ptr_end"),
                                slv(add(uns(sig("ptr_end")), num(1)))),
                         assign(sig("count"),
                                slv(add(uns(sig("count")), num(1))))}}},
                 {}}}});
  if (reads_device(ms))
    arms.push_back(
        {false, bitsl("10"), "fetch front",
         {IfStmt{{IfArm{eq(sig("ack"), bitl('1')),
                        {assign(sig("req"), bitl('0')),
                         assign(sig("state"), bitsl("00")),
                         assign(sig("front_reg"), sig("p_data")),
                         assign(sig("front_valid"), bitl('1'))}}},
                 {}}}});
  arms.push_back(
      {true, {}, "", {assign(sig("state"), bitsl("00"))}});
  p.body = {CaseStmt{sig("state"), std::move(arms)}};
  if (has_method(ms, Method::Pop))
    p.body.push_back(IfStmt{
        {IfArm{and_(eq(sig("m_pop"), bitl('1')),
                    eq(sig("front_valid"), bitl('1'))),
               {assign(sig("front_valid"), bitl('0')),
                assign(sig("ptr_begin"),
                       slv(add(uns(sig("ptr_begin")), num(1)))),
                assign(sig("count"),
                       slv(sub(uns(sig("count")), num(1))))}}},
        {}});
  a.body.push_back(std::move(p));

  if (reads_device(ms)) {
    a.body.push_back(
        Assign{sig("data"), widen_to_data(s, sig("front_reg"))});
    a.body.push_back(Assign{sig("done"), sig("front_valid")});
  } else {
    a.body.push_back(
        Assign{sig("done"), when_else(eq(sig("state"), bitsl("00")),
                                      bitl('1'), bitl('0'))});
  }
}

void fill_bram_arch(Architecture& a, const ContainerSpec& s,
                    const Methods& ms) {
  const auto rd = read_strobe(ms);
  const auto wr = write_strobe(ms);
  Expr en = rd && wr ? or_(sig(*rd), sig(*wr))
            : rd     ? sig(*rd)
                     : sig(*wr);
  a.body.push_back(Assign{sig("p_en"), std::move(en)});

  if (has_addr_port(ms)) {
    a.body.push_back(Assign{sig("p_addr"), sig("addr")});
  } else if (has_key_port(ms)) {
    a.body.push_back(Assign{sig("p_addr"), addr_expr(s, "key")});
  } else {
    // Stream kinds keep circular pointers, advanced on the strobes.
    const int pb = std::max(1, clog2(static_cast<Word>(s.depth)));
    a.signals.push_back(
        {"ptr_begin", Type::vec(pb), "", "(others => '0')"});
    a.signals.push_back({"ptr_end", Type::vec(pb), "", "(others => '0')"});
    Process ptrs;
    ptrs.label = "bram_ptrs";
    ptrs.clocked = true;
    ptrs.reset_body = {assign(sig("ptr_begin"), others0()),
                       assign(sig("ptr_end"), others0())};
    if (wr)
      ptrs.body.push_back(IfStmt{
          {IfArm{eq(sig(*wr), bitl('1')),
                 {assign(sig("ptr_end"),
                         slv(add(uns(sig("ptr_end")), num(1))))}}},
          {}});
    if (rd)
      ptrs.body.push_back(IfStmt{
          {IfArm{eq(sig(*rd), bitl('1')),
                 {assign(sig("ptr_begin"),
                         slv(add(uns(sig("ptr_begin")), num(1))))}}},
          {}});
    a.body.push_back(std::move(ptrs));
    Expr rd_addr = addr_expr(s, "ptr_begin");
    if (wr && rd) {
      a.body.push_back(
          Assign{sig("p_addr"),
                 when_else(eq(sig(*wr), bitl('1')),
                           addr_expr(s, "ptr_end"), std::move(rd_addr))});
    } else if (wr) {
      a.body.push_back(Assign{sig("p_addr"), addr_expr(s, "ptr_end")});
    } else {
      a.body.push_back(Assign{sig("p_addr"), std::move(rd_addr)});
    }
  }

  if (writes_device(ms)) {
    a.body.push_back(Assign{sig("p_we"), sig(*wr)});
    a.body.push_back(Assign{
        sig("p_wdata"), has_data_in_port(ms)
                            ? narrow_to_bus(s)
                            : Expr(others0())});  // remove-only binding
  }
  if (reads_device(ms))
    a.body.push_back(Assign{sig("data"), widen_to_data(s, sig("p_data"))});

  // One-cycle read latency tracker.
  a.signals.push_back({"rd_pending", Type::bit(), "", "'0'"});
  Process p;
  p.label = "latency_track";
  p.clocked = true;
  p.reset_body = {assign(sig("rd_pending"), bitl('0'))};
  p.body = {assign(sig("rd_pending"), rd ? sig(*rd) : bitl('0'))};
  a.body.push_back(std::move(p));
  a.body.push_back(Assign{
      sig("done"), wr ? or_(sig("rd_pending"), sig(*wr))
                      : Expr(sig("rd_pending"))});
}

void fill_linebuf_arch(Architecture& a, const ContainerSpec& s) {
  (void)s;
  a.body.push_back(Assign{sig("p_read"), sig("m_pop")});
  a.body.push_back(Assign{sig("data"), sig("p_col")});
  a.body.push_back(Assign{sig("done"), sig("p_col_valid")});
}

}  // namespace

DesignUnit generate_container(const ContainerSpec& spec) {
  validate(spec);
  DesignUnit u;
  u.entity.name = hdl::legalize_identifier(spec.entity_name());
  const Methods ms = spec.effective_methods();
  add_clock_ports(u.entity, &spec);
  add_method_ports(u.entity, spec, ms);
  add_impl_ports(u.entity, spec, ms);
  u.arch.of = u.entity.name;
  switch (spec.device) {
    case DeviceKind::FifoCore:
    case DeviceKind::LifoCore:
      fill_core_arch(u.arch, spec, ms);
      break;
    case DeviceKind::AsyncFifoCore:
      fill_async_fifo_arch(u.arch, spec, ms);
      break;
    case DeviceKind::Sram:
      fill_sram_arch(u.arch, spec, ms);
      break;
    case DeviceKind::BlockRam:
      fill_bram_arch(u.arch, spec, ms);
      break;
    case DeviceKind::LineBuffer3:
      if (spec.kind != ContainerKind::ReadBuffer)
        throw SpecError("generate_container: line buffer binding is "
                        "read-buffer only");
      fill_linebuf_arch(u.arch, spec);
      break;
  }
  return u;
}

DesignUnit generate_iterator(const IteratorSpec& spec) {
  validate(spec);
  DesignUnit u;
  u.entity.name = hdl::legalize_identifier(spec.entity_name());
  add_clock_ports(u.entity);

  const OpSet ops = spec.effective_ops();
  const ContainerSpec& c = spec.container;
  const int k = c.accesses_per_element();

  // Operation strobes (Table 2) — only the used ones exist.
  for (core::Op op :
       {core::Op::Inc, core::Op::Dec, core::Op::Read, core::Op::Write,
        core::Op::Index}) {
    if (ops.contains(op))
      u.entity.ports.push_back(
          {"op_" + core::to_string(op), PortDir::In, Type::bit(),
           kMethods});
  }
  if (ops.contains(core::Op::Index))
    u.entity.ports.push_back(
        {"pos", PortDir::In, Type::vec(c.addr_bits), kParams});
  if (ops.contains(core::Op::Write))
    u.entity.ports.push_back(
        {"data_in", PortDir::In, Type::vec(c.elem_bits), kParams});
  if (ops.contains(core::Op::Read))
    u.entity.ports.push_back(
        {"data", PortDir::Out, Type::vec(c.elem_bits), kParams});
  u.entity.ports.push_back({"done", PortDir::Out, Type::bit(), kParams});

  // Implementation interface: the container's method ports, inverted.
  if (ops.contains(core::Op::Read) || ops.contains(core::Op::Inc) ||
      ops.contains(core::Op::Dec)) {
    u.entity.ports.push_back({"m_pop", PortDir::Out, Type::bit(), kImpl});
    u.entity.ports.push_back(
        {"m_data", PortDir::In,
         Type::vec(c.device == DeviceKind::LineBuffer3
                       ? 3 * c.elem_bits
                       : c.effective_bus_bits()),
         kImpl});
    u.entity.ports.push_back({"m_done", PortDir::In, Type::bit(), kImpl});
  }
  if (ops.contains(core::Op::Write)) {
    u.entity.ports.push_back({"m_push", PortDir::Out, Type::bit(), kImpl});
    u.entity.ports.push_back(
        {"m_wdata", PortDir::Out, Type::vec(c.effective_bus_bits()),
         kImpl});
    if (!u.entity.find_port("m_done"))
      u.entity.ports.push_back(
          {"m_done", PortDir::In, Type::bit(), kImpl});
  }

  u.arch.of = u.entity.name;
  if (k == 1) {
    // Pure wrapper: "no more than a wrapper that renames some signals".
    if (ops.contains(core::Op::Read)) {
      const int mdb = c.device == DeviceKind::LineBuffer3
                          ? 3 * c.elem_bits
                          : c.effective_bus_bits();
      u.arch.body.push_back(
          Assign{sig("data"),
                 mdb == c.elem_bits
                     ? sig("m_data")
                     : Expr(slice(sig("m_data"), c.elem_bits - 1, 0))});
      // The consume strobe: advancing ops when present; a read-only
      // iterator pops on the read itself (show-ahead device data).
      u.arch.body.push_back(
          Assign{sig("m_pop"),
                 ops.contains(core::Op::Inc)   ? sig("op_inc")
                 : ops.contains(core::Op::Dec) ? sig("op_dec")
                                               : sig("op_read")});
    }
    if (ops.contains(core::Op::Write)) {
      u.arch.body.push_back(Assign{sig("m_push"), sig("op_write")});
      u.arch.body.push_back(Assign{sig("m_wdata"), sig("data_in")});
    }
    u.arch.body.push_back(Assign{sig("done"), sig("m_done")});
  } else {
    // §3.3 width adaptation: k consecutive device accesses per element
    // ("perform three consecutive container reads/writes to get/set
    // the whole pixel").
    const int lane_bits = bits_for(static_cast<Word>(k));
    u.arch.signals.push_back(
        {"lane", Type::vec(lane_bits), "", "(others => '0')"});
    u.arch.signals.push_back(
        {"shift_reg", Type::vec(c.elem_bits), "", "(others => '0')"});
    u.arch.signals.push_back({"asm_valid", Type::bit(), "", "'0'"});
    Process p;
    p.label = "width_adapt";
    p.clocked = true;
    p.reset_body = {assign(sig("lane"), others0()),
                    assign(sig("asm_valid"), bitl('0'))};
    const int bus = c.effective_bus_bits();
    const IfStmt lane_step{
        {IfArm{eq(uns(sig("lane")), num(k - 1)),
               {assign(sig("lane"), others0())}}},
        {assign(sig("lane"), slv(add(uns(sig("lane")), num(1))))}};
    if (ops.contains(core::Op::Read)) {
      Expr consume = ops.contains(core::Op::Inc)
                         ? eq(sig("op_inc"), bitl('1'))
                     : ops.contains(core::Op::Dec)
                         ? eq(sig("op_dec"), bitl('1'))
                         : eq(sig("op_read"), bitl('1'));
      if (ops.contains(core::Op::Inc) && ops.contains(core::Op::Dec))
        consume = or_(eq(sig("op_inc"), bitl('1')),
                      eq(sig("op_dec"), bitl('1')));
      p.body = {
          IfStmt{{IfArm{and_(eq(sig("m_done"), bitl('1')),
                             eq(sig("asm_valid"), bitl('0'))),
                        {assign(sig("shift_reg"),
                                concat(sig("m_data"),
                                       slice(sig("shift_reg"),
                                             c.elem_bits - 1, bus))),
                         IfStmt{{IfArm{eq(uns(sig("lane")), num(k - 1)),
                                       {assign(sig("lane"), others0()),
                                        assign(sig("asm_valid"),
                                               bitl('1'))}}},
                                {assign(sig("lane"),
                                        slv(add(uns(sig("lane")),
                                                num(1))))}}}}},
                 {}},
          IfStmt{{IfArm{and_(std::move(consume),
                             eq(sig("asm_valid"), bitl('1'))),
                        {assign(sig("asm_valid"), bitl('0'))}}},
                 {}}};
      u.arch.body.push_back(
          Assign{sig("m_pop"), and_(sig("m_done"), not_(sig("asm_valid")))});
      u.arch.body.push_back(Assign{sig("data"), sig("shift_reg")});
      u.arch.body.push_back(Assign{sig("done"), sig("asm_valid")});
    } else {
      p.body = {IfStmt{
          {IfArm{or_(eq(sig("op_write"), bitl('1')),
                     ne(uns(sig("lane")), num(0))),
                 {IfStmt{{IfArm{eq(sig("m_done"), bitl('1')),
                                {lane_step}}},
                         {}}}}},
          {}}};
      u.arch.body.push_back(Assign{sig("m_push"), sig("op_write")});
      u.arch.body.push_back(Assign{sig("m_wdata"),
                                   slice(sig("data_in"), bus - 1, 0),
                                   "lane-selected by generator"});
      u.arch.body.push_back(Assign{sig("done"), sig("m_done")});
    }
    u.arch.body.push_back(std::move(p));
  }
  return u;
}

DesignUnit generate_algorithm(const AlgorithmSpec& spec) {
  if (spec.name.empty())
    throw SpecError("algorithm spec: empty name");
  if (spec.elem_bits < 1 || spec.elem_bits > kMaxBusBits)
    throw SpecError("algorithm spec '" + spec.name +
                    "': element width out of range");
  if (spec.op_vhdl.find("$x") == std::string::npos)
    throw SpecError("algorithm spec '" + spec.name +
                    "': op expression must reference $x");

  DesignUnit u;
  u.entity.name = hdl::legalize_identifier(spec.name + "_fsm");
  add_clock_ports(u.entity);
  // Control.
  u.entity.ports.push_back({"start", PortDir::In, Type::bit(), "control"});
  u.entity.ports.push_back({"busy", PortDir::Out, Type::bit(), "control"});
  u.entity.ports.push_back({"done", PortDir::Out, Type::bit(), "control"});
  // Input iterator client side.
  const char* kIn = "input iterator";
  u.entity.ports.push_back({"in_inc", PortDir::Out, Type::bit(), kIn});
  u.entity.ports.push_back({"in_read", PortDir::Out, Type::bit(), kIn});
  u.entity.ports.push_back(
      {"in_data", PortDir::In, Type::vec(spec.elem_bits), kIn});
  u.entity.ports.push_back({"in_done", PortDir::In, Type::bit(), kIn});
  // Output iterator client side.
  const char* kOut = "output iterator";
  u.entity.ports.push_back({"out_inc", PortDir::Out, Type::bit(), kOut});
  u.entity.ports.push_back({"out_write", PortDir::Out, Type::bit(), kOut});
  u.entity.ports.push_back(
      {"out_data", PortDir::Out, Type::vec(spec.elem_bits), kOut});
  u.entity.ports.push_back({"out_done", PortDir::In, Type::bit(), kOut});

  u.arch.of = u.entity.name;
  u.arch.signals.push_back({"running", Type::bit(), "", "'0'"});
  u.arch.signals.push_back({"go", Type::bit(), "", ""});

  // The paper's parallel handshake: read+inc on the input and
  // write+inc on the output fire together whenever both sides are
  // ready ("all these operations can be performed in parallel").
  u.arch.body.push_back(
      Assign{sig("go"),
             and_(and_(sig("running"), sig("in_done")), sig("out_done"))});
  u.arch.body.push_back(Assign{sig("in_read"), sig("go")});
  u.arch.body.push_back(Assign{sig("in_inc"), sig("go")});
  u.arch.body.push_back(Assign{sig("out_write"), sig("go")});
  u.arch.body.push_back(Assign{sig("out_inc"), sig("go")});
  // The element operation, spliced from the metamodel: the $x
  // placeholder becomes the input element, and the expression text is
  // parsed into the IR so malformed operations fail here, not in
  // synthesis.
  std::string expr_text = spec.op_vhdl;
  for (std::size_t pos = expr_text.find("$x"); pos != std::string::npos;
       pos = expr_text.find("$x"))
    expr_text.replace(pos, 2, "in_data");
  u.arch.body.push_back(Assign{sig("out_data"), hdl::parse_expr(expr_text)});
  u.arch.body.push_back(Assign{sig("busy"), sig("running")});

  Process p;
  p.label = "run_ctl";
  p.clocked = true;
  if (spec.count == 0) {
    p.reset_body = {assign(sig("running"), bitl('0'))};
    p.body = {IfStmt{{IfArm{eq(sig("start"), bitl('1')),
                            {assign(sig("running"), bitl('1'))}}},
                     {}}};
    u.arch.body.push_back(Assign{sig("done"), bitl('0')});
  } else {
    const int cb = bits_for(spec.count);
    u.arch.signals.push_back(
        {"transfers", Type::vec(cb), "", "(others => '0')"});
    u.arch.signals.push_back({"done_reg", Type::bit(), "", "'0'"});
    p.reset_body = {assign(sig("running"), bitl('0')),
                    assign(sig("transfers"), others0()),
                    assign(sig("done_reg"), bitl('0'))};
    p.body = {
        assign(sig("done_reg"), bitl('0')),
        IfStmt{
            {IfArm{and_(eq(sig("running"), bitl('0')),
                        eq(sig("start"), bitl('1'))),
                   {assign(sig("running"), bitl('1')),
                    assign(sig("transfers"), others0())}},
             IfArm{eq(sig("go"), bitl('1')),
                   {IfStmt{{IfArm{eq(uns(sig("transfers")),
                                     num(static_cast<long long>(
                                         spec.count - 1))),
                                  {assign(sig("running"), bitl('0')),
                                   assign(sig("done_reg"), bitl('1'))}}},
                           {assign(sig("transfers"),
                                   slv(add(uns(sig("transfers")),
                                           num(1))))}}}}},
            {}}};
    u.arch.body.push_back(Assign{sig("done"), sig("done_reg")});
  }
  u.arch.body.push_back(std::move(p));
  return u;
}

std::string to_vhdl(const DesignUnit& unit) { return hdl::emit_unit(unit); }

}  // namespace hwpat::meta
