// Meta-layer tests: spec validation, the VHDL generator (with golden
// checks against Figures 4 and 5 of the paper), dead-operation
// elimination in generated interfaces, and the RTL factory.
#include <gtest/gtest.h>

#include "hdl/emit.hpp"
#include "meta/codegen.hpp"
#include "meta/factory.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat::meta {
namespace {

using core::ContainerKind;
using core::IterRole;
using core::Op;
using core::Traversal;

ContainerSpec rbuffer_fifo_spec() {
  ContainerSpec s;
  s.name = "rbuffer";
  s.kind = ContainerKind::ReadBuffer;
  s.device = DeviceKind::FifoCore;
  s.elem_bits = 8;
  s.depth = 512;
  return s;
}

ContainerSpec rbuffer_sram_spec() {
  ContainerSpec s = rbuffer_fifo_spec();
  s.device = DeviceKind::Sram;
  s.addr_bits = 16;
  return s;
}

// ----------------------------------------------------------- specs

TEST(Spec, DefaultsAreValid) {
  EXPECT_NO_THROW(validate(rbuffer_fifo_spec()));
  EXPECT_NO_THROW(validate(rbuffer_sram_spec()));
}

TEST(Spec, IllegalKindDeviceRejected) {
  ContainerSpec s = rbuffer_fifo_spec();
  s.kind = ContainerKind::Vector;  // vector over a FIFO core: no
  EXPECT_THROW(validate(s), SpecError);
}

TEST(Spec, UnknownMethodRejected) {
  ContainerSpec s = rbuffer_fifo_spec();
  s.used_methods = {Method::Insert};  // rbuffer has no insert
  EXPECT_THROW(validate(s), SpecError);
}

TEST(Spec, BusWiderThanElementRejected) {
  ContainerSpec s = rbuffer_sram_spec();
  s.bus_bits = 32;  // elem is 8
  EXPECT_THROW(validate(s), SpecError);
}

TEST(Spec, SharedRequiresSram) {
  ContainerSpec s = rbuffer_fifo_spec();
  s.shared_device = true;
  EXPECT_THROW(validate(s), SpecError);
}

TEST(Spec, AccessesPerElement) {
  ContainerSpec s = rbuffer_sram_spec();
  s.elem_bits = 24;
  s.bus_bits = 8;
  EXPECT_EQ(s.accesses_per_element(), 3);  // the §3.3 RGB scenario
  s.bus_bits = 24;
  EXPECT_EQ(s.accesses_per_element(), 1);
  s.bus_bits = 0;
  EXPECT_EQ(s.accesses_per_element(), 1);
}

TEST(Spec, IteratorValidation) {
  IteratorSpec is;
  is.container = rbuffer_fifo_spec();
  is.traversal = Traversal::Forward;
  is.role = IterRole::Input;
  EXPECT_NO_THROW(validate(is));
  is.traversal = Traversal::Backward;  // rbuffer is forward-only
  EXPECT_THROW(validate(is), SpecError);
  is.traversal = Traversal::Forward;
  is.used_ops = core::OpSet{Op::Write};  // input iterators don't write
  EXPECT_THROW(validate(is), SpecError);
}

TEST(Spec, LineBufferRejectsAnExplicitSize) {
  // The line buffer drives no occupancy count, so a bound `size` wire
  // would never be driven; the defaulted method set stays valid.
  ContainerSpec s = rbuffer_fifo_spec();
  s.device = DeviceKind::LineBuffer3;
  EXPECT_NO_THROW(validate(s));
  s.used_methods = {Method::Pop, Method::Empty, Method::Size};
  try {
    validate(s);
    FAIL() << "a line-buffer read buffer bound an explicit size";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("used_methods"), std::string::npos)
        << e.what();
  }
  s.used_methods = {Method::Pop, Method::Empty};
  EXPECT_NO_THROW(validate(s));
}

TEST(Spec, MethodNamesRender) {
  EXPECT_EQ(to_string(Method::Pop), "pop");
  EXPECT_EQ(to_string(Method::Lookup), "lookup");
}

// -------------------------------------------- Fig. 4 golden: FIFO

TEST(CodegenFig4, RbufferFifoEntityMatchesThePaper) {
  const auto unit = generate_container(rbuffer_fifo_spec());
  EXPECT_EQ(unit.entity.name, "rbuffer_fifo");

  // The method strobes of Fig. 4.
  ASSERT_NE(unit.entity.find_port("m_empty"), nullptr);
  ASSERT_NE(unit.entity.find_port("m_size"), nullptr);
  ASSERT_NE(unit.entity.find_port("m_pop"), nullptr);
  // The param ports.
  const auto* data = unit.entity.find_port("data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->dir, hdl::PortDir::Out);
  EXPECT_EQ(data->type.width(), 8);
  ASSERT_NE(unit.entity.find_port("done"), nullptr);
  // The implementation interface of the FIFO binding.
  const auto* p_empty = unit.entity.find_port("p_empty");
  ASSERT_NE(p_empty, nullptr);
  EXPECT_EQ(p_empty->dir, hdl::PortDir::In);
  const auto* p_read = unit.entity.find_port("p_read");
  ASSERT_NE(p_read, nullptr);
  EXPECT_EQ(p_read->dir, hdl::PortDir::Out);
  const auto* p_data = unit.entity.find_port("p_data");
  ASSERT_NE(p_data, nullptr);
  EXPECT_EQ(p_data->type.width(), 8);
  // No SRAM-style ports in the FIFO binding.
  EXPECT_EQ(unit.entity.find_port("p_addr"), nullptr);
  EXPECT_EQ(unit.entity.find_port("req"), nullptr);
}

TEST(CodegenFig4, RenderedTextHasFig4Shape) {
  const std::string v = to_vhdl(generate_container(rbuffer_fifo_spec()));
  EXPECT_NE(v.find("entity rbuffer_fifo is"), std::string::npos);
  EXPECT_NE(v.find("-- methods"), std::string::npos);
  EXPECT_NE(v.find("-- params"), std::string::npos);
  EXPECT_NE(v.find("-- implementation interface"), std::string::npos);
  EXPECT_NE(v.find("m_pop : in std_logic"), std::string::npos);
  EXPECT_NE(v.find("data : out std_logic_vector(7 downto 0)"),
            std::string::npos);
  EXPECT_NE(v.find("p_data : in std_logic_vector(7 downto 0)"),
            std::string::npos);
  EXPECT_NE(v.find("end rbuffer_fifo;"), std::string::npos);
  // "The VHDL architecture is simply a wrapper of the FIFO core":
  EXPECT_NE(v.find("p_read <= m_pop;"), std::string::npos);
  EXPECT_NE(v.find("data <= p_data;"), std::string::npos);
}

// -------------------------------------------- Fig. 5 golden: SRAM

TEST(CodegenFig5, RbufferSramImplementationInterface) {
  const auto unit = generate_container(rbuffer_sram_spec());
  EXPECT_EQ(unit.entity.name, "rbuffer_sram");
  // Fig. 5's delta: p_addr(15:0), p_data, req, ack.
  const auto* p_addr = unit.entity.find_port("p_addr");
  ASSERT_NE(p_addr, nullptr);
  EXPECT_EQ(p_addr->dir, hdl::PortDir::Out);
  EXPECT_EQ(p_addr->type.width(), 16);
  const auto* p_data = unit.entity.find_port("p_data");
  ASSERT_NE(p_data, nullptr);
  EXPECT_EQ(p_data->dir, hdl::PortDir::In);
  EXPECT_EQ(p_data->type.width(), 8);
  ASSERT_NE(unit.entity.find_port("req"), nullptr);
  ASSERT_NE(unit.entity.find_port("ack"), nullptr);
  // No FIFO-style ports.
  EXPECT_EQ(unit.entity.find_port("p_empty"), nullptr);
  EXPECT_EQ(unit.entity.find_port("p_read"), nullptr);
  // The functional interface is untouched by the retarget: exactly the
  // point of the pattern.
  ASSERT_NE(unit.entity.find_port("m_pop"), nullptr);
  ASSERT_NE(unit.entity.find_port("data"), nullptr);
  ASSERT_NE(unit.entity.find_port("done"), nullptr);
}

TEST(CodegenFig5, ArchitectureHasTheLittleFsmAndPointers) {
  const std::string v = to_vhdl(generate_container(rbuffer_sram_spec()));
  EXPECT_NE(v.find("signal ptr_begin"), std::string::npos);
  EXPECT_NE(v.find("signal ptr_end"), std::string::npos);
  EXPECT_NE(v.find("mem_fsm : process (clk, rst)"), std::string::npos);
  EXPECT_NE(v.find("rising_edge(clk)"), std::string::npos);
}

TEST(Codegen, FunctionalPortsIdenticalAcrossBindings) {
  // The m_*/params sections must be byte-identical between Fig. 4 and
  // Fig. 5 — only the implementation interface may differ.
  const auto fifo = generate_container(rbuffer_fifo_spec());
  const auto sram = generate_container(rbuffer_sram_spec());
  std::vector<hdl::Port> ffunc, sfunc;
  for (const auto& p : fifo.entity.ports)
    if (p.group != "implementation interface") ffunc.push_back(p);
  for (const auto& p : sram.entity.ports)
    if (p.group != "implementation interface") sfunc.push_back(p);
  EXPECT_EQ(ffunc, sfunc);
}

// ------------------------------------ dead-operation elimination

TEST(Codegen, MethodPruningRemovesPortsAndLogic) {
  ContainerSpec s = rbuffer_fifo_spec();
  s.used_methods = {Method::Pop};  // drop empty/size
  const auto unit = generate_container(s);
  EXPECT_NE(unit.entity.find_port("m_pop"), nullptr);
  EXPECT_EQ(unit.entity.find_port("m_empty"), nullptr);
  EXPECT_EQ(unit.entity.find_port("m_size"), nullptr);
  // Without `size`, no counter process is generated.
  const std::string v = to_vhdl(unit);
  EXPECT_EQ(v.find("size_counter"), std::string::npos);

  ContainerSpec full = rbuffer_fifo_spec();  // all methods
  const std::string vf = to_vhdl(generate_container(full));
  EXPECT_NE(vf.find("size_counter"), std::string::npos);
  EXPECT_GT(vf.size(), v.size());
}

TEST(Codegen, IteratorOpsPruned) {
  IteratorSpec is;
  is.container = rbuffer_fifo_spec();
  is.traversal = Traversal::Forward;
  is.role = IterRole::Input;
  is.used_ops = core::OpSet{Op::Read};
  const auto unit = generate_iterator(is);
  EXPECT_NE(unit.entity.find_port("op_read"), nullptr);
  EXPECT_EQ(unit.entity.find_port("op_inc"), nullptr);
  EXPECT_EQ(unit.entity.find_port("op_write"), nullptr);
  EXPECT_EQ(unit.entity.find_port("pos"), nullptr);
}

TEST(Codegen, WrapperIteratorIsJustRenames) {
  IteratorSpec is;
  is.container = rbuffer_fifo_spec();
  is.traversal = Traversal::Forward;
  is.role = IterRole::Input;
  const auto unit = generate_iterator(is);
  // No registers, no processes: pure renaming assignments.
  EXPECT_TRUE(unit.arch.signals.empty());
  for (const auto& c : unit.arch.body)
    EXPECT_TRUE(std::holds_alternative<hdl::Assign>(c));
}

TEST(Codegen, WidthAdaptedIteratorHasLaneMachinery) {
  IteratorSpec is;
  is.container = rbuffer_sram_spec();
  is.container.elem_bits = 24;
  is.container.bus_bits = 8;
  is.traversal = Traversal::Forward;
  is.role = IterRole::Input;
  const auto unit = generate_iterator(is);
  const std::string v = to_vhdl(unit);
  EXPECT_NE(v.find("signal lane"), std::string::npos);
  EXPECT_NE(v.find("signal shift_reg"), std::string::npos);
  EXPECT_NE(v.find("width_adapt : process"), std::string::npos);
  // Element-facing port is 24 bit, device-facing 8 bit.
  EXPECT_EQ(unit.entity.find_port("data")->type.width(), 24);
  EXPECT_EQ(unit.entity.find_port("m_data")->type.width(), 8);
}

// --------------------------------- algorithm metamodels (extension)

TEST(CodegenAlgo, EndlessCopyFsm) {
  AlgorithmSpec a{.name = "copy", .elem_bits = 8, .op_vhdl = "$x",
                  .count = 0};
  const auto unit = generate_algorithm(a);
  EXPECT_EQ(unit.entity.name, "copy_fsm");
  // Both iterator client interfaces exist.
  for (const char* p : {"in_inc", "in_read", "in_data", "in_done",
                        "out_inc", "out_write", "out_data", "out_done",
                        "start", "busy", "done"})
    EXPECT_NE(unit.entity.find_port(p), nullptr) << p;
  const std::string v = to_vhdl(unit);
  // The parallel handshake of §3.3.
  EXPECT_NE(v.find("go <= running and in_done and out_done;"),
            std::string::npos);
  EXPECT_NE(v.find("out_data <= in_data;"), std::string::npos);
  // Endless: no transfer counter.
  EXPECT_EQ(v.find("transfers"), std::string::npos);
}

TEST(CodegenAlgo, BoundedTransformHasCounterAndOp) {
  AlgorithmSpec a{.name = "invert", .elem_bits = 8,
                  .op_vhdl = "not $x", .count = 100};
  const std::string v = to_vhdl(generate_algorithm(a));
  EXPECT_NE(v.find("out_data <= not in_data;"), std::string::npos);
  EXPECT_NE(v.find("signal transfers"), std::string::npos);
  EXPECT_NE(v.find("unsigned(transfers) = 99"), std::string::npos);
}

TEST(CodegenAlgo, RejectsExpressionWithoutOperand) {
  AlgorithmSpec a{.name = "bad", .elem_bits = 8, .op_vhdl = "'0'",
                  .count = 0};
  EXPECT_THROW(generate_algorithm(a), SpecError);
}

TEST(CodegenAlgo, RejectsBadWidth) {
  AlgorithmSpec a{.name = "w", .elem_bits = 0, .op_vhdl = "$x"};
  EXPECT_THROW(generate_algorithm(a), SpecError);
}

// ------------------------------- dual-clock FIFO core (AsyncFifoCore)

ContainerSpec queue_async_spec() {
  ContainerSpec s;
  s.name = "queue";
  s.kind = ContainerKind::Queue;
  s.device = DeviceKind::AsyncFifoCore;
  s.elem_bits = 8;
  s.depth = 64;
  return s;
}

TEST(CodegenAsync, DualClockCoreHasGrayPointersAndSynchronizers) {
  const auto unit = generate_container(queue_async_spec());
  const std::string v = to_vhdl(unit);

  // One clocked process per concern, each in its own clock domain.
  EXPECT_NE(v.find("wr_ptr : process (wr_clk, wr_rst)"),
            std::string::npos);
  EXPECT_NE(v.find("sync_rptr : process (wr_clk, wr_rst)"),
            std::string::npos);
  EXPECT_NE(v.find("rd_ptr : process (rd_clk, rd_rst)"),
            std::string::npos);
  EXPECT_NE(v.find("sync_wptr : process (rd_clk, rd_rst)"),
            std::string::npos);

  // Gray encoding of the next pointers: g = (b >> 1) xor b.
  EXPECT_NE(
      v.find("wgray_next <= std_logic_vector(shift_right("
             "unsigned(wbin_next), 1) xor unsigned(wbin_next));"),
      std::string::npos);
  // depth 64 -> 6 address bits -> 7 pointer bits; full inverts the top
  // two bits of the synchronized read gray, empty compares graypointers
  // directly.
  EXPECT_NE(v.find("full_i <= '1' when wgray = (rgray_w2 xor "
                   "\"1100000\") else '0';"),
            std::string::npos);
  EXPECT_NE(v.find("empty_i <= '1' when rgray = wgray_r2 else '0';"),
            std::string::npos);
  // 2-flop synchronizer chains in both directions.
  EXPECT_NE(v.find("rgray_w1 <= rgray;"), std::string::npos);
  EXPECT_NE(v.find("rgray_w2 <= rgray_w1;"), std::string::npos);
  EXPECT_NE(v.find("wgray_r1 <= wgray;"), std::string::npos);
  EXPECT_NE(v.find("wgray_r2 <= wgray_r1;"), std::string::npos);
  // Storage array plus show-ahead read data.
  EXPECT_NE(v.find("type mem_t is array (0 to 63) of "
                   "std_logic_vector(7 downto 0);"),
            std::string::npos);
  EXPECT_NE(
      v.find("mem(to_integer(unsigned(wbin(5 downto 0)))) <= data_in;"),
      std::string::npos);
  EXPECT_NE(
      v.find("data <= mem(to_integer(unsigned(rbin(5 downto 0))));"),
      std::string::npos);
  // Enables gated by the domain-local flag.
  EXPECT_NE(v.find("wr_en <= m_push and not full_i;"), std::string::npos);
  EXPECT_NE(v.find("rd_en <= m_pop and not empty_i;"), std::string::npos);
}

TEST(CodegenAsync, BufferBindingsGetPlatformSidePorts) {
  // A read buffer is filled by the platform in the write domain...
  ContainerSpec rb = queue_async_spec();
  rb.kind = ContainerKind::ReadBuffer;
  const auto r = generate_container(rb);
  EXPECT_NE(r.entity.find_port("p_write"), nullptr);
  EXPECT_NE(r.entity.find_port("p_wdata"), nullptr);
  EXPECT_NE(r.entity.find_port("p_full"), nullptr);
  EXPECT_NE(r.entity.find_port("empty"), nullptr);
  EXPECT_EQ(r.entity.find_port("m_push"), nullptr);

  // ...and a write buffer is drained by the platform in the read domain.
  ContainerSpec wb = queue_async_spec();
  wb.kind = ContainerKind::WriteBuffer;
  const auto w = generate_container(wb);
  EXPECT_NE(w.entity.find_port("p_read"), nullptr);
  EXPECT_NE(w.entity.find_port("p_data"), nullptr);
  EXPECT_NE(w.entity.find_port("p_empty"), nullptr);
  EXPECT_NE(w.entity.find_port("full"), nullptr);
  EXPECT_EQ(w.entity.find_port("m_pop"), nullptr);
}

TEST(CodegenAsync, RejectsNonPowerOfTwoDepthAndSize) {
  ContainerSpec s = queue_async_spec();
  s.depth = 100;  // gray-coded pointers need a power of two
  EXPECT_THROW(generate_container(s), SpecError);
  s = queue_async_spec();
  s.used_methods = {Method::Push, Method::Pop, Method::Size};
  EXPECT_THROW(generate_container(s), SpecError);  // no global occupancy
}

// ---------------------------------------- full catalogue generation

TEST(Codegen, EveryLegalBindingGenerates) {
  // The generator must produce a well-formed unit for every legal
  // (kind, device) pair of §3.4 — the whole basic component library.
  int generated = 0;
  for (const auto kind :
       {ContainerKind::Stack, ContainerKind::Queue,
        ContainerKind::ReadBuffer, ContainerKind::WriteBuffer,
        ContainerKind::Vector, ContainerKind::AssocArray}) {
    for (const auto dev : core::legal_devices(kind)) {
      ContainerSpec s;
      s.name = core::to_string(kind);
      s.kind = kind;
      s.device = dev;
      s.elem_bits = 8;
      s.depth = 64;
      const auto unit = generate_container(s);
      EXPECT_FALSE(unit.entity.ports.empty());
      if (dev == DeviceKind::AsyncFifoCore) {
        // Dual-clock: one clock/reset pair per domain, no global clk.
        EXPECT_NE(unit.entity.find_port("wr_clk"), nullptr);
        EXPECT_NE(unit.entity.find_port("rd_clk"), nullptr);
        EXPECT_EQ(unit.entity.find_port("clk"), nullptr);
      } else {
        EXPECT_NE(unit.entity.find_port("clk"), nullptr);
      }
      EXPECT_NE(unit.entity.find_port("done"), nullptr);
      const std::string v = to_vhdl(unit);
      EXPECT_NE(v.find("entity " + unit.entity.name), std::string::npos);
      EXPECT_NE(v.find("end rtl;"), std::string::npos);
      ++generated;
    }
  }
  EXPECT_GE(generated, 15);  // Table 1 x §3.4 legal bindings
}

// ------------------------------------------------------ factory

TEST(Factory, BuildsFifoQueueThatStreams) {
  struct Tb : rtl::Module {
    core::StreamWires w;
    std::unique_ptr<core::Container> cont;
    tb::StreamFeeder feeder;
    tb::StreamDrainer drainer;
    Tb(const ContainerSpec& s, std::vector<Word> data)
        : Module(nullptr, "tb"),
          w(*this, "q", s.elem_bits, 16),
          feeder(this, "f", w.producer(), std::move(data)),
          drainer(this, "d", w.consumer()) {
      cont = build_stream_container(
          this, s, StreamBuildPorts{.method = w.impl()});
    }
  };
  ContainerSpec s;
  s.name = "q";
  s.kind = ContainerKind::Queue;
  s.device = DeviceKind::FifoCore;
  s.elem_bits = 8;
  s.depth = 16;
  Tb tb(s, {5, 6, 7});
  rtl::Simulator sim(tb);
  sim.reset();
  tb::step_until(sim, [&] { return tb.drainer.got().size() == 3; }, 1000);
  EXPECT_EQ(tb.drainer.got(), (std::vector<Word>{5, 6, 7}));
}

TEST(Factory, SramBindingWithoutMemoryPortThrows) {
  rtl::Module top(nullptr, "top");
  core::StreamWires w(top, "q", 8, 16);
  ContainerSpec s;
  s.name = "q";
  s.kind = ContainerKind::Queue;
  s.device = DeviceKind::Sram;
  EXPECT_THROW(build_stream_container(
                   &top, s, StreamBuildPorts{.method = w.impl()}),
               SpecError);
}

TEST(Factory, WidthAdaptingIteratorsRoundTrip) {
  // 24-bit pixels through an 8-bit queue: output iterator splits,
  // input iterator reassembles — §3.3 end to end.
  struct Tb : rtl::Module {
    core::StreamWires q_w;
    std::unique_ptr<core::Container> queue;
    std::unique_ptr<core::Iterator> it_out;
    std::unique_ptr<core::Iterator> it_in;

    Tb() : Module(nullptr, "tb"), q_w(*this, "q", 8, 16) {
      ContainerSpec cs;
      cs.name = "q";
      cs.kind = ContainerKind::Queue;
      cs.device = DeviceKind::FifoCore;
      cs.elem_bits = 24;
      cs.bus_bits = 8;
      cs.depth = 16;
      queue = build_stream_container(
          this, cs, StreamBuildPorts{.method = q_w.impl()});
      IteratorSpec os{.name = "wit",
                      .traversal = Traversal::Forward,
                      .role = IterRole::Output,
                      .used_ops = {},
                      .container = cs};
      IteratorSpec is{.name = "rit",
                      .traversal = Traversal::Forward,
                      .role = IterRole::Input,
                      .used_ops = {},
                      .container = cs};
      it_out = build_output_iterator(this, os, q_w.producer());
      it_in = build_input_iterator(this, is, q_w.consumer());
    }
  };
  Tb tb;
  rtl::Simulator sim(tb);
  sim.reset();
  const core::IterClient out = tb.it_out->client();
  const core::IterClient in = tb.it_in->client();

  const std::vector<Word> pixels{0xAABBCC, 0x112233, 0xF0E1D2};
  std::vector<Word> got;
  std::size_t wi = 0;
  for (int cycle = 0; cycle < 500 && got.size() < pixels.size();
       ++cycle) {
    // Drive write side.
    if (wi < pixels.size() && out.ready.read()) {
      out.write.write(true);
      out.inc.write(true);
      out.wdata.write(pixels[wi]);
      ++wi;
    } else {
      out.write.write(false);
      out.inc.write(false);
    }
    // Drive read side.
    if (in.rvalid.read()) {
      got.push_back(in.rdata.read());
      in.read.write(true);
      in.inc.write(true);
    } else {
      in.read.write(false);
      in.inc.write(false);
    }
    sim.step();
  }
  EXPECT_EQ(got, pixels);

  // The adapting iterators carry real resources (they do NOT dissolve).
  rtl::PrimitiveTally t_in, t_out;
  tb.it_in->report(t_in);
  tb.it_out->report(t_out);
  EXPECT_GT(t_in.reg_bits, 24);
  EXPECT_GT(t_out.reg_bits, 23);
  const auto* wai =
      dynamic_cast<const WidthAdaptInputIterator*>(tb.it_in.get());
  ASSERT_NE(wai, nullptr);
  EXPECT_EQ(wai->lanes(), 3);
}

}  // namespace
}  // namespace hwpat::meta
