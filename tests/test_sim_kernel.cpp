// Differential tests of the event-driven simulation kernel against the
// full-sweep reference kernel: every shipped design must produce the
// same cycle count, the same output frames and a byte-identical VCD
// trace under both schedulers, combinational loops must be detected in
// both modes, and the event-driven kernel must actually do less work.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "designs/design.hpp"
#include "designs/saa2vga_shared.hpp"
#include "devices/arbiter.hpp"
#include "devices/bram.hpp"
#include "devices/fifo.hpp"
#include "devices/lifo.hpp"
#include "devices/linebuffer.hpp"
#include "devices/sram.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using designs::BlurConfig;
using designs::Saa2VgaConfig;
using designs::VideoDesign;
using rtl::Simulator;

constexpr std::uint64_t kMaxCycles = 2'000'000;

using tb::slurp_and_remove;

struct RunResult {
  std::uint64_t cycles = 0;
  std::vector<video::Frame> frames;
  std::string vcd;
  Simulator::Stats stats;
};

RunResult run_design(VideoDesign& d, bool full_sweep,
                     const std::string& vcd_path) {
  Simulator sim(d, {.full_sweep = full_sweep});
  sim.open_vcd(vcd_path);
  sim.reset();
  EXPECT_TRUE(sim.run([&] { return d.finished(); }, kMaxCycles).ok())
      << sim.progress_report();
  RunResult r;
  r.cycles = sim.cycle();
  r.frames = d.sink().frames();
  r.stats = sim.stats();
  return r;
}

using Factory = std::function<std::unique_ptr<VideoDesign>()>;

void expect_kernels_equivalent(const std::string& label,
                               const Factory& make) {
  // Two independent instances: module-internal state is per-instance.
  auto d_evt = make();
  auto d_ref = make();
  RunResult evt = run_design(*d_evt, false, label + "_evt.vcd");
  RunResult ref = run_design(*d_ref, true, label + "_ref.vcd");
  evt.vcd = slurp_and_remove(label + "_evt.vcd");
  ref.vcd = slurp_and_remove(label + "_ref.vcd");

  EXPECT_EQ(evt.cycles, ref.cycles) << label << ": cycle counts differ";
  EXPECT_EQ(evt.frames, ref.frames) << label << ": output frames differ";
  EXPECT_TRUE(evt.vcd == ref.vcd)
      << label << ": VCD traces differ: "
      << tb::vcd_difference_report(evt.vcd, ref.vcd);
  // The point of the exercise: strictly fewer eval_comb() calls and
  // signal commits than the sweep kernel on any non-trivial design.
  EXPECT_LT(evt.stats.evals, ref.stats.evals) << label;
  EXPECT_LT(evt.stats.commits, ref.stats.commits) << label;
}

TEST(SimKernelDiff, Saa2VgaPatternFifo) {
  expect_kernels_equivalent("diff_saa2vga_pat_fifo", [] {
    return designs::make_saa2vga_pattern(
        {.width = 24, .height = 18, .buffer_depth = 64, .frames = 2});
  });
}

TEST(SimKernelDiff, Saa2VgaPatternSram) {
  expect_kernels_equivalent("diff_saa2vga_pat_sram", [] {
    return designs::make_saa2vga_pattern(
        {.width = 24, .height = 18, .buffer_depth = 64,
         .device = devices::DeviceKind::Sram, .frames = 2});
  });
}

TEST(SimKernelDiff, Saa2VgaCustomFifo) {
  expect_kernels_equivalent("diff_saa2vga_cus_fifo", [] {
    return designs::make_saa2vga_custom(
        {.width = 24, .height = 18, .buffer_depth = 64, .frames = 2});
  });
}

TEST(SimKernelDiff, Saa2VgaCustomSram) {
  expect_kernels_equivalent("diff_saa2vga_cus_sram", [] {
    return designs::make_saa2vga_custom(
        {.width = 24, .height = 18, .buffer_depth = 64,
         .device = devices::DeviceKind::Sram, .frames = 2});
  });
}

TEST(SimKernelDiff, Saa2VgaSharedSram) {
  expect_kernels_equivalent("diff_saa2vga_shared", [] {
    return designs::make_saa2vga_shared(
        {.width = 16, .height = 12, .buffer_depth = 64, .frames = 2});
  });
}

TEST(SimKernelDiff, BlurPattern) {
  expect_kernels_equivalent("diff_blur_pat", [] {
    return designs::make_blur_pattern(
        {.width = 24, .height = 18, .frames = 2});
  });
}

TEST(SimKernelDiff, BlurCustom) {
  expect_kernels_equivalent("diff_blur_cus", [] {
    return designs::make_blur_custom(
        {.width = 24, .height = 18, .frames = 2});
  });
}

// ------------------------------------------------------------------
// Failure-mode and boundary parity
// ------------------------------------------------------------------

/// Intentional combinational feedback: x = x + 1.
class CombLoop : public rtl::Module {
 public:
  explicit CombLoop(Module* parent)
      : Module(parent, "loop"), x(*this, "x", 8) {}
  void eval_comb() override { x.write(x.read() + 1); }
  rtl::Bus x;
};

TEST(SimKernelDiff, CombLoopRaisesInBothModes) {
  for (const bool full_sweep : {false, true}) {
    CombLoop top(nullptr);
    Simulator sim(top, {.full_sweep = full_sweep});
    EXPECT_THROW(sim.settle(), CombLoopError)
        << (full_sweep ? "full_sweep" : "event");
  }
}

TEST(SimKernelDiff, CombLoopRaisesAfterClockEdgeInBothModes) {
  for (const bool full_sweep : {false, true}) {
    CombLoop top(nullptr);
    Simulator sim(top, {.full_sweep = full_sweep});
    EXPECT_THROW(sim.step(), CombLoopError)
        << (full_sweep ? "full_sweep" : "event");
  }
}

/// A registered counter with combinational "is-max" flag.
class Counter : public rtl::Module {
 public:
  Counter(Module* parent, std::string name, int width, Word max)
      : Module(parent, std::move(name)),
        max_(max),
        value(*this, "value", width),
        at_max(*this, "at_max") {}

  void eval_comb() override { at_max.write(value.read() == max_); }
  void on_clock() override {
    value.write(value.read() == max_ ? 0 : value.read() + 1);
  }

  Word max_;
  rtl::Bus value;
  rtl::Bit at_max;
};

TEST(SimKernelDiff, RunSucceedsExactlyAtMaxCycles) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  // The condition becomes true on the 5th edge and max_cycles is 5:
  // that is a success, not a timeout.
  const rtl::RunStatus st =
      sim.run([&] { return top.value.read() == 5; }, 5);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.steps, 5u);
}

TEST(SimKernelDiff, RunTimeoutProgressReportMentionsCycle) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  sim.step(3);
  const rtl::RunStatus st = sim.run([] { return false; }, 7);
  EXPECT_EQ(st.result, rtl::RunResult::Timeout);
  EXPECT_EQ(st.steps, 7u);
  // 3 pre-steps + 7 budget = the stall is reported at cycle 10.
  EXPECT_NE(sim.progress_report().find("cycle 10"), std::string::npos)
      << sim.progress_report();
}

TEST(SimKernelDiff, TestbenchWritesPropagateWithoutClock) {
  for (const bool full_sweep : {false, true}) {
    Counter top(nullptr, "cnt", 8, 3);
    Simulator sim(top, {.full_sweep = full_sweep});
    sim.reset();
    EXPECT_FALSE(top.at_max.read());
    top.value.write(3);  // testbench poke, no clock edge
    sim.settle();
    EXPECT_TRUE(top.at_max.read())
        << (full_sweep ? "full_sweep" : "event");
  }
}

TEST(SimKernelDiff, SequentialSimulatorsRebindCleanly) {
  Counter top(nullptr, "cnt", 8, 255);
  {
    Simulator sim(top);
    sim.reset();
    sim.step(4);
    EXPECT_EQ(top.value.read(), 4u);
  }
  Simulator sim2(top, {.full_sweep = true});
  sim2.reset();
  sim2.step(2);
  EXPECT_EQ(top.value.read(), 2u);
}

// ------------------------------------------------------------------
// Declared sequential state: per-device parity
//
// Each device is driven standalone by a deterministic scripted
// testbench (the TB itself stays opaque_state, so the conservative and
// declared paths coexist in one design).  The event-driven run must
// produce a byte-identical VCD to full_sweep, do strictly less work,
// and actually exercise the post-edge skip (seq_skips > 0).
// ------------------------------------------------------------------

template <typename TB>
void expect_device_parity(const std::string& label, int cycles) {
  struct Out {
    std::string vcd;
    Simulator::Stats stats;
  };
  auto run = [&](bool full_sweep) {
    TB tb;
    const std::string path =
        label + (full_sweep ? "_ref.vcd" : "_evt.vcd");
    Simulator::Stats stats;
    {
      Simulator sim(tb, {.full_sweep = full_sweep});
      sim.open_vcd(path);
      sim.reset();
      sim.step(cycles);
      stats = sim.stats();
    }  // destroying the simulator flushes the VCD stream
    return Out{slurp_and_remove(path), stats};
  };
  const Out evt = run(false);
  const Out ref = run(true);
  EXPECT_TRUE(evt.vcd == ref.vcd)
      << label << ": VCD traces differ: "
      << tb::vcd_difference_report(evt.vcd, ref.vcd);
  EXPECT_LT(evt.stats.evals, ref.stats.evals) << label;
  EXPECT_LT(evt.stats.commits, ref.stats.commits) << label;
  EXPECT_GT(evt.stats.seq_skips, 0u)
      << label << ": declared-state skipping never engaged";
  EXPECT_EQ(ref.stats.seq_skips, 0u) << label << ": full_sweep must not skip";
}

using devices::ArbMasterPorts;
using devices::ArbSlavePorts;
using rtl::Bit;
using rtl::Bus;
using rtl::Module;

/// FIFO driven through fill, drain, simultaneous read+write and long
/// idle windows.  The script is a pure function of the edge counter.
struct FifoParityTb : Module {
  Bit wr_en{*this, "wr_en"}, rd_en{*this, "rd_en"};
  Bit empty{*this, "empty"}, full{*this, "full"};
  Bus wr_data{*this, "wr_data", 8}, rd_data{*this, "rd_data", 8};
  Bus level{*this, "level", 16};
  devices::FifoCore fifo;
  int t_ = 0;

  FifoParityTb()
      : Module(nullptr, "tb"),
        fifo(this, "fifo", {.width = 8, .depth = 8},
             devices::FifoPorts{wr_en, wr_data, rd_en, rd_data, empty,
                                full, level}) {}

  void eval_comb() override {
    const bool push = (t_ >= 4 && t_ < 9) || (t_ >= 30 && t_ < 34);
    const bool pop = (t_ >= 20 && t_ < 23) || (t_ >= 30 && t_ < 34);
    wr_en.write(push);
    rd_en.write(pop);
    wr_data.write(static_cast<Word>(0x40 + t_));
  }
  void on_clock() override { ++t_; }
  void on_reset() override { t_ = 0; }
};

TEST(SeqStateParity, FifoStandalone) {
  expect_device_parity<FifoParityTb>("seq_fifo", 60);
}

/// LIFO through push, pop, replace-top (pop+push) and idle windows.
struct LifoParityTb : Module {
  Bit wr_en{*this, "wr_en"}, rd_en{*this, "rd_en"};
  Bit empty{*this, "empty"}, full{*this, "full"};
  Bus wr_data{*this, "wr_data", 8}, rd_data{*this, "rd_data", 8};
  Bus level{*this, "level", 16};
  devices::LifoCore lifo;
  int t_ = 0;

  LifoParityTb()
      : Module(nullptr, "tb"),
        lifo(this, "lifo", {.width = 8, .depth = 8},
             devices::LifoPorts{wr_en, wr_data, rd_en, rd_data, empty,
                                full, level}) {}

  void eval_comb() override {
    const bool push =
        (t_ >= 3 && t_ < 7) || t_ == 20 || (t_ >= 40 && t_ < 42);
    const bool pop = t_ == 20 || (t_ >= 25 && t_ < 29);  // 20: replace-top
    wr_en.write(push);
    rd_en.write(pop);
    wr_data.write(static_cast<Word>(0x70 + t_));
  }
  void on_clock() override { ++t_; }
  void on_reset() override { t_ = 0; }
};

TEST(SeqStateParity, LifoStandalone) {
  expect_device_parity<LifoParityTb>("seq_lifo", 60);
}

/// Dual-port block RAM: port A writes then reads back, port B shadows,
/// long idle tail.
struct BramParityTb : Module {
  Bit a_en{*this, "a_en"}, a_we{*this, "a_we"}, b_en{*this, "b_en"};
  Bus a_addr{*this, "a_addr", 4}, a_wdata{*this, "a_wdata", 8};
  Bus a_rdata{*this, "a_rdata", 8};
  Bus b_addr{*this, "b_addr", 4}, b_rdata{*this, "b_rdata", 8};
  devices::BlockRam ram;
  int t_ = 0;

  BramParityTb()
      : Module(nullptr, "tb"),
        ram(this, "ram", {.data_width = 8, .depth = 16},
            devices::BramPorts{a_en, a_we, a_addr, a_wdata, a_rdata,
                               b_en, b_addr, b_rdata}) {}

  void eval_comb() override {
    const bool wr = t_ >= 2 && t_ < 10;   // write 8 cells
    const bool rd = t_ >= 14 && t_ < 22;  // read them back
    a_en.write(wr || rd);
    a_we.write(wr);
    a_addr.write(static_cast<Word>(t_ % 8));
    a_wdata.write(static_cast<Word>(0x90 + t_));
    b_en.write(rd);
    b_addr.write(static_cast<Word>((t_ + 1) % 8));
  }
  void on_clock() override { ++t_; }
  void on_reset() override { t_ = 0; }
};

TEST(SeqStateParity, BramStandalone) {
  expect_device_parity<BramParityTb>("seq_bram", 40);
}

/// External SRAM behind its req/ack handshake: four writes then four
/// reads, each held until acknowledged, with gaps and an idle tail.
struct SramParityTb : Module {
  Bit req{*this, "req"}, we{*this, "we"}, ack{*this, "ack"};
  Bus addr{*this, "addr", 8}, wdata{*this, "wdata", 8};
  Bus rdata{*this, "rdata", 8};
  devices::ExternalSram sram;
  int idx_ = 0;     // completed operations
  bool active_ = false;
  int gap_ = 0;     // idle cycles before the next request

  SramParityTb()
      : Module(nullptr, "tb"),
        sram(this, "sram", {.data_width = 8, .addr_width = 8, .latency = 2},
             devices::SramPorts{req, we, addr, wdata, ack, rdata}) {}

  void eval_comb() override {
    req.write(active_);
    we.write(idx_ < 4);  // ops 0..3 write, 4..7 read back
    addr.write(static_cast<Word>(idx_ % 4));
    wdata.write(static_cast<Word>(0x20 + idx_));
  }
  void on_clock() override {
    if (active_) {
      if (ack.read()) {
        active_ = false;
        ++idx_;
        gap_ = 2;
      }
    } else if (gap_ > 0) {
      --gap_;
    } else if (idx_ < 8) {
      active_ = true;
    }
  }
  void on_reset() override {
    idx_ = 0;
    active_ = false;
    gap_ = 1;
  }
};

TEST(SeqStateParity, SramStandalone) {
  expect_device_parity<SramParityTb>("seq_sram", 80);
}

/// Two scripted masters contending for one SRAM through the arbiter
/// (round-robin), then both going quiet.
struct ArbiterParityTb : Module {
  // Master wires (m0, m1) and the slave side toward the SRAM.
  Bit m0_req{*this, "m0_req"}, m0_we{*this, "m0_we"}, m0_ack{*this, "m0_ack"};
  Bus m0_addr{*this, "m0_addr", 8}, m0_wdata{*this, "m0_wdata", 8};
  Bus m0_rdata{*this, "m0_rdata", 8};
  Bit m1_req{*this, "m1_req"}, m1_we{*this, "m1_we"}, m1_ack{*this, "m1_ack"};
  Bus m1_addr{*this, "m1_addr", 8}, m1_wdata{*this, "m1_wdata", 8};
  Bus m1_rdata{*this, "m1_rdata", 8};
  Bit s_req{*this, "s_req"}, s_we{*this, "s_we"}, s_ack{*this, "s_ack"};
  Bus s_addr{*this, "s_addr", 8}, s_wdata{*this, "s_wdata", 8};
  Bus s_rdata{*this, "s_rdata", 8};
  devices::SramArbiter arb;
  devices::ExternalSram sram;
  int done0_ = 0, done1_ = 0;  // completed ops per master

  ArbiterParityTb()
      : Module(nullptr, "tb"),
        arb(this, "arb", devices::ArbPolicy::RoundRobin,
            {ArbMasterPorts{&m0_req, &m0_we, &m0_addr, &m0_wdata, &m0_ack,
                            &m0_rdata},
             ArbMasterPorts{&m1_req, &m1_we, &m1_addr, &m1_wdata, &m1_ack,
                            &m1_rdata}},
            ArbSlavePorts{&s_req, &s_we, &s_addr, &s_wdata, &s_ack,
                          &s_rdata}),
        sram(this, "sram", {.data_width = 8, .addr_width = 8},
             devices::SramPorts{s_req, s_we, s_addr, s_wdata, s_ack,
                                s_rdata}) {}

  void eval_comb() override {
    // Each master holds req while it still has operations; the arbiter
    // serialises them one op per grant.
    m0_req.write(done0_ < 5);
    m0_we.write(true);
    m0_addr.write(static_cast<Word>(done0_));
    m0_wdata.write(static_cast<Word>(0x10 + done0_));
    m1_req.write(done1_ < 5);
    m1_we.write(done1_ < 3);  // last two ops read back
    m1_addr.write(static_cast<Word>(0x40 + (done1_ % 3)));
    m1_wdata.write(static_cast<Word>(0x50 + done1_));
  }
  void on_clock() override {
    if (m0_ack.read()) ++done0_;
    if (m1_ack.read()) ++done1_;
  }
  void on_reset() override { done0_ = done1_ = 0; }
};

TEST(SeqStateParity, ArbiterSharedSram) {
  expect_device_parity<ArbiterParityTb>("seq_arbiter", 80);
}

/// 3-line buffer fed a raster (with start-of-frame), columns popped as
/// they appear, then the write side stops (idle between bursts).
struct LineBufferParityTb : Module {
  Bit wr_en{*this, "wr_en"}, sof{*this, "sof"}, wr_ready{*this, "wr_ready"};
  Bit rd_en{*this, "rd_en"}, col_valid{*this, "col_valid"};
  Bus wr_data{*this, "wr_data", 8}, col_data{*this, "col_data", 24};
  devices::LineBuffer3 lb;
  static constexpr int kW = 6, kRows = 5;
  int t_ = 0;

  LineBufferParityTb()
      : Module(nullptr, "tb"),
        lb(this, "lb",
           {.pixel_width = 8, .line_width = kW, .col_fifo_depth = 4},
           devices::LineBuffer3Ports{wr_en, wr_data, sof, wr_ready, rd_en,
                                     col_data, col_valid}) {}

  void eval_comb() override {
    const bool feeding = t_ < kW * kRows;
    wr_en.write(feeding);
    sof.write(t_ == 0);
    wr_data.write(static_cast<Word>((7 * t_ + 3) & 0xFF));
    rd_en.write(col_valid.read());  // consume columns as they appear
  }
  void on_clock() override { ++t_; }
  void on_reset() override { t_ = 0; }
};

TEST(SeqStateParity, LineBufferStandalone) {
  expect_device_parity<LineBufferParityTb>("seq_linebuffer", 60);
}

// ------------------------------------------------------------------
// Sequential-state protocol semantics
// ------------------------------------------------------------------

/// Hidden internal state, NOT declared: eval_comb() mirrors a counter
/// on_clock() mutates behind the signal graph's back.
struct OpaqueHiddenState : Module {
  Bus mirror{*this, "mirror", 16};
  int hidden_ = 0;

  OpaqueHiddenState() : Module(nullptr, "opaque") {}
  void eval_comb() override {
    mirror.write(static_cast<Word>(hidden_));
  }
  void on_clock() override { hidden_ += 3; }
  void on_reset() override { hidden_ = 0; }
};

TEST(SeqStateProtocol, OpaqueModuleStaysConservative) {
  OpaqueHiddenState top;
  Simulator sim(top);
  sim.reset();
  sim.step(5);
  // The conservative fallback re-evaluates the module after every edge,
  // so the hidden mutation is always observed...
  EXPECT_EQ(top.mirror.read(), 15u);
  // ...and no post-edge skip may ever happen in an all-opaque design.
  EXPECT_EQ(sim.stats().seq_skips, 0u);
}

/// The same hidden state, but *declared* and reported via seq_touch().
struct DeclaredHiddenState : Module {
  Bus mirror{*this, "mirror", 16};
  int hidden_ = 0;
  int active_edges_ = 6;  // mutate on the first 6 edges, then idle

  DeclaredHiddenState() : Module(nullptr, "declared") {}
  void eval_comb() override {
    mirror.write(static_cast<Word>(hidden_));
  }
  void on_clock() override {
    if (active_edges_ > 0) {
      --active_edges_;
      hidden_ += 3;
      seq_touch();
    }
  }
  void on_reset() override {
    hidden_ = 0;
    active_edges_ = 6;
  }
  void declare_state() override { declare_seq_state(); }
};

TEST(SeqStateProtocol, DeclaredModuleSkipsWhenSequentiallyIdle) {
  DeclaredHiddenState top;
  Simulator sim(top);
  sim.reset();
  sim.step(6);
  EXPECT_EQ(top.mirror.read(), 18u);
  const auto active = sim.stats();
  sim.step(10);  // sequential-idle: on_clock() runs but touches nothing
  EXPECT_EQ(top.mirror.read(), 18u);
  EXPECT_EQ(sim.stats().evals, active.evals)
      << "idle edges must not re-evaluate a declared module";
  EXPECT_EQ(sim.stats().seq_skips, active.seq_skips + 10);
  EXPECT_EQ(sim.stats().seq_touches, 6u);
}

/// A declared register signal: on_clock() writes only through it, so no
/// seq_touch() is needed and the fanout machinery carries the change.
struct DeclaredCounter : Counter {
  DeclaredCounter(Module* parent, std::string name, int width, Word max)
      : Counter(parent, std::move(name), width, max) {}
  void declare_state() override { register_seq(value); }
};

TEST(SeqStateProtocol, RegisteredSignalPropagatesThroughFanout) {
  for (const bool full_sweep : {false, true}) {
    DeclaredCounter top(nullptr, "cnt", 8, 4);
    Simulator sim(top, {.full_sweep = full_sweep});
    sim.reset();
    for (int i = 1; i <= 4; ++i) {
      sim.step();
      EXPECT_EQ(top.value.read(), static_cast<Word>(i));
      EXPECT_EQ(top.at_max.read(), i == 4);
    }
    sim.step();  // wraps to 0
    EXPECT_EQ(top.value.read(), 0u);
    EXPECT_FALSE(top.at_max.read());
  }
}

/// A module that *lies*: declares state but writes an unregistered
/// signal from on_clock().
struct LyingModule : Module {
  Bus out{*this, "out", 8};

  LyingModule() : Module(nullptr, "liar") {}
  void on_clock() override { out.write(out.read() + 1); }
  void declare_state() override { declare_seq_state(); }  // out missing
};

TEST(SeqStateProtocol, ContractViolationRaises) {
  LyingModule top;
  Simulator sim(top);  // check_seq_contract defaults to on
  sim.reset();
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(SeqStateProtocol, ContractCheckCanBeDisabled) {
  LyingModule top;
  Simulator sim(top, {.check_seq_contract = false});
  sim.reset();
  // Still *correct* (the write reaches the pending list like any other);
  // the check only enforces that declarations stay complete.
  sim.step(3);
  EXPECT_EQ(top.out.read(), 3u);
}

TEST(SeqStateProtocol, DesignsAreFullyDeclared) {
  // Every module of every shipped design declares its sequential state:
  // the conservative opaque sweep never fires.
  const std::pair<std::string, Factory> designs[] = {
      {"saa2vga_pattern",
       [] {
         return designs::make_saa2vga_pattern(
             {.width = 16, .height = 12, .buffer_depth = 64, .frames = 1});
       }},
      {"blur_pattern",
       [] {
         return designs::make_blur_pattern(
             {.width = 16, .height = 12, .frames = 1});
       }},
  };
  for (const auto& [label, make] : designs) {
    auto d = make();
    Simulator sim(*d);
    d->visit([&](const rtl::Module& m) {
      EXPECT_FALSE(m.opaque_state())
          << label << ": module '" << m.full_name()
          << "' has no sequential-state declaration";
    });
    sim.reset();
    EXPECT_TRUE(sim.run([&] { return d->finished(); }, kMaxCycles).ok())
        << label << ": " << sim.progress_report();
    EXPECT_GT(sim.stats().seq_skips, 0u) << label;
  }
}

}  // namespace
}  // namespace hwpat
