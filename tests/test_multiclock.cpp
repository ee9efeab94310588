// Tests of the multi-clock-domain subsystem: the tick-ordered edge
// scheduler and per-domain activation lists, the dual-clock async FIFO
// (CDC) device across a sweep of clock ratios, the dual-clock saa2vga
// design, and the multi-domain diagnostics — each differentially
// against the full-sweep reference kernel where waveforms are involved.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "designs/design.hpp"
#include "designs/saa2vga_triclk.hpp"
#include "devices/async_fifo.hpp"
#include "hdl/emit.hpp"
#include "meta/codegen.hpp"
#include "rtl/clock.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using rtl::Bit;
using rtl::Bus;
using rtl::ClockDomain;
using rtl::Module;
using rtl::Simulator;

constexpr std::uint64_t kMaxCycles = 2'000'000;

using tb::slurp_and_remove;

// ------------------------------------------------------------------
// ClockDomain / Options validation at elaboration
// ------------------------------------------------------------------

TEST(ClockDomainValidation, RejectsNonPositivePeriod) {
  EXPECT_THROW(ClockDomain("bad", 0), Error);
  EXPECT_THROW(ClockDomain("bad", -3), Error);
}

TEST(ClockDomainValidation, RejectsNegativePhase) {
  EXPECT_THROW(ClockDomain("bad", 2, -1), Error);
}

TEST(ClockDomainValidation, RejectsPhaseAtOrBeyondPeriod) {
  // phase k*period + r is the same edge train as phase r: insisting on
  // the canonical spelling keeps a phase readable as a sub-period
  // offset (and progress_report() diagnostics unambiguous).
  EXPECT_THROW(ClockDomain("bad", 2, 2), Error);
  EXPECT_THROW(ClockDomain("bad", 3, 7), Error);
  ClockDomain ok("ok", 3, 2);  // largest legal phase
  EXPECT_EQ(ok.phase(), 2u);
}


TEST(ClockDomainValidation, RejectsNonPositiveTickDuration) {
  struct Top : Module {
    Top() : Module(nullptr, "top") {}
  } top;
  EXPECT_THROW(Simulator(top, {.tick_ps = 0}), Error);
  EXPECT_THROW(Simulator(top, {.tick_ps = -5}), Error);
}

// ------------------------------------------------------------------
// Tick scheduler + activation lists
// ------------------------------------------------------------------

/// A register that counts its own on_clock() invocations — the direct
/// witness for "modules outside a domain are never visited on its
/// edges".
struct EdgeCounter : Module {
  Bus value{*this, "value", 16};
  int clock_calls = 0;

  EdgeCounter(Module* parent, std::string name)
      : Module(parent, std::move(name)) {}
  void on_clock() override {
    ++clock_calls;
    value.write(value.read() + 1);
  }
  void on_reset() override { clock_calls = 0; }
  void declare_state() override { register_seq(value); }
};

/// Two counters in domains of period 2 and 3 under a period-2 top.
struct TwoDomainTop : Module {
  ClockDomain a{"a", 2};
  ClockDomain b{"b", 3};
  EdgeCounter ca{this, "ca"};
  EdgeCounter cb{this, "cb"};

  TwoDomainTop() : Module(nullptr, "top") {
    set_clock_domain(&a);  // top + ca inherit a
    cb.set_clock_domain(&b);
  }
  void declare_state() override { declare_seq_state(); }
};

TEST(TickScheduler, ActivationListsVisitOnlyTheFiringDomain) {
  for (const bool full_sweep : {false, true}) {
    TwoDomainTop top;
    Simulator sim(top, {.full_sweep = full_sweep});
    sim.reset();
    // Edges up to tick 12: a at 2,4,6,8,10,12 (6); b at 3,6,9,12 (4);
    // distinct ticks 2,3,4,6,8,9,10,12 = 8 edge events.
    while (sim.now() < 12) sim.step();
    EXPECT_EQ(sim.cycle(), 8u);
    EXPECT_EQ(top.ca.clock_calls, 6);
    EXPECT_EQ(top.cb.clock_calls, 4);
    EXPECT_EQ(top.ca.value.read(), 6u);
    EXPECT_EQ(top.cb.value.read(), 4u);
    EXPECT_EQ(sim.domain_count(), 2u);
    EXPECT_EQ(sim.domain_info(0).name, "a");
    EXPECT_EQ(sim.domain_info(1).name, "b");
    EXPECT_EQ(sim.domain_info(0).modules, 2u);  // top + ca
    EXPECT_EQ(sim.domain_info(1).modules, 1u);  // cb
    ASSERT_EQ(sim.stats().domain_edges.size(), 2u);
    EXPECT_EQ(sim.stats().domain_edges[0], 6u);
    EXPECT_EQ(sim.stats().domain_edges[1], 4u);
    EXPECT_EQ(sim.stats().edges, 10u);
    // Per a-edge 1 of 3 modules is outside the list, per b-edge 2 of 3.
    EXPECT_EQ(sim.stats().act_skips, 6u * 1 + 4u * 2);
  }
}

TEST(ClockDomainValidation, RejectsDomainAssignmentWhileBound) {
  // Domains are resolved once, at elaboration: reassigning under a
  // live simulator would desynchronize the activation lists and the
  // domain-affinity partitions.
  TwoDomainTop top;
  {
    Simulator sim(top);
    EXPECT_THROW(top.cb.set_clock_domain(&top.a), Error);
    EXPECT_THROW(top.set_clock_domain(nullptr), Error);
  }
  // Unbound again: reassignment is legal and takes effect.
  top.cb.set_clock_domain(&top.a);
  {
    Simulator sim2(top);
    EXPECT_EQ(sim2.domain_count(), 1u);
  }
  top.cb.set_clock_domain(&top.b);  // restore
}

TEST(TickScheduler, HeapOrdersManyCoprimeDomains) {
  // Five domains with pairwise-coprime-ish periods: the tick scheduler
  // must produce exactly the merged edge trains, in order, with ties
  // resolved as one event.  The reference sequence is computed the
  // slow way here, in the test.
  struct Top : Module {
    ClockDomain d2{"d2", 2}, d3{"d3", 3}, d5{"d5", 5}, d7{"d7", 7},
        d11{"d11", 11};
    EdgeCounter c2{this, "c2"}, c3{this, "c3"}, c5{this, "c5"},
        c7{this, "c7"}, c11{this, "c11"};
    Top() : Module(nullptr, "top") {
      set_clock_domain(&d2);
      c3.set_clock_domain(&d3);
      c5.set_clock_domain(&d5);
      c7.set_clock_domain(&d7);
      c11.set_clock_domain(&d11);
    }
    void declare_state() override { declare_seq_state(); }
  } top;
  Simulator sim(top);
  sim.reset();
  const std::uint64_t periods[] = {2, 3, 5, 7, 11};
  std::uint64_t expect_edges = 0;
  std::uint64_t last = 0;
  for (int ev = 0; ev < 200; ++ev) {
    // Reference: the next tick after `last` divisible by any period.
    std::uint64_t t = last + 1;
    for (;; ++t) {
      bool any = false;
      for (const std::uint64_t p : periods) any |= (t % p == 0);
      if (any) break;
    }
    for (const std::uint64_t p : periods) expect_edges += (t % p == 0);
    sim.step();
    ASSERT_EQ(sim.now(), t) << "event " << ev;
    last = t;
  }
  EXPECT_EQ(sim.stats().edges, expect_edges);
  EXPECT_EQ(top.c2.value.read(), last / 2);
  EXPECT_EQ(top.c3.value.read(), last / 3);
  EXPECT_EQ(top.c5.value.read(), last / 5);
  EXPECT_EQ(top.c7.value.read(), last / 7);
  EXPECT_EQ(top.c11.value.read(), last / 11);
}

TEST(TickScheduler, PhaseOffsetsShiftEdges) {
  TwoDomainTop top;
  top.a = ClockDomain("a", 2, 1);  // edges at 3, 5, 7, ...
  Simulator sim(top);
  sim.reset();
  sim.step();  // first event: b at tick 3?  a also at 3: simultaneous.
  EXPECT_EQ(sim.now(), 3u);
  EXPECT_EQ(top.ca.clock_calls, 1);
  EXPECT_EQ(top.cb.clock_calls, 1);
  sim.step();  // a at 5
  EXPECT_EQ(sim.now(), 5u);
  EXPECT_EQ(top.ca.clock_calls, 2);
  EXPECT_EQ(top.cb.clock_calls, 1);
}

TEST(TickScheduler, SingleDomainDegeneratesToOneEdgePerStep) {
  struct Top : Module {
    EdgeCounter c{this, "c"};
    Top() : Module(nullptr, "top") {}
    void declare_state() override { declare_seq_state(); }
  } top;
  Simulator sim(top);
  sim.reset();
  sim.step(5);
  EXPECT_EQ(sim.cycle(), 5u);
  EXPECT_EQ(sim.now(), 5u);  // default domain: period 1, phase 0
  EXPECT_EQ(sim.domain_count(), 1u);
  EXPECT_EQ(sim.domain_info(0).name, "clk");
  EXPECT_EQ(sim.stats().edges, 5u);
  EXPECT_EQ(sim.stats().act_skips, 0u);
  ASSERT_EQ(sim.stats().domain_edges.size(), 1u);
  EXPECT_EQ(sim.stats().domain_edges[0], 5u);
}

TEST(TickScheduler, RunTimeoutProgressReportsPerDomainEdges) {
  TwoDomainTop top;
  Simulator sim(top);
  sim.reset();
  const rtl::RunStatus st =
      sim.run([] { return false; }, 8);  // exactly to tick 12
  EXPECT_EQ(st.result, rtl::RunResult::Timeout);
  {
    const std::string msg = sim.progress_report();
    EXPECT_NE(msg.find("a=6 (period 2)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("b=4 (period 3)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cycle 8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tick 12"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------------------
// VCD timescale
// ------------------------------------------------------------------

TEST(VcdTimescale, DerivedFromTickDurationSpecLegally) {
  // IEEE 1364 allows only 1, 10 or 100 of a unit in $timescale: the
  // writer must pick the largest legal quantum and scale timestamps by
  // the remainder, keeping the trace time-correct for any tick.
  struct Top : Module {
    Bus x{*this, "x", 8};
    Top() : Module(nullptr, "top") {}
    void on_clock() override { x.write(x.read() + 1); }
    void declare_state() override { register_seq(x); }
  };
  const struct {
    std::int64_t tick_ps;
    const char* expect;
    const char* stamp2;  ///< timestamp of the 2nd step's sample
  } cases[] = {{1000, "$timescale 1ns $end", "#2"},
               {40'000, "$timescale 10ns $end", "#8"},
               {1'000'000, "$timescale 1us $end", "#2"},
               {500, "$timescale 100ps $end", "#10"},
               {30'000'000, "$timescale 10us $end", "#6"}};
  for (const auto& c : cases) {
    Top top;
    {
      Simulator sim(top, {.tick_ps = c.tick_ps});
      sim.open_vcd("ts_test.vcd");
      sim.reset();
      sim.step(2);
    }  // destroying the simulator flushes the VCD stream
    const std::string vcd = slurp_and_remove("ts_test.vcd");
    EXPECT_NE(vcd.find(c.expect), std::string::npos)
        << "tick_ps=" << c.tick_ps << "\n" << vcd;
    EXPECT_NE(vcd.find(std::string(c.stamp2) + "\n"), std::string::npos)
        << "tick_ps=" << c.tick_ps << ": scaled timestamp missing\n"
        << vcd;
  }
}

// ------------------------------------------------------------------
// Async FIFO: clock-ratio sweep, no loss/duplication, kernel parity
// ------------------------------------------------------------------

/// Deterministic producer/consumer pair around one AsyncFifo.  The
/// producer (write domain) pushes a known sequence with irregular gaps;
/// the consumer (read domain) pops with its own stall pattern.  Both
/// respect the conservative full/empty flags, so the transfer must be
/// lossless at any clock ratio.
struct CdcTb : Module {
  static constexpr int kCount = 200;

  ClockDomain wr_dom;
  ClockDomain rd_dom;
  Bit wr_en{*this, "wr_en"}, rd_en{*this, "rd_en"};
  Bit full{*this, "full"}, empty{*this, "empty"};
  Bus wr_data{*this, "wr_data", 8}, rd_data{*this, "rd_data", 8};
  devices::AsyncFifo fifo;

  struct Producer : Module {
    CdcTb& tb;
    int sent = 0, t = 0;
    explicit Producer(CdcTb* parent)
        : Module(parent, "producer"), tb(*parent) {}
    void eval_comb() override {
      const bool want = sent < kCount && (t % 5) != 3;  // irregular gaps
      tb.wr_en.write(want && !tb.full.read());
      tb.wr_data.write(static_cast<Word>((0x30 + sent * 7) & 0xFF));
    }
    void on_clock() override {
      ++t;
      if (tb.wr_en.read()) ++sent;
      seq_touch();
    }
    void on_reset() override { sent = t = 0; }
    void declare_state() override { declare_seq_state(); }
  } producer{this};

  struct Consumer : Module {
    CdcTb& tb;
    std::vector<Word> got;
    int t = 0;
    explicit Consumer(CdcTb* parent)
        : Module(parent, "consumer"), tb(*parent) {}
    void eval_comb() override {
      tb.rd_en.write(!tb.empty.read() && (t % 7) != 5);  // stall pattern
    }
    void on_clock() override {
      ++t;
      if (tb.rd_en.read()) got.push_back(tb.rd_data.read());
      seq_touch();
    }
    void on_reset() override {
      t = 0;
      got.clear();
    }
    void declare_state() override { declare_seq_state(); }
  } consumer{this};

  CdcTb(std::int64_t wr_period, std::int64_t rd_period)
      : Module(nullptr, "cdc_tb"),
        wr_dom("wr", wr_period),
        rd_dom("rd", rd_period),
        fifo(this, "fifo", {.width = 8, .depth = 8},
             devices::AsyncFifoPorts{wr_en, wr_data, full, rd_en, rd_data,
                                     empty},
             &wr_dom, &rd_dom) {
    set_clock_domain(&rd_dom);  // comb-only top; any domain works
    producer.set_clock_domain(&wr_dom);
    consumer.set_clock_domain(&rd_dom);
  }
  void declare_state() override { declare_seq_state(); }
};

void expect_cdc_lossless(std::int64_t wr_period, std::int64_t rd_period) {
  const std::string label = "cdc_" + std::to_string(wr_period) + "to" +
                            std::to_string(rd_period);
  struct Out {
    std::vector<Word> got;
    std::string vcd;
    Simulator::Stats stats;
  };
  auto run = [&](bool full_sweep) {
    CdcTb tb(wr_period, rd_period);
    const std::string path = label + (full_sweep ? "_ref.vcd" : "_evt.vcd");
    Out out;
    {
      Simulator sim(tb, {.full_sweep = full_sweep});
      sim.open_vcd(path);
      sim.reset();
      EXPECT_TRUE(sim.run(
                         [&] {
                           return tb.consumer.got.size() ==
                                  static_cast<std::size_t>(CdcTb::kCount);
                         },
                         kMaxCycles)
                      .ok())
          << label << ": " << sim.progress_report();
      EXPECT_EQ(tb.fifo.size(), 0) << label;
      out.stats = sim.stats();
    }  // destroying the simulator flushes the VCD stream
    out.got = tb.consumer.got;
    out.vcd = slurp_and_remove(path);
    return out;
  };
  const Out evt = run(false);
  const Out ref = run(true);

  // No loss, no duplication, no reordering: the exact sent sequence.
  ASSERT_EQ(evt.got.size(), static_cast<std::size_t>(CdcTb::kCount))
      << label;
  for (int i = 0; i < CdcTb::kCount; ++i)
    ASSERT_EQ(evt.got[static_cast<std::size_t>(i)],
              static_cast<Word>((0x30 + i * 7) & 0xFF))
        << label << ": element " << i;
  EXPECT_EQ(evt.got, ref.got) << label;
  EXPECT_EQ(evt.vcd, ref.vcd) << label << ": VCD traces differ";
  EXPECT_LT(evt.stats.evals, ref.stats.evals) << label;
  EXPECT_EQ(evt.stats.edges, ref.stats.edges) << label;
  EXPECT_EQ(evt.stats.domain_edges, ref.stats.domain_edges) << label;
}

TEST(AsyncFifoCdc, LosslessRatio1to1) { expect_cdc_lossless(1, 1); }
TEST(AsyncFifoCdc, LosslessRatio1to3) { expect_cdc_lossless(1, 3); }
TEST(AsyncFifoCdc, LosslessRatio3to1) { expect_cdc_lossless(3, 1); }
TEST(AsyncFifoCdc, LosslessCoprimeRatio3to7) { expect_cdc_lossless(3, 7); }

TEST(AsyncFifoCdc, FlagLatencyIsConservative) {
  // After one push, empty must stay high on the read side until the
  // write pointer has crossed the 2-flop synchronizer — and never show
  // data early.
  CdcTb tb(1, 1);
  Simulator sim(tb);
  sim.reset();
  EXPECT_TRUE(tb.empty.read());
  EXPECT_FALSE(tb.full.read());
  sim.step();  // first push lands at this edge
  EXPECT_TRUE(tb.empty.read()) << "one sync flop: still hidden";
  sim.step();
  EXPECT_TRUE(tb.empty.read()) << "two sync flops: still hidden";
  sim.step();
  EXPECT_FALSE(tb.empty.read()) << "pointer crossed: data visible";
}

TEST(AsyncFifoCdc, StrictModeRaisesOnMisuse) {
  struct RawTb : Module {
    Bit wr_en{*this, "wr_en"}, rd_en{*this, "rd_en"};
    Bit full{*this, "full"}, empty{*this, "empty"};
    Bus wr_data{*this, "wr_data", 8}, rd_data{*this, "rd_data", 8};
    devices::AsyncFifo fifo;
    RawTb()
        : Module(nullptr, "raw_tb"),
          fifo(this, "fifo", {.width = 8, .depth = 2},
               devices::AsyncFifoPorts{wr_en, wr_data, full, rd_en,
                                       rd_data, empty}) {}
    void declare_state() override { declare_seq_state(); }
  };
  {
    RawTb tb;
    Simulator sim(tb);
    sim.reset();
    tb.rd_en.write(true);  // read while empty
    sim.settle();
    EXPECT_THROW(sim.step(), ProtocolError);
  }
  {
    RawTb tb;
    Simulator sim(tb);
    sim.reset();
    tb.wr_en.write(true);  // push until over depth: write while full
    sim.settle();
    EXPECT_THROW(sim.step(8), ProtocolError);
  }
}

// ------------------------------------------------------------------
// Dual-clock saa2vga design
// ------------------------------------------------------------------

void expect_dualclk_design(std::int64_t pix_period,
                           std::int64_t mem_period) {
  const std::string label = "dualclk_" + std::to_string(pix_period) +
                            "to" + std::to_string(mem_period);
  const designs::Saa2VgaDualClkConfig cfg{.width = 16, .height = 12,
                                          .cdc_depth = 8, .frames = 2,
                                          .pix_period = pix_period,
                                          .mem_period = mem_period};
  struct Out {
    std::uint64_t cycles = 0;
    std::vector<video::Frame> frames;
    std::string vcd;
    Simulator::Stats stats;
  };
  auto run = [&](bool full_sweep) {
    auto d = designs::make_saa2vga_dualclk(cfg);
    const std::string path = label + (full_sweep ? "_ref.vcd" : "_evt.vcd");
    Out out;
    {
      Simulator sim(*d, {.full_sweep = full_sweep});
      sim.open_vcd(path);
      sim.reset();
      EXPECT_TRUE(sim.run([&] { return d->finished(); }, kMaxCycles).ok())
          << label << ": " << sim.progress_report();
      out.cycles = sim.cycle();
      out.stats = sim.stats();
    }  // destroying the simulator flushes the VCD stream
    out.frames = d->sink().frames();
    out.vcd = slurp_and_remove(path);
    return out;
  };
  const Out evt = run(false);
  const Out ref = run(true);

  // Zero data loss at this clock ratio: the transported frames are
  // pixel-exact copies of the camera input.
  const auto input = designs::camera_frames(cfg.width, cfg.height,
                                            cfg.frames, cfg.pattern_seed);
  EXPECT_EQ(evt.frames, input) << label;
  // Kernel parity, as for every single-clock design.
  EXPECT_EQ(evt.cycles, ref.cycles) << label;
  EXPECT_EQ(evt.frames, ref.frames) << label;
  EXPECT_EQ(evt.vcd, ref.vcd) << label << ": VCD traces differ";
  EXPECT_LT(evt.stats.evals, ref.stats.evals) << label;
  EXPECT_EQ(evt.stats.domain_edges, ref.stats.domain_edges) << label;
  // The activation lists must actually shrink per-edge on_clock work.
  EXPECT_GT(evt.stats.act_skips, 0u) << label;
  EXPECT_GT(evt.stats.seq_skips, 0u) << label;
}

TEST(DualClkDesign, PixelEqualsMemoryClock) { expect_dualclk_design(1, 1); }
TEST(DualClkDesign, MemoryThreeTimesFaster) { expect_dualclk_design(3, 1); }
TEST(DualClkDesign, PixelThreeTimesFaster) { expect_dualclk_design(1, 3); }
TEST(DualClkDesign, CoprimeRatio) { expect_dualclk_design(3, 7); }

// ------------------------------------------------------------------
// Domain affinity and quiet domains
// ------------------------------------------------------------------

TEST(SettlePartitions, ModuleAndSignalAffinityResolvedAtElaboration) {
  TwoDomainTop top;
  EXPECT_EQ(top.partition(), -1);  // unbound: no affinity
  {
    Simulator sim(top);
    // Partitions are indexed like domain_info(): a == 0, b == 1.
    EXPECT_EQ(top.partition(), 0);
    EXPECT_EQ(top.ca.partition(), 0);
    EXPECT_EQ(top.cb.partition(), 1);
    // A declared register signal carries its *writer's* partition.
    EXPECT_EQ(top.ca.value.partition(), 0);
    EXPECT_EQ(top.cb.value.partition(), 1);
  }
  // Unbinding clears the affinity, like the dense ids.
  EXPECT_EQ(top.partition(), -1);
  EXPECT_EQ(top.cb.value.partition(), -1);
}

/// Comb logic hanging off an EdgeCounter — gives each domain something
/// to actually settle.
struct CombFollower : Module {
  Bus out{*this, "out", 16};
  const Bus& in;
  CombFollower(Module* parent, std::string name, const Bus& i)
      : Module(parent, std::move(name)), in(i) {}
  void eval_comb() override { out.write(in.read() + 1); }
  void declare_state() override { declare_seq_state(); }
};

TEST(SettlePartitions, QuietDomainIsNotSettled) {
  // Two independent counter+follower pairs in domains of period 2 and
  // 3: an edge of one domain must never evaluate the other's modules.
  struct Top : Module {
    ClockDomain a{"a", 2};
    ClockDomain b{"b", 3};
    EdgeCounter ca{this, "ca"};
    EdgeCounter cb{this, "cb"};
    CombFollower fa{this, "fa", ca.value};
    CombFollower fb{this, "fb", cb.value};
    Top() : Module(nullptr, "top") {
      set_clock_domain(&a);
      cb.set_clock_domain(&b);
      fb.set_clock_domain(&b);
    }
    void declare_state() override { declare_seq_state(); }
  } top;
  Simulator sim(top);
  sim.reset();
  sim.reset_stats();
  while (sim.now() < 12) sim.step();  // 8 events at ticks 2,3,4,6,8,9,10,12
  const auto& st = sim.stats();
  ASSERT_EQ(st.steps, 8u);
  // A post-edge settle evaluates exactly the firing domains' followers:
  // four a-only events, two b-only events and two simultaneous ones,
  // one delta each.  Every pre-edge settle is quiet.
  EXPECT_EQ(st.evals, 4 * 1 + 2 * 1 + 2 * 2u);
  EXPECT_EQ(st.deltas, 8u);
  EXPECT_EQ(st.partition_settles, 8u);
  EXPECT_EQ(st.partition_skips, 8u);
  EXPECT_EQ(top.ca.value.read(), 6u);
  EXPECT_EQ(top.cb.value.read(), 4u);
  EXPECT_EQ(top.fa.out.read(), 7u);
  EXPECT_EQ(top.fb.out.read(), 5u);
}

TEST(SettlePartitions, FullSweepKeepsPartitionCountersAtZero) {
  TwoDomainTop top;
  Simulator sim(top, {.full_sweep = true});
  sim.reset();
  sim.step(6);
  EXPECT_EQ(sim.stats().partition_settles, 0u);
  EXPECT_EQ(sim.stats().partition_skips, 0u);
}

TEST(SettlePartitions, CdcMarksAreExactlyTheGrayPointers) {
  // The async FIFO's gray pointers are the only signals declared as
  // clock-domain crossings (mark_cdc_cross) — nothing else in a shipped
  // CDC design is marked, and both pointers of every FIFO are.
  auto d = designs::make_saa2vga_triclk(
      {.width = 8, .height = 6, .cdc_depth = 8, .frames = 1});
  std::vector<std::string> marked;
  d->visit([&](const rtl::Module& m) {
    for (const rtl::SignalBase* s : m.signals()) {
      if (s->cdc_cross()) marked.push_back(s->full_name());
      // Conversely: every marked signal is a gray pointer.
      EXPECT_EQ(s->cdc_cross(),
                s->name() == "wptr_gray" || s->name() == "rptr_gray")
          << s->full_name();
    }
  });
  EXPECT_EQ(marked.size(), 4u);  // 2 FIFOs x 2 pointers
}

// ------------------------------------------------------------------
// Tri-clock saa2vga design (camera + memory + pixel)
// ------------------------------------------------------------------

void expect_triclk_design(const designs::Saa2VgaTriClkConfig& cfg,
                          const std::string& label) {
  struct Out {
    std::uint64_t cycles = 0;
    std::vector<video::Frame> frames;
    std::string vcd;
    Simulator::Stats stats;
  };
  auto run = [&](bool full_sweep) {
    auto d = designs::make_saa2vga_triclk(cfg);
    const std::string path = label + (full_sweep ? "_ref.vcd" : "_evt.vcd");
    Out out;
    {
      Simulator sim(*d, {.full_sweep = full_sweep});
      sim.open_vcd(path);
      sim.reset();
      // finished() flips on a pixel-clock edge (the vga collects the
      // last pixel strictly after the decoder and copy loop are done),
      // so the domain-filtered run() can skip the predicate on
      // cam/mem-only events.  Domain 0 is pix: the top inherits it.
      EXPECT_TRUE(
          sim.run([&] { return d->finished(); }, kMaxCycles, 0).ok())
          << sim.progress_report();
      out.cycles = sim.cycle();
      out.stats = sim.stats();
    }  // destroying the simulator flushes the VCD stream
    out.frames = d->sink().frames();
    out.vcd = slurp_and_remove(path);
    return out;
  };
  const Out evt = run(false);
  const Out ref = run(true);

  // Zero data loss through BOTH clock-domain crossings.
  const auto input = designs::camera_frames(cfg.width, cfg.height,
                                            cfg.frames, cfg.pattern_seed);
  EXPECT_EQ(evt.frames, input) << label;
  // Kernel parity, byte-exact.
  EXPECT_EQ(evt.cycles, ref.cycles) << label;
  EXPECT_EQ(evt.frames, ref.frames) << label;
  EXPECT_EQ(evt.vcd, ref.vcd) << label << ": VCD traces differ";
  EXPECT_LT(evt.stats.evals, ref.stats.evals) << label;
  EXPECT_EQ(evt.stats.domain_edges, ref.stats.domain_edges) << label;
  ASSERT_EQ(evt.stats.domain_edges.size(), 3u) << label;
  // Every skip the scheduler makes must be engaged: activation lists,
  // the sequential-state protocol and quiet settles.
  EXPECT_GT(evt.stats.act_skips, 0u) << label;
  EXPECT_GT(evt.stats.seq_skips, 0u) << label;
  EXPECT_GT(evt.stats.partition_settles, 0u) << label;
  EXPECT_GT(evt.stats.partition_skips, 0u) << label;
}

TEST(TriClkDesign, LosslessAtCoprimeThreeWayRatio) {
  expect_triclk_design({.width = 16, .height = 12, .cdc_depth = 8,
                        .frames = 2},
                       "triclk_5to2to3");  // default 5:2:3, coprime
}

TEST(TriClkDesign, LosslessWithAllClocksEqual) {
  expect_triclk_design({.width = 16, .height = 12, .cdc_depth = 8,
                        .frames = 2, .cam_period = 1, .mem_period = 1,
                        .pix_period = 1},
                       "triclk_1to1to1");
}

TEST(TriClkDesign, LosslessWithPhaseOffsets) {
  expect_triclk_design({.width = 16, .height = 12, .cdc_depth = 8,
                        .frames = 2, .cam_period = 4, .mem_period = 2,
                        .pix_period = 3, .cam_phase = 3, .mem_phase = 1,
                        .pix_phase = 2},
                       "triclk_phased");
}

TEST(TriClkDesign, FullyDeclaredThreeDomainsAndAffinity) {
  auto d = designs::make_saa2vga_triclk(
      {.width = 16, .height = 12, .cdc_depth = 8, .frames = 1});
  Simulator sim(*d);
  d->visit([&](const rtl::Module& m) {
    EXPECT_FALSE(m.opaque_state())
        << "module '" << m.full_name()
        << "' has no sequential-state declaration";
  });
  ASSERT_EQ(sim.domain_count(), 3u);
  EXPECT_EQ(sim.domain_info(0).name, "pix");
  EXPECT_EQ(sim.domain_info(1).name, "cam");
  EXPECT_EQ(sim.domain_info(2).name, "mem");
  // Stage-by-stage domain affinity: decoder on cam, copy loop on mem,
  // vga (and the top glue) on pix.
  d->visit([&](const rtl::Module& m) {
    if (m.name() == "decoder") {
      EXPECT_EQ(m.partition(), 1) << m.full_name();
    }
    if (m.name() == "copy") {
      EXPECT_EQ(m.partition(), 2) << m.full_name();
    }
    if (m.name() == "vga") {
      EXPECT_EQ(m.partition(), 0) << m.full_name();
    }
  });
  sim.reset();
  ASSERT_TRUE(sim.run([&] { return d->finished(); }, kMaxCycles).ok())
      << sim.progress_report();
  EXPECT_GT(sim.stats().seq_skips, 0u);
  EXPECT_GT(sim.stats().partition_skips, 0u);
}

TEST(TriClkDesign, RunTimeoutProgressReportsAllThreeDomainsWithPhases) {
  auto d = designs::make_saa2vga_triclk(
      {.width = 8, .height = 6, .cdc_depth = 8, .frames = 1,
       .cam_period = 5, .mem_period = 2, .pix_period = 3,
       .mem_phase = 1});
  Simulator sim(*d);
  sim.reset();
  const rtl::RunStatus st = sim.run([] { return false; }, 25);
  EXPECT_EQ(st.result, rtl::RunResult::Timeout);
  {
    const std::string msg = sim.progress_report();
    EXPECT_NE(msg.find("pix="), std::string::npos) << msg;
    EXPECT_NE(msg.find("cam="), std::string::npos) << msg;
    EXPECT_NE(msg.find("mem="), std::string::npos) << msg;
    EXPECT_NE(msg.find("(period 5)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("period 2, phase 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cycle 25"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------------------
// Tri-clock capture farm (lanes > 1)
// ------------------------------------------------------------------

TEST(TriClkFarm, LanesAreLosslessAndShareThreeDomains) {
  const designs::Saa2VgaTriClkConfig cfg{.width = 8, .height = 6,
                                         .cdc_depth = 8, .frames = 2,
                                         .lanes = 3};
  designs::Saa2VgaTriClk d(cfg);
  Simulator sim(d);
  // Replicating lanes adds NO domains: still exactly three, each
  // clocking three lanes' worth of modules.
  ASSERT_EQ(sim.domain_count(), 3u);
  sim.reset();
  ASSERT_TRUE(sim.run([&] { return d.finished(); }, kMaxCycles, 0).ok())
      << sim.progress_report();
  // Every lane is lossless and carries its own pattern (seed + lane):
  // a crossed wire between lanes would show up as the wrong content.
  for (int i = 0; i < cfg.lanes; ++i) {
    const auto input = designs::camera_frames(
        cfg.width, cfg.height, cfg.frames,
        cfg.pattern_seed + static_cast<unsigned>(i));
    EXPECT_EQ(d.lane_sink(i).frames(), input) << "lane " << i;
  }
  EXPECT_GT(sim.stats().partition_skips, 0u);
}

// ------------------------------------------------------------------
// Spec / codegen layer for the CDC device kind
// ------------------------------------------------------------------

TEST(AsyncFifoSpec, ValidationRules) {
  meta::ContainerSpec s;
  s.kind = core::ContainerKind::Queue;
  s.device = devices::DeviceKind::AsyncFifoCore;
  s.depth = 16;
  meta::validate(s);  // power-of-two depth, defaulted methods: fine
  // A defaulted method set silently drops size...
  for (meta::Method m : s.effective_methods())
    EXPECT_NE(m, meta::Method::Size);
  // ...but asking for it explicitly is an error, as are non-power-of-2
  // depths and width adaptation across the crossing.
  s.used_methods = {meta::Method::Size};
  EXPECT_THROW(meta::validate(s), SpecError);
  s.used_methods = {meta::Method::Push, meta::Method::Pop};
  s.depth = 12;
  EXPECT_THROW(meta::validate(s), SpecError);
  s.depth = 16;
  s.elem_bits = 24;
  s.bus_bits = 8;
  EXPECT_THROW(meta::validate(s), SpecError);
}

TEST(AsyncFifoSpec, CodegenEmitsTheDualClockCore) {
  // The generated unit carries the CDC machinery itself — gray-coded
  // pointer pairs with 2-flop synchronizers in clocked processes, one
  // per clock domain — rather than renaming the p_* ports of an
  // external macro.
  for (const bool read_side : {true, false}) {
    meta::ContainerSpec s;
    s.name = read_side ? "rbuffer" : "wbuffer";
    s.kind = read_side ? core::ContainerKind::ReadBuffer
                       : core::ContainerKind::WriteBuffer;
    s.device = devices::DeviceKind::AsyncFifoCore;
    s.depth = 16;
    const auto unit = meta::generate_container(s);
    EXPECT_EQ(unit.entity.name,
              std::string(read_side ? "rbuffer" : "wbuffer") +
                  "_async_fifo");
    // Per-domain clocks instead of a single global clk.
    EXPECT_EQ(unit.entity.find_port("clk"), nullptr);
    EXPECT_NE(unit.entity.find_port("wr_clk"), nullptr);
    EXPECT_NE(unit.entity.find_port("rd_clk"), nullptr);
    EXPECT_EQ(unit.entity.find_port("m_size"), nullptr);
    if (read_side) {
      // Platform feed in the write domain, user pop in the read domain.
      EXPECT_NE(unit.entity.find_port("p_write"), nullptr);
      EXPECT_NE(unit.entity.find_port("p_wdata"), nullptr);
      EXPECT_NE(unit.entity.find_port("empty"), nullptr);
      EXPECT_EQ(unit.entity.find_port("p_read"), nullptr);
    } else {
      // User push in the write domain, platform drain in the read one.
      EXPECT_NE(unit.entity.find_port("p_read"), nullptr);
      EXPECT_NE(unit.entity.find_port("p_data"), nullptr);
      EXPECT_NE(unit.entity.find_port("full"), nullptr);
      EXPECT_EQ(unit.entity.find_port("p_write"), nullptr);
    }
    const std::string v = meta::to_vhdl(unit);
    EXPECT_NE(v.find("entity " + unit.entity.name), std::string::npos);
    EXPECT_NE(v.find("wr_ptr : process (wr_clk, wr_rst)"),
              std::string::npos);
    EXPECT_NE(v.find("rd_ptr : process (rd_clk, rd_rst)"),
              std::string::npos);
    EXPECT_NE(v.find("sync_rptr"), std::string::npos);
    EXPECT_NE(v.find("sync_wptr"), std::string::npos);
    EXPECT_NE(v.find("end rtl;"), std::string::npos);
  }
}

TEST(DualClkDesign, FullyDeclaredAndTwoDomains) {
  auto d = designs::make_saa2vga_dualclk(
      {.width = 16, .height = 12, .cdc_depth = 8, .frames = 1});
  Simulator sim(*d);
  d->visit([&](const rtl::Module& m) {
    EXPECT_FALSE(m.opaque_state())
        << "module '" << m.full_name()
        << "' has no sequential-state declaration";
  });
  EXPECT_EQ(sim.domain_count(), 2u);
  EXPECT_EQ(sim.domain_info(0).name, "pix");
  EXPECT_EQ(sim.domain_info(1).name, "mem");
  sim.reset();
  ASSERT_TRUE(sim.run([&] { return d->finished(); }, kMaxCycles).ok())
      << sim.progress_report();
  EXPECT_GT(sim.stats().seq_skips, 0u);
}

}  // namespace
}  // namespace hwpat
