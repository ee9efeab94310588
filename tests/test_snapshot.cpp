// Crash-consistent checkpoint/restore with deterministic replay.
//
// These tests pin the Snapshot subsystem contract on a small hand-made
// multi-clock design:
//
//   * save -> restore -> save is bit-stable, including across
//     independently constructed simulator instances;
//   * a run restored from a snapshot replays byte-identically (values,
//     counters, VCD bytes) to the uninterrupted run;
//   * Simulator::reset() after a restore returns to construction-time
//     values — even internal module state that on_reset() deliberately
//     leaves alone — so reset-after-restore equals a fresh construct;
//   * corrupted blobs (truncated, bad magic, wrong version, topology
//     mismatch, a device, video-endpoint or SRAM-container scalar out
//     of range, a signal value or memory word its width cannot hold, a
//     next edge other than the domain's first after the tick) fail
//     loudly with actionable messages and never leave the simulator
//     half-restored;
//   * the construction baseline elides all-zero memories, blobs store
//     an SRAM's nonzero pages only (an SRAM-bound blob is pinned), a
//     version-1 blob still restores, and reset() still zeroes a used
//     memory and survives a failed restore that reshaped the sink's
//     frame;
//   * save/restore from inside a simulator callback is refused;
//   * the elaboration-time declare_comb_only() contract check rejects
//     comb-only modules with a sequential process;
//   * the fault-injection engine (Options::fault_plan) fires at each
//     event-loop point: check/edge faults abort transactionally and
//     the retried step continues as if nothing happened; settle/commit
//     faults leave a half-applied state that save_snapshot() refuses
//     and restore_snapshot()/reset() both recover from.
//
// The randomized cross-kernel half of this story lives in
// test_fuzz_kernel.cpp (SnapshotFaultRestoreReplaysByteIdentically).
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/stream_sram.hpp"
#include "designs/design.hpp"
#include "devices/fifo.hpp"
#include "devices/sram.hpp"
#include "rtl/clock.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using ::testing::HasSubstr;
using rtl::Bit;
using rtl::Bus;
using rtl::ClockDomain;
using rtl::Module;
using rtl::Simulator;

static_assert(std::is_base_of_v<Error, rtl::FaultInjected>,
              "FaultInjected must be catchable as Error");

/// Register counter: out <= out + 1 on every edge of its domain.
struct SnapCounter : Module {
  Bus& out;
  SnapCounter(Module* parent, std::string name, Bus& o)
      : Module(parent, std::move(name)), out(o) {}
  void on_clock() override { out.write(out.read() + 1); }
  void declare_state() override { register_seq(out); }
};

/// Internal C++ state in both flavors: `acc` is ordinary sequential
/// state (on_reset() clears it), `epoch` is construction-time state
/// that on_reset() deliberately leaves alone — the module that proves
/// reset-after-restore reloads the construction baseline instead of
/// trusting on_reset() alone.
struct Sticky : Module {
  Bus& out;
  const Bus& in;
  Word acc = 0;
  Word epoch = 1;
  Sticky(Module* parent, std::string name, Bus& o, const Bus& i)
      : Module(parent, std::move(name)), out(o), in(i) {}
  void eval_comb() override { out.write(acc ^ epoch); }
  void on_clock() override {
    acc += in.read();
    epoch = epoch * 3 + 1;
    seq_touch();
  }
  void on_reset() override { acc = 0; }  // epoch intentionally kept
  void declare_state() override { declare_seq_state(); }
  void save_state(rtl::StateWriter& w) const override {
    w.word(acc);
    w.word(epoch);
  }
  void load_state(rtl::StateReader& r) override {
    acc = r.word();
    epoch = r.word();
  }
};

/// Self-driving strict-FIFO traffic: enables gated on the flags, so
/// the strict device never throws — the FIFO's internal ring state
/// (head/count/storage) still churns every cycle.
struct SnapDriver : Module {
  const Bus& cnt;
  const Bit& full;
  const Bit& empty;
  Bit& wr_en;
  Bit& rd_en;
  Bus& wr_data;
  SnapDriver(Module* parent, std::string name, const Bus& c, const Bit& f,
             const Bit& e, Bit& we, Bit& re, Bus& wd)
      : Module(parent, std::move(name)),
        cnt(c),
        full(f),
        empty(e),
        wr_en(we),
        rd_en(re),
        wr_data(wd) {}
  void eval_comb() override {
    wr_en.write(!full.read() && (cnt.read() & 1) != 0);
    rd_en.write(!empty.read() && (cnt.read() & 2) != 0);
    wr_data.write(cnt.read() * 5 + 1);
  }
  void declare_state() override { declare_comb_only(); }
};

/// Two-domain top: a fast counter feeding a strict FIFO through a
/// gated driver, a Sticky accumulator, and a slow-domain counter.
/// `width` parameterizes the data path so two instances with different
/// widths elaborate to different topology hashes.
struct SnapTop : Module {
  ClockDomain fast{"fast", 1};
  ClockDomain slow{"slow", 3};

  Bus cnt{*this, "cnt", 12};
  Bus scnt{*this, "scnt", 12};
  Bus sticky_out{*this, "sticky_out", 12};
  Bit wr_en{*this, "wr_en"};
  Bit rd_en{*this, "rd_en"};
  Bit empty{*this, "empty"};
  Bit full{*this, "full"};
  Bus wr_data;
  Bus rd_data;
  Bus level{*this, "level", 8};

  SnapCounter fast_cnt{this, "fast_cnt", cnt};
  SnapCounter slow_cnt{this, "slow_cnt", scnt};
  Sticky sticky{this, "sticky", sticky_out, cnt};
  SnapDriver driver{this,  "driver", cnt,   full,
                    empty, wr_en,    rd_en, wr_data};
  devices::FifoCore fifo;

  explicit SnapTop(int width = 8, int depth = 4)
      : Module(nullptr, "snaptop"),
        wr_data(*this, "wr_data", width),
        rd_data(*this, "rd_data", width),
        fifo(this, "fifo", {.width = width, .depth = depth, .strict = true},
             {wr_en, wr_data, rd_en, rd_data, empty, full, level}) {
    set_clock_domain(&fast);
    slow_cnt.set_clock_domain(&slow);
  }
  void declare_state() override { declare_seq_state(); }
};

/// Externally visible end-state, minus the settle-effort counters
/// (an aborted-and-retried clock event legitimately re-settles, so
/// evals/settles are not part of the transactional guarantee).
struct Observed {
  std::uint64_t cycle = 0, tick = 0;
  std::uint64_t steps = 0, edges = 0, seq_touches = 0;
  std::vector<std::uint64_t> domain_edges;
  Word cnt = 0, scnt = 0, sticky_out = 0, rd_data = 0, level = 0;

  static Observed of(const Simulator& sim, const SnapTop& d) {
    const auto& s = sim.stats();
    return Observed{sim.cycle(),       sim.now(),
                    s.steps,           s.edges,
                    s.seq_touches,     s.domain_edges,
                    d.cnt.read(),      d.scnt.read(),
                    d.sticky_out.read(), d.rd_data.read(),
                    d.level.read()};
  }
  friend bool operator==(const Observed&, const Observed&) = default;
};

void run_steps(Simulator& sim, int n) {
  for (int i = 0; i < n; ++i) sim.step();
}

// ---------------------------------------------------------------------
// Round trip and replay
// ---------------------------------------------------------------------

TEST(Snapshot, RoundTripIsBitStable) {
  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 10);
  const rtl::Snapshot blob = sim.save_snapshot();
  EXPECT_FALSE(blob.empty());
  sim.restore_snapshot(blob);
  const rtl::Snapshot again = sim.save_snapshot();
  EXPECT_EQ(blob, again) << "save -> restore -> save must be bit-stable";
}

TEST(Snapshot, RestoredReplayMatchesUninterruptedRun) {
  // Uninterrupted reference, with the VCD covering the second half.
  SnapTop a;
  rtl::Snapshot blob;
  Observed want;
  std::string want_vcd;
  {
    Simulator sim(a, {});
    sim.reset();
    run_steps(sim, 7);
    blob = sim.save_snapshot();
    sim.open_vcd("snap_ref.vcd");
    run_steps(sim, 13);
    want = Observed::of(sim, a);
  }
  want_vcd = tb::slurp_and_remove("snap_ref.vcd");

  // A freshly constructed instance restores the blob — no reset, no
  // warm-up — and must replay the same second half byte for byte.
  SnapTop b;
  Observed got;
  {
    Simulator sim(b, {});
    sim.restore_snapshot(blob);
    const rtl::Snapshot again = sim.save_snapshot();
    EXPECT_EQ(blob, again) << "cross-instance restore must round-trip";
    sim.open_vcd("snap_rep.vcd");
    run_steps(sim, 13);
    got = Observed::of(sim, b);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(tb::slurp_and_remove("snap_rep.vcd"), want_vcd)
      << "replayed VCD bytes differ";
}

TEST(Snapshot, ResetAfterRestoreEqualsFreshConstruct) {
  // Fresh construct + reset: the canonical post-reset trajectory.
  SnapTop a;
  Observed want;
  {
    Simulator sim(a, {});
    sim.reset();
    sim.open_vcd("snap_fresh.vcd");
    run_steps(sim, 12);
    want = Observed::of(sim, a);
  }
  const std::string want_vcd = tb::slurp_and_remove("snap_fresh.vcd");

  // Run, snapshot, run further, restore, reset.  Sticky::epoch has
  // been mutated and restored to a mid-run value by then, and
  // on_reset() does not touch it — only the construction-state
  // baseline reload inside reset() can make this trajectory match.
  SnapTop b;
  Observed got;
  {
    Simulator sim(b, {});
    sim.reset();
    run_steps(sim, 9);
    const rtl::Snapshot blob = sim.save_snapshot();
    run_steps(sim, 5);
    sim.restore_snapshot(blob);
    sim.reset();
    sim.reset_stats();  // counters are cumulative across resets
    sim.open_vcd("snap_reset.vcd");
    run_steps(sim, 12);
    got = Observed::of(sim, b);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(tb::slurp_and_remove("snap_reset.vcd"), want_vcd)
      << "reset-after-restore VCD differs from fresh-construct VCD";
}

// ---------------------------------------------------------------------
// Corrupted blobs
// ---------------------------------------------------------------------

TEST(Snapshot, TruncatedBlobThrowsAndSimulatorStaysUsable) {
  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 5);
  const rtl::Snapshot blob = sim.save_snapshot();
  const auto& bytes = blob.bytes();
  ASSERT_GT(bytes.size(), 32u);

  // Header truncations fail before any mutation: the simulator state
  // is untouched and still serializes to the original blob.
  for (const std::size_t len : {std::size_t{0}, std::size_t{3},
                                std::size_t{7}, std::size_t{13}}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const rtl::Snapshot cut(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
    EXPECT_THROW(sim.restore_snapshot(cut), Error);
    EXPECT_EQ(sim.save_snapshot(), blob) << "failed restore mutated state";
  }

  // Body truncations are detected mid-restore: the simulator falls
  // back to construction state (and says so) instead of staying
  // half-restored — after which a valid restore works again.
  for (const std::size_t len : {bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const rtl::Snapshot cut(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
    try {
      sim.restore_snapshot(cut);
      FAIL() << "truncated blob must throw";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("truncated"));
      EXPECT_THAT(std::string(e.what()),
                  HasSubstr("reset to construction state"));
    }
    sim.restore_snapshot(blob);
    EXPECT_EQ(sim.save_snapshot(), blob);
  }
}

TEST(Snapshot, BadMagicAndVersionThrowBeforeMutation) {
  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 4);
  const rtl::Snapshot blob = sim.save_snapshot();

  auto corrupt = [&](std::size_t at, std::uint8_t v) {
    std::vector<std::uint8_t> b = blob.bytes();
    b[at] = v;
    return rtl::Snapshot(std::move(b));
  };

  try {
    sim.restore_snapshot(corrupt(0, 'X'));
    FAIL() << "bad magic must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()), HasSubstr("bad magic"));
  }
  try {
    sim.restore_snapshot(corrupt(4, 99));  // version byte
    FAIL() << "unknown version must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()),
                HasSubstr("unsupported snapshot version 99"));
  }
  try {
    sim.restore_snapshot(corrupt(6, 0xAB));  // inside the topology hash
    FAIL() << "hash corruption must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()), HasSubstr("topology hash mismatch"));
  }
  // All three fail in header validation: nothing was mutated.
  EXPECT_EQ(sim.save_snapshot(), blob);
}

TEST(Snapshot, TopologyMismatchRejectsDifferentlyParameterizedDesign) {
  SnapTop narrow(8);
  SnapTop wide(9);
  Simulator sim_n(narrow, {});
  Simulator sim_w(wide, {});
  EXPECT_NE(sim_n.topology_hash(), sim_w.topology_hash());

  sim_n.reset();
  run_steps(sim_n, 6);
  const rtl::Snapshot blob = sim_n.save_snapshot();

  sim_w.reset();
  try {
    sim_w.restore_snapshot(blob);
    FAIL() << "width mismatch must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()), HasSubstr("topology hash mismatch"));
    EXPECT_THAT(std::string(e.what()), HasSubstr("snaptop"));
  }
  // The mismatch is detected in the header: sim_w keeps running.
  run_steps(sim_w, 3);
  EXPECT_EQ(sim_w.cycle(), 3u);

  // Same parameterization hashes (and restores) identically.
  SnapTop narrow2(8);
  Simulator sim_n2(narrow2, {});
  EXPECT_EQ(sim_n.topology_hash(), sim_n2.topology_hash());
  sim_n2.restore_snapshot(blob);
  EXPECT_EQ(sim_n2.save_snapshot(), blob);
}

// ---------------------------------------------------------------------
// Mid-event refusal
// ---------------------------------------------------------------------

/// Attempts a snapshot operation from inside its own on_clock().
struct Saboteur : Module {
  Bus& out;
  Simulator* sim = nullptr;
  int mode = 0;  ///< 0 = behave, 1 = try save, 2 = try restore
  rtl::Snapshot blob;
  std::string caught;
  Saboteur(Module* parent, std::string name, Bus& o)
      : Module(parent, std::move(name)), out(o) {}
  void on_clock() override {
    out.write(out.read() + 1);
    if (sim == nullptr || mode == 0) return;
    try {
      if (mode == 1) {
        (void)sim->save_snapshot();
      } else {
        sim->restore_snapshot(blob);
      }
      caught = "no throw";
    } catch (const Error& e) {
      caught = e.what();
    }
    mode = 0;
  }
  void declare_state() override { register_seq(out); }
};

TEST(Snapshot, SaveAndRestoreAreRefusedMidEvent) {
  struct Top : Module {
    Bus out{*this, "out", 16};
    Saboteur sab{this, "sab", out};
    Top() : Module(nullptr, "midevent") {}
    void declare_state() override { declare_seq_state(); }
  } top;

  Simulator sim(top, {});
  sim.reset();
  sim.step();
  top.sab.sim = &sim;
  top.sab.blob = sim.save_snapshot();

  top.sab.mode = 1;
  sim.step();
  EXPECT_THAT(top.sab.caught, HasSubstr("mid-event"));

  top.sab.mode = 2;
  sim.step();
  EXPECT_THAT(top.sab.caught, HasSubstr("mid-event"));

  // The refusals left the run intact: stepping and snapshotting still
  // work, and the counter saw every edge.
  sim.step();
  EXPECT_EQ(top.out.read(), 4u);
  EXPECT_FALSE(sim.save_snapshot().empty());
}

// A testbench write after the last settle is not state a snapshot can
// hold.  The event kernel sees it on its pending list; the full-sweep
// kernel keeps no such list, so save_snapshot() compares every next
// value with its current one — and a write of the committed value back
// leaves nothing to refuse.
TEST(Snapshot, SaveRefusesAnUnsettledWriteInBothKernels) {
  struct Top : Module {
    Bus x{*this, "x", 8, 3};
    Top() : Module(nullptr, "top") {}
  };
  {
    Top top;
    Simulator sim(top);
    sim.reset();
    top.x.write(5);
    try {
      (void)sim.save_snapshot();
      FAIL() << "event kernel: snapshot taken over an unsettled write";
    } catch (const SnapshotError& e) {
      EXPECT_THAT(e.what(),
                  HasSubstr("uncommitted writes or dirty modules pending"));
    }
  }
  Top top;
  Simulator sim(top, {.full_sweep = true});
  sim.reset();
  top.x.write(5);
  try {
    (void)sim.save_snapshot();
    FAIL() << "full_sweep: snapshot taken over an unsettled write";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(),
                HasSubstr("signal 'top.x' has an uncommitted write"));
  }
  top.x.write(3);
  EXPECT_FALSE(sim.save_snapshot().empty());
}

// ---------------------------------------------------------------------
// declare_comb_only() contract hardening
// ---------------------------------------------------------------------

/// Claims comb-only but overrides on_clock(): the declaration would
/// silently disable the sequential process.
struct BadCombClock : Module {
  int ticks = 0;
  using Module::Module;
  void on_clock() override { ++ticks; }
  void declare_state() override { declare_comb_only(); }
};

/// Claims comb-only but overrides on_clock_check().
struct BadCombCheck : Module {
  using Module::Module;
  void on_clock_check() const override {}
  void declare_state() override { declare_comb_only(); }
};

/// Claims comb-only but registers a sequential signal.
struct BadCombSeq : Module {
  Bus& out;
  BadCombSeq(Module* parent, std::string name, Bus& o)
      : Module(parent, std::move(name)), out(o) {}
  void declare_state() override {
    declare_comb_only();
    register_seq(out);
  }
};

TEST(Snapshot, CombOnlyContractRejectsSequentialProcesses) {
  {
    struct Top : Module {
      BadCombClock bad{this, "bad"};
      Top() : Module(nullptr, "combtop") {}
    } top;
    try {
      Simulator sim(top, {});
      FAIL() << "comb-only module overriding on_clock() must be rejected";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("combtop.bad"));
      EXPECT_THAT(std::string(e.what()), HasSubstr("on_clock()"));
    }
    // Elaboration failed cleanly: the same design binds fine with the
    // debug check disabled.
    Simulator::Options relaxed_opts;
    relaxed_opts.check_seq_contract = false;
    Simulator relaxed(top, relaxed_opts);
    relaxed.reset();
    relaxed.step();
  }
  {
    struct Top : Module {
      BadCombCheck bad{this, "bad"};
      Top() : Module(nullptr, "combtop") {}
    } top;
    try {
      Simulator sim(top, {});
      FAIL() << "comb-only module overriding on_clock_check() must be "
                "rejected";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("combtop.bad"));
      EXPECT_THAT(std::string(e.what()), HasSubstr("on_clock_check()"));
    }
  }
  {
    struct Top : Module {
      Bus w{*this, "w", 8};
      BadCombSeq bad{this, "bad", w};
      Top() : Module(nullptr, "combtop") {}
    } top;
    try {
      Simulator sim(top, {});
      FAIL() << "comb-only module with register_seq() must be rejected";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("combtop.bad"));
      EXPECT_THAT(std::string(e.what()), HasSubstr("register_seq"));
    }
  }
}

/// Comb-only, but checks an input in the validate phase: a protocol
/// checker that evaluates nothing, like a dissolved stream iterator.
struct CombChecker : Module {
  const Bit& bad;
  mutable int checks = 0;
  CombChecker(Module* parent, std::string name, const Bit& b)
      : Module(parent, std::move(name)), bad(b) {
    enable_clock_check();
  }
  void on_clock_check() const override {
    ++checks;
    if (bad.as_word_fast() != 0)
      throw ProtocolError("checker '" + full_name() + "': bad input");
  }
  void declare_state() override { declare_comb_only(); }
};

TEST(Snapshot, CombOnlyModuleMayHaveAValidatePhase) {
  struct Top : Module {
    Bit bad{*this, "bad"};
    CombChecker chk{this, "chk", bad};
    Top() : Module(nullptr, "combtop") {}
    void declare_state() override { declare_comb_only(); }
  } top;
  Simulator sim(top, {});
  EXPECT_TRUE(top.chk.comb_only());
  EXPECT_EQ(sim.domain_info(0).modules, 2u);
  sim.reset();
  sim.step(3);
  EXPECT_EQ(top.chk.checks, 3);  // once per edge, never clocked
  EXPECT_EQ(sim.stats().act_skips, 0u);
  top.bad.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
  EXPECT_EQ(sim.cycle(), 3u);
  EXPECT_EQ(sim.stats().edges, 3u);
}

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

TEST(Snapshot, FaultPlanGrammar) {
  EXPECT_FALSE(rtl::parse_fault_plan("").armed());
  const rtl::FaultPlan p = rtl::parse_fault_plan("settle@12+3");
  EXPECT_TRUE(p.armed());
  EXPECT_EQ(p.point, rtl::FaultPoint::Settle);
  EXPECT_EQ(p.step, 12u);
  EXPECT_EQ(p.skip, 3u);
  EXPECT_EQ(rtl::parse_fault_plan("check@0").skip, 0u);

  for (const char* bad :
       {"bogus@1", "check", "check@", "check@x", "check@1+", "check@1+y",
        "@5", "check@1 extra", "check@1+2+3"}) {
    SCOPED_TRACE(bad);
    try {
      (void)rtl::parse_fault_plan(bad);
      FAIL() << "malformed plan must throw";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("grammar"));
      EXPECT_THAT(std::string(e.what()), HasSubstr(bad));
    }
  }
  // A malformed plan is rejected at elaboration, not mid-run.
  SnapTop top;
  EXPECT_THROW(Simulator sim(top, {.fault_plan = "oops@1"}), Error);
}

/// Check/edge faults strike before any state mutates: the event aborts
/// transactionally and a retried step() continues the run as if the
/// crash never happened.
void expect_clean_abort(const std::string& point) {
  SCOPED_TRACE("point=" + point);
  constexpr int kSteps = 10;
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, kSteps);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {.fault_plan = point + "@3"});
  sim.reset();
  EXPECT_FALSE(sim.fault_fired());
  int fired_at = -1;
  for (int i = 0; i < kSteps; ++i) {
    try {
      sim.step();
    } catch (const rtl::FaultInjected& e) {
      ASSERT_EQ(fired_at, -1) << "fault must be one-shot";
      fired_at = i;
      EXPECT_THAT(std::string(e.what()), HasSubstr(point));
      EXPECT_THAT(std::string(e.what()), HasSubstr("snaptop"));
      sim.step();  // the aborted event was a no-op: same tick re-fires
    }
  }
  EXPECT_GE(fired_at, 0) << "the armed fault never fired";
  EXPECT_TRUE(sim.fault_fired());
  EXPECT_EQ(Observed::of(sim, top), want);
  EXPECT_FALSE(sim.save_snapshot().empty());
}

TEST(Snapshot, CheckFaultAbortsTransactionally) { expect_clean_abort("check"); }
TEST(Snapshot, EdgeFaultAbortsTransactionally) { expect_clean_abort("edge"); }

/// Settle/commit faults strike mid-mutation: the kernel must flag the
/// half-applied state, refuse to snapshot it, and recover through
/// restore_snapshot() — after which the replay matches the run that
/// never crashed.
void expect_crash_recovery(const std::string& point) {
  SCOPED_TRACE("point=" + point);
  constexpr int kSteps = 12;
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, kSteps);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {.fault_plan = point + "@4"});
  sim.reset();
  rtl::Snapshot good = sim.save_snapshot();
  int done = 0;
  bool crashed = false;
  while (done < kSteps) {
    try {
      sim.step();
      ++done;
      good = sim.save_snapshot();
    } catch (const rtl::FaultInjected&) {
      crashed = true;
      break;
    }
  }
  ASSERT_TRUE(crashed) << "the armed fault never fired";
  // Half-applied state: snapshotting is refused with a way out.
  try {
    (void)sim.save_snapshot();
    FAIL() << "save_snapshot after a mid-" << point << " crash must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()),
                HasSubstr("restore_snapshot() or reset()"));
  }
  sim.restore_snapshot(good);
  for (; done < kSteps; ++done) sim.step();
  EXPECT_EQ(Observed::of(sim, top), want);
}

TEST(Snapshot, SettleFaultRecoversThroughRestore) {
  expect_crash_recovery("settle");
}
TEST(Snapshot, CommitFaultRecoversThroughRestore) {
  expect_crash_recovery("commit");
}

TEST(Snapshot, CrashRecoversThroughResetToo) {
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, 8);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {.fault_plan = "commit@2"});
  sim.reset();
  bool crashed = false;
  try {
    run_steps(sim, 8);
  } catch (const rtl::FaultInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  sim.reset();  // full reset is the other recovery path
  sim.reset_stats();  // counters are cumulative; restart the tally too
  run_steps(sim, 8);
  EXPECT_EQ(Observed::of(sim, top), want);
}

// ---------------------------------------------------------------------
// Format stability across the SoA kernel-layout refactor
// ---------------------------------------------------------------------

#include "data/snapshot_prerefactor_snaptop.inc"

rtl::Snapshot pre_refactor_blob() {
  return rtl::Snapshot(std::vector<std::uint8_t>(
      kPreRefactorSnapTopBlob,
      kPreRefactorSnapTopBlob + sizeof(kPreRefactorSnapTopBlob)));
}

TEST(Snapshot, PreRefactorBlobRestoresIntoFreshInstanceAndReplays) {
  // Uninterrupted reference: the exact run the fixture blob froze at
  // step 10 of, continued for 13 more steps with the VCD covering the
  // continuation.
  SnapTop a;
  Observed want;
  {
    Simulator sim(a, {});
    sim.reset();
    run_steps(sim, 10);
    sim.open_vcd("snap_pre_ref.vcd");
    run_steps(sim, 13);
    want = Observed::of(sim, a);
  }
  const std::string want_vcd = tb::slurp_and_remove("snap_pre_ref.vcd");

  // A blob captured by the pre-refactor (AoS signal layout) kernel
  // must restore into a freshly constructed SoA-layout instance...
  SnapTop b;
  Observed got;
  std::string got_vcd;
  {
    Simulator sim(b, {});
    sim.restore_snapshot(pre_refactor_blob());
    EXPECT_EQ(sim.cycle(), 10u);
    EXPECT_EQ(sim.now(), 10u);
    // ...re-save byte-identically but for the version byte (scheduler,
    // stats, values, learned fanout in the same list order; version 2
    // changed only the paged memories, and SnapTop has none)...
    std::vector<std::uint8_t> want_bytes = pre_refactor_blob().bytes();
    ASSERT_EQ(want_bytes[4], 1u) << "the fixture is not a version-1 blob";
    want_bytes[4] = 2;
    EXPECT_EQ(sim.save_snapshot().bytes(), want_bytes)
        << "SoA re-save is not byte-identical to the pre-refactor blob";
    // ...and replay the continuation exactly as the old kernel did.
    sim.open_vcd("snap_pre_got.vcd");
    run_steps(sim, 13);
    got = Observed::of(sim, b);
  }
  got_vcd = tb::slurp_and_remove("snap_pre_got.vcd");
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_vcd, want_vcd)
      << "replay from the pre-refactor blob diverged from the "
         "uninterrupted run";
}

TEST(Snapshot, CorruptedPreRefactorBlobRejectsLoudlyNeverHalfRestores) {
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, 6);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 3);
  std::vector<std::uint8_t> bytes = pre_refactor_blob().bytes();
  bytes.resize(bytes.size() - 9);  // tear mid module-payload section
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "expected SnapshotError for a truncated blob";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  // Corruption detected after restoration began: the contract is a
  // reset to construction state, never a half-restore.  The simulator
  // must be immediately usable and deterministic.
  sim.reset();
  sim.reset_stats();
  run_steps(sim, 6);
  EXPECT_EQ(Observed::of(sim, top), want);
}

/// Minimal all-Word-signal design with one learned fanout arc, so a
/// test can compute the blob offset of the fanout section from the
/// documented layout and corrupt it surgically.
struct FanBlobTop : Module {
  Bus x{*this, "x", 16};
  Bus y{*this, "y", 16};
  struct Reader : Module {
    const Bus& in;
    Bus& out;
    Reader(Module* parent, const Bus& i, Bus& o)
        : Module(parent, "reader"), in(i), out(o) {}
    void eval_comb() override { out.write(in.read() + 7); }
    void declare_state() override { declare_comb_only(); }
  };
  Reader r{this, x, y};

  FanBlobTop() : Module(nullptr, "fantop") {}
  void on_clock() override { x.write(x.read() + 1); }
  void on_reset() override { x.write(0); }
  void declare_state() override { register_seq(x); }
};

TEST(Snapshot, DuplicateFanoutEntryInBlobRejectsLoudly) {
  // The old pointer-vector restore silently tolerated a duplicated
  // module id inside one signal's fanout list (it only bloated the
  // list); the CSR rebuild detects it via mod_mark_ and must refuse.
  FanBlobTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 3);
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();

  // v1 layout up to the fanout section, for a single-domain design
  // whose signals are all Words: magic(4) version(1) flags(1)
  // topology-hash(8) tick(8) cycle(8) next_edge(8 per domain)
  // stats(12 u64) domain_edges(u32 count + 8 per domain)
  // values(u32 count + 8 per signal).
  ASSERT_EQ(sim.domain_count(), 1u);
  const std::size_t nsig = 2;  // x, y — reader declares no signals
  const std::size_t fan_at =
      4 + 1 + 1 + 8 + 8 + 8 + 8 * 1 + 12 * 8 + (4 + 8 * 1) + (4 + 8 * nsig);
  ASSERT_LT(fan_at + 8, bytes.size());
  auto rd_u32 = [&](std::size_t at) {
    return static_cast<std::uint32_t>(bytes[at]) |
           static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[at + 3]) << 24;
  };
  // Sanity-pin the computed offset before corrupting anything: signal
  // x has exactly one learned reader, and its id addresses a module.
  ASSERT_EQ(rd_u32(fan_at), 1u) << "fanout-section offset drifted";
  const std::uint32_t reader_id = rd_u32(fan_at + 4);
  ASSERT_LT(reader_id, 3u);

  // Duplicate the entry: count 1 -> 2, id listed twice.
  bytes[fan_at] = 2;
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(fan_at + 4),
               {bytes[fan_at + 4], bytes[fan_at + 5], bytes[fan_at + 6],
                bytes[fan_at + 7]});
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "expected SnapshotError for a duplicated fanout entry";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), HasSubstr("duplicate fanout module id"));
  }
  // Never half-restored: back to construction state and fully usable.
  sim.reset();
  run_steps(sim, 5);
  EXPECT_EQ(top.x.read(), 5u);
  EXPECT_EQ(top.y.read(), 12u);
}

/// Three counters on three clock domains, one with a phase, so their
/// next edges after a given tick all differ.
struct TriEdgeTop : Module {
  ClockDomain a{"a", 1};
  ClockDomain b{"b", 3};
  ClockDomain c{"c", 5, 2};  // edges at 7, 12, 17, ...
  Bus ca{*this, "ca", 16};
  Bus cb{*this, "cb", 16};
  Bus cc{*this, "cc", 16};
  SnapCounter na{this, "na", ca};
  SnapCounter nb{this, "nb", cb};
  SnapCounter nc{this, "nc", cc};
  TriEdgeTop() : Module(nullptr, "tritop") {
    set_clock_domain(&a);
    nb.set_clock_domain(&b);
    nc.set_clock_domain(&c);
  }
  void declare_state() override { declare_comb_only(); }
};

/// v1 layout up to the scheduler: magic(4) version(1) flags(1)
/// topology-hash(8) tick(8) cycle(8), then one next-edge u64 per domain
/// (the layout DuplicateFanoutEntryInBlobRejectsLoudly computes).
constexpr std::size_t kTickAt = 4 + 1 + 1 + 8;
constexpr std::size_t kNextEdgeAt = kTickAt + 8 + 8;

std::uint64_t rd_u64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | b[at + static_cast<std::size_t>(i)];
  return v;
}

void wr_u64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Restoring `bytes` with domain `di`'s next edge patched to `next` is
/// refused with a message naming the domain, the stored tick and the
/// expected one, and leaves the simulator at construction state.
void expect_next_edge_rejected(Simulator& sim,
                               std::vector<std::uint8_t> bytes,
                               std::size_t di, std::uint64_t next) {
  const std::uint64_t want = rd_u64(bytes, kNextEdgeAt + 8 * di);
  SCOPED_TRACE("domain " + std::to_string(di) + ", next edge " +
               std::to_string(next));
  wr_u64(bytes, kNextEdgeAt + 8 * di, next);
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "expected SnapshotError for a patched next edge";
  } catch (const SnapshotError& e) {
    const std::string name = sim.domain_info(di).name;
    EXPECT_THAT(e.what(), HasSubstr("domain '" + name + "'"));
    EXPECT_THAT(e.what(), HasSubstr("next edge at tick " +
                                    std::to_string(next)));
    EXPECT_THAT(e.what(), HasSubstr("expected tick " + std::to_string(want)));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.cycle(), 0u);
}

TEST(Snapshot, NextEdgeOtherThanTheFirstAfterTheTickIsRejected) {
  {
    // One domain saved at tick 500: its next edge is 501.  An earlier
    // one would send now() back in time, a later one skip edges.
    FanBlobTop top;
    Simulator sim(top, {});
    sim.reset();
    run_steps(sim, 500);
    const std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();
    ASSERT_EQ(rd_u64(bytes, kTickAt), 500u) << "tick offset drifted";
    ASSERT_EQ(rd_u64(bytes, kNextEdgeAt), 501u) << "next-edge offset drifted";
    const std::uint64_t bad_nexts[] = {0, 7, 500, 502, 1'000'000};
    for (const std::uint64_t next : bad_nexts)
      expect_next_edge_rejected(sim, bytes, 0, next);
    // The unpatched blob still restores and steps on from tick 501.
    sim.restore_snapshot(rtl::Snapshot(std::vector<std::uint8_t>(bytes)));
    sim.step();
    EXPECT_EQ(sim.now(), 501u);
    EXPECT_EQ(top.x.read(), 501u);
  }
  {
    // Three domains saved at tick 20: next edges 21 (a), 21 (b), 22 (c).
    TriEdgeTop top;
    Simulator sim(top, {});
    ASSERT_EQ(sim.domain_count(), 3u);
    sim.reset();
    while (sim.now() < 20) sim.step();
    ASSERT_EQ(sim.now(), 20u);
    const std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();
    ASSERT_EQ(rd_u64(bytes, kTickAt), 20u) << "tick offset drifted";
    ASSERT_EQ(rd_u64(bytes, kNextEdgeAt), 21u);
    ASSERT_EQ(rd_u64(bytes, kNextEdgeAt + 8), 21u);
    ASSERT_EQ(rd_u64(bytes, kNextEdgeAt + 16), 22u);
    for (std::size_t di = 0; di < 3; ++di) {
      const std::uint64_t next = rd_u64(bytes, kNextEdgeAt + 8 * di);
      const std::uint64_t period = sim.domain_info(di).period;
      const std::uint64_t bad_nexts[] = {0, next - 1, next + 1,
                                         next + period};
      for (const std::uint64_t bad : bad_nexts)
        expect_next_edge_rejected(sim, bytes, di, bad);
    }
    sim.restore_snapshot(rtl::Snapshot(std::vector<std::uint8_t>(bytes)));
    sim.step(2);
    EXPECT_EQ(sim.now(), 22u);
    EXPECT_EQ(top.cc.read(), 4u);  // ticks 7, 12, 17, 22
  }
}

// ---------------------------------------------------------------------
// Bulk state codec
// ---------------------------------------------------------------------

/// The version-1 wire format of one integer, built a byte at a time —
/// the reference the bulk codec must reproduce exactly.
void append_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

TEST(StateCodec, BulkArraysEncodeExactlyLikeByteWiseFields) {
  std::vector<Word> mem(4097);
  for (std::size_t i = 0; i < mem.size(); ++i)
    mem[i] = 0x0123456789abcdefull * (i + 1);
  const std::int32_t ids[3] = {0, 7, 0x01020304};
  const Word flags[4] = {1, 0, 0, 1};

  rtl::StateWriter w;
  w.u32(0xa1b2c3d4u);
  w.words(mem);
  w.words({});
  w.array(ids, 3);
  w.bits(flags, 4);
  const std::vector<std::uint8_t> got = std::move(w).take();

  std::vector<std::uint8_t> want;
  append_le(want, 0xa1b2c3d4u, 4);
  append_le(want, mem.size(), 8);
  for (const Word v : mem) append_le(want, v, 8);
  append_le(want, 0, 8);
  for (const std::int32_t id : ids)
    append_le(want, static_cast<std::uint32_t>(id), 4);
  for (const Word f : flags) want.push_back(static_cast<std::uint8_t>(f));
  ASSERT_EQ(got, want);

  rtl::StateReader r(got);
  EXPECT_EQ(r.u32(), 0xa1b2c3d4u);
  std::vector<Word> back(3, 99);  // a growing buffer takes the stored size
  r.words(back);
  EXPECT_EQ(back, mem);
  r.words(back);
  EXPECT_TRUE(back.empty());
  std::int32_t ids_back[3] = {};
  r.array(ids_back, 3);
  EXPECT_EQ(ids_back[1], ids[1]);
  EXPECT_EQ(ids_back[2], ids[2]);
  Word flags_back[4] = {};
  r.bits(flags_back, 4);
  EXPECT_TRUE(std::equal(flags, flags + 4, flags_back));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(StateCodec, CorruptedLengthsReadAsTruncationNotAsHugeAllocations) {
  // 2^61 words is 2^64 bytes: a bounds check on n * 8 wraps to 0 and
  // lets the count through to a resize.
  for (const std::uint64_t n :
       {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1,
        ~std::uint64_t{0}, std::uint64_t{3}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    rtl::StateWriter w;
    w.u64(n);
    w.u64(42);  // one word of payload, fewer than claimed
    const std::vector<std::uint8_t> bytes = std::move(w).take();
    std::vector<Word> out;
    rtl::StateReader r(bytes);
    try {
      r.words(out);
      FAIL() << "a word vector longer than the blob must throw";
    } catch (const SnapshotError& e) {
      EXPECT_THAT(e.what(), HasSubstr("truncated"));
      EXPECT_THAT(e.what(), HasSubstr("word vector"));
    }
  }
}

TEST(StateCodec, BaselineEncodingElidesAllZeroArraysOnly) {
  const std::vector<Word> zero(4096, 0);
  std::vector<Word> sparse(100, 0);
  sparse[77] = 0xdead;  // a single set word, past the first 32-word block
  const std::vector<Word> empty;
  const std::vector<Word> grown = {1, 2, 3};

  auto write_all = [&](rtl::StateWriter& w) {
    w.u32(0xa1b2c3d4u);
    w.words(zero);
    w.words(sparse);
    w.words(empty);
    w.words(grown);
    w.u64(42);
  };
  rtl::StateWriter w(rtl::Encoding::kBaseline);
  write_all(w);
  const std::vector<std::uint8_t> got = std::move(w).take();

  // Count, tag (0 = all zero, 1 = data), then the words of a data array.
  std::vector<std::uint8_t> want;
  append_le(want, 0xa1b2c3d4u, 4);
  append_le(want, zero.size(), 8);
  want.push_back(rtl::kWordsZero);
  append_le(want, sparse.size(), 8);
  want.push_back(rtl::kWordsData);
  for (const Word v : sparse) append_le(want, v, 8);
  append_le(want, 0, 8);
  want.push_back(rtl::kWordsZero);
  append_le(want, grown.size(), 8);
  want.push_back(rtl::kWordsData);
  for (const Word v : grown) append_le(want, v, 8);
  append_le(want, 42, 8);
  ASSERT_EQ(got, want);

  {
    // Fixed-size memories (of 16-bit words) are overwritten in place:
    // an elided one is zero-filled in its own buffer.
    rtl::StateReader r(got, rtl::Encoding::kBaseline);
    EXPECT_EQ(r.u32(), 0xa1b2c3d4u);
    std::vector<Word> mem(zero.size(), 0x55);
    const Word* buf = mem.data();
    r.fixed_words(mem, 16);
    EXPECT_EQ(mem, zero);
    EXPECT_EQ(mem.data(), buf);
    std::vector<Word> mem2(sparse.size(), 0x55);
    r.fixed_words(mem2, 16);
    EXPECT_EQ(mem2, sparse);
    std::vector<Word> none;
    r.fixed_words(none, 16);
    std::vector<Word> mem3(grown.size(), 0);
    r.fixed_words(mem3, 16);
    EXPECT_EQ(mem3, grown);
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_EQ(r.remaining(), 0u);
  }
  {
    // Growable vectors take the stored count, elided or not.
    rtl::StateReader r(got, rtl::Encoding::kBaseline);
    EXPECT_EQ(r.u32(), 0xa1b2c3d4u);
    std::vector<Word> v(3, 0x55);
    r.words(v);
    EXPECT_EQ(v, zero);
    r.words(v);
    EXPECT_EQ(v, sparse);
    r.words(v);
    EXPECT_TRUE(v.empty());
    r.words(v);
    EXPECT_EQ(v, grown);
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_EQ(r.remaining(), 0u);
  }

  // Every cut reads as truncation, including one that keeps an elided
  // array's count but drops its tag.
  for (std::size_t cut = 0; cut < got.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    rtl::StateReader r(got.data(), cut, rtl::Encoding::kBaseline);
    std::vector<Word> v;
    try {
      (void)r.u32();
      for (int i = 0; i < 4; ++i) r.words(v);
      (void)r.u64();
      FAIL() << "a truncated baseline read through";
    } catch (const SnapshotError& e) {
      EXPECT_THAT(e.what(), HasSubstr("truncated"));
    }
  }

  // A tag other than 0 or 1 is corruption, not a third encoding.
  std::vector<std::uint8_t> bad = got;
  bad[4 + 8] = 2;
  rtl::StateReader r(bad, rtl::Encoding::kBaseline);
  (void)r.u32();
  std::vector<Word> v;
  try {
    r.words(v);
    FAIL() << "tag 2 was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("word-array tag 2"));
  }
}

TEST(StateCodec, PagedMemoryStoresATagPerPageAndTheNonzeroPagesOnly) {
  // Four 40-word pages: absent, resident but all zero, and two that
  // hold data (one set word past the first 32-word block).
  constexpr std::size_t kPage = 40;
  rtl::WordPages pages(4);
  pages[1] = std::make_unique<Word[]>(kPage);
  pages[2] = std::make_unique<Word[]>(kPage);
  pages[2][35] = 0x5a;
  pages[3] = std::make_unique<Word[]>(kPage);
  pages[3][0] = 0xff;
  auto write = [&](rtl::Encoding enc) {
    rtl::StateWriter w(enc);
    w.paged_words(pages, kPage);
    w.u64(42);
    return std::move(w).take();
  };
  const std::vector<std::uint8_t> got = write(rtl::Encoding::kBlob);

  // Word count, then a tag per page (0 = all zero, 1 = data) and the
  // words of a data page.  The baseline writes the same bytes.
  std::vector<std::uint8_t> want;
  append_le(want, 4 * kPage, 8);
  want.push_back(rtl::kWordsZero);
  want.push_back(rtl::kWordsZero);
  for (const std::size_t p : {2, 3}) {
    want.push_back(rtl::kWordsData);
    for (std::size_t k = 0; k < kPage; ++k) append_le(want, pages[p][k], 8);
  }
  append_le(want, 42, 8);
  ASSERT_EQ(got, want);
  EXPECT_EQ(write(rtl::Encoding::kBaseline), got);

  // A load into stale pages drops the zero pages and overwrites or
  // allocates the data pages.
  rtl::WordPages back(4);
  back[0] = std::make_unique<Word[]>(kPage);
  back[2] = std::make_unique<Word[]>(kPage);
  std::fill_n(back[0].get(), kPage, Word{0x11});
  std::fill_n(back[2].get(), kPage, Word{0x11});
  const Word* in_place = back[2].get();
  {
    rtl::StateReader r(got);
    r.paged_words(back, kPage, 8);
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_EQ(r.remaining(), 0u);
  }
  EXPECT_EQ(back[0], nullptr);
  EXPECT_EQ(back[1], nullptr);
  ASSERT_NE(back[2], nullptr);
  ASSERT_NE(back[3], nullptr);
  EXPECT_EQ(back[2].get(), in_place);
  for (const std::size_t p : {2, 3})
    EXPECT_TRUE(std::equal(back[p].get(), back[p].get() + kPage,
                           pages[p].get()))
        << "page " << p;

  // Every cut reads as truncation, including one between two tags.
  for (std::size_t cut = 0; cut < got.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    rtl::StateReader r(got.data(), cut);
    rtl::WordPages v(4);
    try {
      r.paged_words(v, kPage, 8);
      (void)r.u64();
      FAIL() << "a truncated paged memory read through";
    } catch (const SnapshotError& e) {
      EXPECT_THAT(e.what(), HasSubstr("truncated"));
    }
  }

  // No save writes a tag other than 0 or 1, or a data page of zeros.
  const auto expect_rejected = [&](std::vector<std::uint8_t> bad,
                                   const std::string& why) {
    rtl::StateReader r(bad);
    rtl::WordPages v(4);
    try {
      r.paged_words(v, kPage, 8);
      FAIL() << "accepted: " << why;
    } catch (const SnapshotError& e) {
      EXPECT_THAT(e.what(), HasSubstr(why));
    }
  };
  std::vector<std::uint8_t> bad_tag = got;
  bad_tag[8 + 1] = 2;  // page 1's tag
  expect_rejected(bad_tag, "memory page 1 tag 2 is neither 0 (all zero) "
                           "nor 1 (data)");
  std::vector<std::uint8_t> zero_page = got;
  zero_page[8 + 2 + 1 + 8 * 35] = 0;  // page 2's only set word
  expect_rejected(zero_page, "memory page 2 (words 80 to 119) is stored "
                             "as data but holds only zeros");
}

/// Two levels of hierarchy under the top, two clock domains, fields
/// with zero and non-zero high bytes: every input the topology hash
/// folds in.
struct HashLeaf : Module {
  Bus v;
  HashLeaf(Module* parent, std::string name)
      : Module(parent, std::move(name)), v(*this, "v", 12) {}
};
struct HashMid : Module {
  HashLeaf a{this, "leaf_a"};
  HashLeaf b{this, "leaf_b_with_a_longer_name"};
  HashMid(Module* parent, std::string name)
      : Module(parent, std::move(name)) {}
};
struct HashTop : Module {
  ClockDomain slow{"slow", 3};
  HashMid m0{this, "mid0"};
  HashMid m1{this, "mid1"};
  Bit flag{*this, "flag"};
  HashTop() : Module(nullptr, "hash_top") { m1.set_clock_domain(&slow); }
};

TEST(Snapshot, TopologyHashOfAFixedDesignNeverMoves) {
  // Every blob carries this hash, so it must not move for an unchanged
  // design — or blobs saved by an earlier build stop restoring.
  HashTop top;
  Simulator sim(top, {});
  EXPECT_EQ(sim.topology_hash(), 0xcefcc6a9ad41b664ull);
}

/// The 16x12 saa2vga pattern design of the tests below.
designs::Saa2VgaConfig small_saa2vga(devices::DeviceKind device) {
  return {.width = 16, .height = 12, .buffer_depth = 64, .device = device};
}

/// Builds the FIFO-bound small saa2vga and finds its VGA sink by name
/// (the design exposes the sink only as const).
std::unique_ptr<designs::VideoDesign> make_small_saa2vga(Module*& vga) {
  auto top = designs::make_saa2vga_pattern(
      small_saa2vga(devices::DeviceKind::FifoCore));
  vga = nullptr;
  top->visit([&](Module& m) {
    if (m.name() == "vga") vga = &m;
  });
  return top;
}

TEST(Snapshot, CorruptedFrameShapeIsRejectedBeforeAllocating) {
  Module* vga = nullptr;
  const auto top = make_small_saa2vga(vga);
  ASSERT_NE(vga, nullptr);
  rtl::StateWriter w;
  vga->save_state(w);
  const std::vector<std::uint8_t> good = std::move(w).take();

  // VgaSink payload: collected-frame count u32, then the frame being
  // assembled: width, height, channels (8 bytes each) and its pixels.
  auto with_shape = [&](std::uint64_t width, std::uint64_t height) {
    std::vector<std::uint8_t> b = good;
    for (int i = 0; i < 8; ++i) {
      b[4 + i] = static_cast<std::uint8_t>(width >> (8 * i));
      b[12 + i] = static_cast<std::uint8_t>(height >> (8 * i));
    }
    return b;
  };
  for (const auto& [width, height] :
       {std::pair<std::uint64_t, std::uint64_t>{1u << 30, 1u << 30},
        {~std::uint64_t{0}, 12}, {16, 0}, {8, 12}}) {
    SCOPED_TRACE(std::to_string(width) + "x" + std::to_string(height));
    const std::vector<std::uint8_t> bad = with_shape(width, height);
    rtl::StateReader r(bad);
    EXPECT_THROW(vga->load_state(r), SnapshotError);
  }
  // The intact payload still loads and re-saves identically.
  rtl::StateReader r(good);
  vga->load_state(r);
  EXPECT_EQ(r.remaining(), 0u);
  rtl::StateWriter again;
  vga->save_state(again);
  EXPECT_EQ(std::move(again).take(), good);
}

// ---------------------------------------------------------------------
// Construction baseline (zero-elided) and blob bytes of an SRAM design
// ---------------------------------------------------------------------

/// FNV-1a over a blob's bytes.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kMaxCycles = 1'000'000;

/// Runs `d` to finished() and checks its sink got the camera frames.
void expect_runs_to_camera_frames(Simulator& sim,
                                  const designs::VideoDesign& d,
                                  const designs::Saa2VgaConfig& cfg) {
  ASSERT_TRUE(sim.run([&] { return d.finished(); }, kMaxCycles).ok());
  EXPECT_EQ(d.sink().frames(),
            designs::camera_frames(cfg.width, cfg.height, cfg.frames,
                                   cfg.pattern_seed));
}

std::vector<const devices::ExternalSram*> srams_of(Module& top) {
  std::vector<const devices::ExternalSram*> out;
  top.visit([&](Module& m) {
    if (const auto* s = dynamic_cast<const devices::ExternalSram*>(&m))
      out.push_back(s);
  });
  return out;
}

bool all_zero(const std::vector<Word>& mem) {
  return std::all_of(mem.begin(), mem.end(), [](Word w) { return w == 0; });
}

TEST(Snapshot, SramBoundBlobBytesNeverMove) {
  // Each 2^16-word SRAM travels as 128 page tags and the words of the
  // pages its 64-deep buffer touched (version 2); the flat version-1
  // image of both was 1,050,907 bytes.
  const designs::Saa2VgaConfig cfg = small_saa2vga(devices::DeviceKind::Sram);
  rtl::Snapshot blob;
  {
    const auto top = designs::make_saa2vga_pattern(cfg);
    Simulator sim(*top, {});
    sim.reset();
    sim.step(300);
    blob = sim.save_snapshot();
  }
  // Re-pinned when the stream iterators dissolved (the design changed,
  // not the codec): 7 fewer signal values, fewer learned fanout
  // entries and new module paths in the topology hash.  Re-pinned
  // again for version 2 (the codec changed, not the design).
  EXPECT_EQ(blob.size_bytes(), 10'779u);
  EXPECT_EQ(fnv1a(blob.bytes()), 0x825f402af3f5f325ull);
  EXPECT_LT(blob.size_bytes(), 64u * 1024);

  const auto top = designs::make_saa2vga_pattern(cfg);
  Simulator sim(*top, {});
  sim.restore_snapshot(blob);
  EXPECT_EQ(sim.save_snapshot(), blob);
  expect_runs_to_camera_frames(sim, *top, cfg);
}

/// `blob` rewritten as a version-1 blob: each SRAM's paged field as its
/// flat image (every page's words, a page tagged zero as zeros), its
/// payload length patched to match, and the version byte set to 1.
std::vector<std::uint8_t> as_version_one(
    Module& top, std::vector<std::uint8_t> blob) {
  // Every offset is taken from the version-2 blob, and the later
  // payload is rewritten first, so neither rewrite moves the other.
  std::vector<std::pair<std::size_t, const devices::ExternalSram*>> srams;
  for (const devices::ExternalSram* sram : srams_of(top)) {
    const std::optional<std::size_t> payload =
        tb::payload_offset(top, *sram, blob.size());
    EXPECT_TRUE(payload);
    if (!payload) return {};
    srams.emplace_back(*payload, sram);
  }
  std::sort(srams.rbegin(), srams.rend());
  for (const auto& [payload, sram] : srams) {
    const std::size_t pages_at = payload + 4 + 8 + 8;  // after the count
    const std::size_t page_words =
        std::min<std::size_t>(512, std::size_t{1} << sram->config().addr_width);
    const std::size_t npages = rd_u64(blob, pages_at - 8) / page_words;
    std::vector<std::uint8_t> flat;
    std::size_t at = pages_at;
    for (std::size_t p = 0; p < npages; ++p) {
      const bool data = blob[at++] == rtl::kWordsData;
      const std::size_t n = data ? 8 * page_words : 0;
      flat.insert(flat.end(), blob.begin() + static_cast<std::ptrdiff_t>(at),
                  blob.begin() + static_cast<std::ptrdiff_t>(at + n));
      flat.resize(flat.size() + 8 * page_words - n);
      at += n;
    }
    const std::size_t len = 4 + 8 + 8 + flat.size();
    for (std::size_t i = 0; i < 4; ++i)
      blob[payload - 4 + i] = static_cast<std::uint8_t>(len >> (8 * i));
    blob.erase(blob.begin() + static_cast<std::ptrdiff_t>(pages_at),
               blob.begin() + static_cast<std::ptrdiff_t>(at));
    blob.insert(blob.begin() + static_cast<std::ptrdiff_t>(pages_at),
                flat.begin(), flat.end());
  }
  blob[4] = 1;
  return blob;
}

TEST(Snapshot, VersionOneSramBlobStillRestores) {
  // A version-1 blob stored each SRAM's 2^16 words in full; a blob
  // persisted before version 2 must still restore, and the run it
  // continues must reach the camera frames.
  const designs::Saa2VgaConfig cfg = small_saa2vga(devices::DeviceKind::Sram);
  const auto top = designs::make_saa2vga_pattern(cfg);
  Simulator sim(*top, {});
  sim.reset();
  sim.step(300);
  const rtl::Snapshot v2 = sim.save_snapshot();
  const std::vector<std::uint8_t> v1 = as_version_one(*top, v2.bytes());
  // The bytes a version-1 save of this run wrote (the size and hash
  // SramBoundBlobBytesNeverMove pinned before version 2).
  ASSERT_EQ(v1.size(), 1'050'907u);
  ASSERT_EQ(fnv1a(v1), 0x4398dd4548ec1a88ull);
  expect_runs_to_camera_frames(sim, *top, cfg);

  sim.restore_snapshot(rtl::Snapshot(v1));
  EXPECT_EQ(sim.save_snapshot(), v2);
  for (const devices::ExternalSram* s : srams_of(*top))
    EXPECT_GT(s->resident_pages(), 0u) << s->full_name();
  expect_runs_to_camera_frames(sim, *top, cfg);
}

TEST(Snapshot, SramDesignMemoryIsZeroAgainAfterRunRestoreAndReset) {
  const designs::Saa2VgaConfig cfg = small_saa2vga(devices::DeviceKind::Sram);
  const auto top = designs::make_saa2vga_pattern(cfg);
  const std::vector<const devices::ExternalSram*> srams = srams_of(*top);
  ASSERT_FALSE(srams.empty());
  Simulator sim(*top, {});
  sim.reset();
  sim.step(300);
  const rtl::Snapshot mid = sim.save_snapshot();
  expect_runs_to_camera_frames(sim, *top, cfg);
  sim.restore_snapshot(mid);
  ASSERT_TRUE(std::any_of(srams.begin(), srams.end(), [](const auto* s) {
    return !all_zero(s->mem());
  })) << "no pixel reached an SRAM by the snapshot; the reset below "
         "would have nothing to clear";
  sim.reset();
  for (const devices::ExternalSram* s : srams)
    EXPECT_TRUE(all_zero(s->mem())) << s->full_name();
  expect_runs_to_camera_frames(sim, *top, cfg);
}

TEST(Snapshot, SramDesignHoldsOnlyThePagesItsBuffersTouch) {
  // Each SRAM keeps its 2^16 words in 512-word pages that exist once a
  // nonzero word is written, so building, elaborating and resetting the
  // design costs the pages its 64-deep buffers touch, not 2 x 512 KiB.
  const designs::Saa2VgaConfig cfg = small_saa2vga(devices::DeviceKind::Sram);
  const auto top = designs::make_saa2vga_pattern(cfg);
  const std::vector<const devices::ExternalSram*> srams = srams_of(*top);
  ASSERT_EQ(srams.size(), 2u);
  const auto resident = [&] {
    std::vector<std::size_t> n;
    for (const devices::ExternalSram* s : srams)
      n.push_back(s->resident_pages());
    return n;
  };
  Simulator sim(*top, {});
  sim.reset();
  EXPECT_THAT(resident(), ::testing::Each(0u));
  expect_runs_to_camera_frames(sim, *top, cfg);
  const auto most =
      static_cast<std::size_t>(ceil_div(cfg.buffer_depth, 512));
  EXPECT_THAT(resident(), ::testing::Each(::testing::AllOf(
                              ::testing::Gt(0u), ::testing::Le(most))));
  sim.reset();
  EXPECT_THAT(resident(), ::testing::Each(0u));
}

TEST(Snapshot, SramWordWiderThanItsDataIsRejectedNamingTheAddress) {
  // Every SRAM write and preload truncates to data_width, so no run
  // stores a wider word: a blob that holds one is corrupted, and the
  // restore falls back to construction state.
  const designs::Saa2VgaConfig cfg = small_saa2vga(devices::DeviceKind::Sram);
  const auto top = designs::make_saa2vga_pattern(cfg);
  const devices::ExternalSram* sram = nullptr;
  for (const devices::ExternalSram* s : srams_of(*top))
    if (s->name() == "sram_in") sram = s;
  ASSERT_NE(sram, nullptr);
  ASSERT_EQ(sram->config().data_width, 8);
  Simulator sim(*top, {});
  sim.reset();
  sim.step(300);
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();

  // The SRAM's payload: state u32, countdown i64, word count u64, then
  // the first page's tag and its words.  Bit 8 of word 5 (in the read
  // buffer's region).
  const std::optional<std::size_t> payload =
      tb::payload_offset(*top, *sram, bytes.size());
  ASSERT_TRUE(payload) << "no sram_in payload in the blob";
  const std::size_t tag_at = *payload + 4 + 8 + 8;
  ASSERT_LT(tag_at, bytes.size());
  ASSERT_EQ(bytes[tag_at], rtl::kWordsData) << "the first page holds no data";
  const std::size_t at = tag_at + 1 + 8 * 5;
  ASSERT_LE(at + 8, bytes.size());
  ASSERT_EQ(bytes[at + 1], 0u) << "word 5 is not where expected";
  bytes[at + 1] = 1;
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "a 9-bit word restored into an 8-bit SRAM";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("module 'saa2vga_pattern.sram_in'"));
    EXPECT_THAT(e.what(),
                HasSubstr("memory word 5 is 8 bits wide and cannot hold "
                          "the value 0x1"));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  expect_runs_to_camera_frames(sim, *top, cfg);
}

TEST(Snapshot, FailedRestoreOfAReshapedSinkFrameStillResets) {
  // A blob whose sink frame claims another shape fails after mutation
  // began, so the simulator falls back to its construction baseline —
  // in which the frame's pixels are elided.  The frame being assembled
  // outlives reset(), so that fallback, and every later reset(), must
  // reshape it back to the configured 16x12 from the baseline.
  const designs::Saa2VgaConfig cfg =
      small_saa2vga(devices::DeviceKind::FifoCore);
  const auto top = designs::make_saa2vga_pattern(cfg);
  Simulator sim(*top, {});
  sim.reset();
  sim.step(100);  // mid-frame: pixels arrived, no frame collected yet
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();

  // The sink's payload: collected-frame count u32 (0 here), then the
  // frame being assembled, width first.
  const std::optional<std::size_t> payload =
      tb::payload_offset(*top, top->sink(), bytes.size());
  ASSERT_TRUE(payload) << "no vga payload in the blob";
  const std::size_t at = *payload;
  ASSERT_LE(at + 5, bytes.size());
  ASSERT_EQ(bytes[at], 0u) << "a frame was collected before the snapshot";
  ASSERT_EQ(bytes[at + 4], 16u) << "the frame width is not where expected";
  const std::size_t width_at = at + 4;
  bytes[width_at] = 8;
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "a 16x12 frame restored as 8x12";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("module 'saa2vga_pattern.vga'"));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  sim.reset();
  sim.reset();
  expect_runs_to_camera_frames(sim, *top, cfg);
}

/// SnapTop with a deeper FIFO: the depth changes no signal, so the
/// topology hash cannot tell the two apart — only the memory length in
/// the FIFO's payload can.
struct DeepSnapTop : SnapTop {
  DeepSnapTop() : SnapTop(8, 8) {}
};

TEST(Snapshot, MemoryOfAnotherSizeIsRejectedNamingTheModule) {
  SnapTop shallow;
  rtl::Snapshot blob;
  std::uint64_t shallow_hash = 0;
  {
    Simulator sim(shallow, {});
    sim.reset();
    run_steps(sim, 6);
    blob = sim.save_snapshot();
    shallow_hash = sim.topology_hash();
  }
  DeepSnapTop deep;
  Simulator sim(deep, {});
  sim.reset();
  ASSERT_EQ(sim.topology_hash(), shallow_hash)
      << "the FIFO depth became visible to the topology hash; this test "
         "no longer reaches the payload check";
  try {
    sim.restore_snapshot(blob);
    FAIL() << "a 4-word FIFO memory restored into an 8-word one";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("module 'snaptop.fifo'"));
    EXPECT_THAT(e.what(), HasSubstr("memory holds 8 word(s)"));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  // Never half-restored: the run continues like a fresh construct.
  DeepSnapTop fresh;
  Simulator ref(fresh, {});
  ref.reset();
  run_steps(ref, 9);
  sim.reset_stats();
  run_steps(sim, 9);
  EXPECT_EQ(Observed::of(sim, deep), Observed::of(ref, fresh));
}

TEST(Snapshot, OutOfRangeDeviceScalarIsRejectedNamingTheField) {
  SnapTop top;  // FIFO depth 4
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 6);
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();
  // FIFO payload: head, count, then the memory.
  const std::optional<std::size_t> payload =
      tb::payload_offset(top, top.fifo, bytes.size());
  ASSERT_TRUE(payload) << "no FIFO payload in the blob";
  const std::size_t at = *payload;
  ASSERT_LE(at + 16, bytes.size());
  const std::uint64_t count = 4 + 1;  // depth + 1
  for (int i = 0; i < 8; ++i)
    bytes[at + 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(count >> (8 * i));
  try {
    sim.restore_snapshot(rtl::Snapshot(bytes));
    FAIL() << "a FIFO count beyond its depth was restored";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("module 'snaptop.fifo'"));
    EXPECT_THAT(e.what(), HasSubstr("count = 5"));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  // The failed restore left the simulator exactly like a fresh reset().
  SnapTop fresh;
  Simulator ref(fresh, {});
  ref.reset();
  run_steps(ref, 9);
  sim.reset_stats();
  run_steps(sim, 9);
  EXPECT_EQ(Observed::of(sim, top), Observed::of(ref, fresh));
}

/// A 4-bit counter: every state a run reaches has q in 0..15.
struct NibbleTop : Module {
  Bus q{*this, "q", 4};
  NibbleTop() : Module(nullptr, "nibtop") {}
  void on_clock() override { q.write(q.read() + 1); }
  void on_reset() override { q.write(0); }
  void declare_state() override { register_seq(q); }
};

TEST(Snapshot, BusValueWiderThanItsSignalIsRejectedNamingTheSignal) {
  NibbleTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 3);
  const std::vector<std::uint8_t> good = sim.save_snapshot().bytes();
  // v1 layout up to the values (see DuplicateFanoutEntryInBlobRejects-
  // Loudly): one domain, then the signal count and q's value.
  const std::size_t q_at =
      4 + 1 + 1 + 8 + 8 + 8 + 8 * 1 + 12 * 8 + (4 + 8 * 1) + 4;
  ASSERT_EQ(rd_u64(good, q_at), 3u) << "value offset drifted";
  std::vector<std::uint8_t> bad = good;
  wr_u64(bad, q_at, 0xFFFF);
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bad)));
    FAIL() << "a 4-bit register restored the value 0xffff";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("signal 'nibtop.q'"));
    EXPECT_THAT(e.what(), HasSubstr("4 bits wide"));
    EXPECT_THAT(e.what(), HasSubstr("0xffff"));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(top.q.read(), 0u);
  // The widest value that fits restores, and counts on from there.
  std::vector<std::uint8_t> top_value = good;
  wr_u64(top_value, q_at, 0xF);
  sim.restore_snapshot(rtl::Snapshot(std::move(top_value)));
  EXPECT_EQ(top.q.read(), 0xFu);
  sim.step();
  EXPECT_EQ(top.q.read(), 0u);
}

/// A toggling Bit: every state a run reaches has t = 0 or 1.
struct ToggleTop : Module {
  Bit t{*this, "t"};
  ToggleTop() : Module(nullptr, "toggletop") {}
  void on_clock() override { t.write(!t.read()); }
  void on_reset() override { t.write(false); }
  void declare_state() override { register_seq(t); }
};

TEST(Snapshot, BitValueOtherThanZeroOrOneIsRejectedNamingTheSignal) {
  ToggleTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 3);
  const std::vector<std::uint8_t> good = sim.save_snapshot().bytes();
  // v1 layout up to the values: one domain, then the signal count and
  // t's value, one byte.
  const std::size_t t_at =
      4 + 1 + 1 + 8 + 8 + 8 + 8 * 1 + 12 * 8 + (4 + 8 * 1) + 4;
  ASSERT_EQ(good[t_at], 1u) << "value offset drifted";
  std::vector<std::uint8_t> bad = good;
  bad[t_at] = 2;
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bad)));
    FAIL() << "a Bit restored the byte 2";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("signal 'toggletop.t'"));
    EXPECT_THAT(e.what(), HasSubstr("1 bit wide"));
    EXPECT_THAT(e.what(), HasSubstr("0x2"));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_FALSE(top.t.read());
  // The intact blob restores and saves back byte for byte.
  sim.restore_snapshot(rtl::Snapshot(good));
  EXPECT_TRUE(top.t.read());
  EXPECT_EQ(sim.save_snapshot().bytes(), good);
}

/// Saves the 16x12 SRAM saa2vga_pattern after 300 steps with one field
/// of its first SRAM stream container's payload (`len` little-endian
/// bytes at `at`) patched to `v`, and expects the restore to be refused
/// naming the container and `field`, after which the design still runs
/// to its camera frames.
void expect_sram_field_rejected(std::size_t at, int len, std::uint64_t v,
                                const std::string& field) {
  const designs::Saa2VgaConfig cfg = small_saa2vga(devices::DeviceKind::Sram);
  const auto top = designs::make_saa2vga_pattern(cfg);
  const core::SramStreamContainer* box = nullptr;
  top->visit([&](Module& m) {
    if (box == nullptr)
      box = dynamic_cast<const core::SramStreamContainer*>(&m);
  });
  ASSERT_NE(box, nullptr);
  Simulator sim(*top, {});
  sim.reset();
  sim.step(300);
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();
  const std::optional<std::size_t> payload =
      tb::payload_offset(*top, *box, bytes.size());
  ASSERT_TRUE(payload) << "no " << box->full_name() << " payload in the blob";
  const std::size_t pos = *payload + at;
  ASSERT_LE(pos + static_cast<std::size_t>(len), bytes.size());
  for (int i = 0; i < len; ++i)
    bytes[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "an SRAM container restored " << field << " = " << v;
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("module '" + box->full_name() + "'"));
    EXPECT_THAT(e.what(), HasSubstr(field + " = "));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  expect_runs_to_camera_frames(sim, *top, cfg);
}

// SramStreamContainer payload: state_ u32, then head_, tail_ and count_
// as i64.
TEST(Snapshot, SramContainerHeadOutsideItsCapacityIsRejected) {
  expect_sram_field_rejected(4, 8, std::uint64_t{1} << 30, "head_");
}

TEST(Snapshot, SramContainerNegativeCountIsRejected) {
  expect_sram_field_rejected(20, 8, static_cast<std::uint64_t>(-5),
                             "count_");
}

TEST(Snapshot, SramContainerUnknownStateIsRejected) {
  expect_sram_field_rejected(0, 4, 77, "state_");
}

// StateWriter::boolean() writes 0 or 1, so any other byte is a
// corrupted blob, not a flag that reads as true and saves back as 1.
TEST(Snapshot, BooleanByteOtherThanZeroOrOneIsRejectedNamingTheModule) {
  const designs::Saa2VgaConfig cfg = small_saa2vga(devices::DeviceKind::Sram);
  const auto top = designs::make_saa2vga_pattern(cfg);
  const Module* copy = nullptr;
  top->visit([&](Module& m) {
    if (m.name() == "copy") copy = &m;
  });
  ASSERT_NE(copy, nullptr);
  Simulator sim(*top, {});
  sim.reset();
  sim.step(300);
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();
  // Algorithm payload: running_ (one byte), then transfers_.
  const std::optional<std::size_t> payload =
      tb::payload_offset(*top, *copy, bytes.size());
  ASSERT_TRUE(payload) << "no copy payload in the blob";
  const std::size_t running_at = *payload;
  ASSERT_LT(running_at, bytes.size());
  ASSERT_LE(bytes[running_at], 1u) << "running_ offset drifted";
  bytes[running_at] = 2;
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "a boolean byte 2 was restored";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("module 'saa2vga_pattern.copy'"));
    EXPECT_THAT(e.what(), HasSubstr("boolean byte 2"));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  expect_runs_to_camera_frames(sim, *top, cfg);
}

/// Saves the 16x12 FIFO saa2vga_pattern after 100 steps (mid-frame:
/// pixels arrived, none collected) with the 8-byte field that ends
/// `from_end` bytes before the end of module `name`'s payload patched
/// to `v`, and expects the restore to be refused naming the module and
/// `field`, after which the design still runs to its camera frames.
void expect_video_field_rejected(const std::string& name,
                                 std::size_t from_end, std::uint64_t v,
                                 const std::string& field) {
  SCOPED_TRACE(name + "." + field + " = " + std::to_string(v));
  const designs::Saa2VgaConfig cfg =
      small_saa2vga(devices::DeviceKind::FifoCore);
  const auto top = designs::make_saa2vga_pattern(cfg);
  const Module* m = nullptr;
  top->visit([&](Module& x) {
    if (x.name() == name) m = &x;
  });
  ASSERT_NE(m, nullptr);
  Simulator sim(*top, {});
  sim.reset();
  sim.step(100);
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();
  const std::optional<std::size_t> payload =
      tb::payload_offset(*top, *m, bytes.size());
  ASSERT_TRUE(payload) << "no " << name << " payload in the blob";
  ASSERT_GE(*payload, 4u);
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i)
    len = len << 8 | bytes[*payload - 4 + static_cast<std::size_t>(i)];
  ASSERT_LE(from_end, len);
  const std::size_t at = *payload + len - from_end;
  wr_u64(bytes, at, v);
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "restored " << name << " with " << field << " = " << v;
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("module '" + m->full_name() + "'"));
    EXPECT_THAT(e.what(), HasSubstr(field + " = "));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  expect_runs_to_camera_frames(sim, *top, cfg);
}

// VideoSource payload: frame_idx_, pix_idx_, wait_ and sent_, 8 bytes
// each.  The decoder sends one frame of 16x12 pixels, one a cycle, with
// 8 cycles of blanking after it.
TEST(Snapshot, VideoSourceFrameIndexPastTheLastFrameIsRejected) {
  expect_video_field_rejected("decoder", 32, 2, "frame_idx");
}

TEST(Snapshot, VideoSourcePixelIndexPastItsFrameIsRejected) {
  expect_video_field_rejected("decoder", 24, 16 * 12, "pix_idx");
}

TEST(Snapshot, VideoSourceWaitBeyondIntervalAndBlankingIsRejected) {
  expect_video_field_rejected("decoder", 16, 9, "wait");
}

// VgaSink payload ends with pix_idx_ and wait_ (8 bytes each),
// streaming_ (1) and received_ (8).  The sink takes a pixel a cycle.
TEST(Snapshot, VgaSinkPixelIndexPastItsFrameIsRejected) {
  expect_video_field_rejected("vga", 25, 16 * 12, "pix_idx");
}

TEST(Snapshot, VgaSinkWaitBeyondItsIntervalIsRejected) {
  expect_video_field_rejected("vga", 17, 1, "wait");
}

}  // namespace
}  // namespace hwpat
