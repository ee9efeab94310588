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
//     mismatch, a device scalar out of range) fail loudly with
//     actionable messages and never leave the simulator half-restored;
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
#include <string>
#include <type_traits>
#include <vector>

#include "designs/design.hpp"
#include "devices/fifo.hpp"
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
    // ...re-save byte-identically (same version-1 format: scheduler,
    // stats, values, learned fanout in the same list order)...
    EXPECT_EQ(sim.save_snapshot(), pre_refactor_blob())
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
  const bool flags[4] = {true, false, false, true};

  rtl::StateWriter w;
  w.u32(0xa1b2c3d4u);
  w.words(mem);
  w.words({});
  w.array(ids, 3);
  w.bools(flags, 4);
  const std::vector<std::uint8_t> got = std::move(w).take();

  std::vector<std::uint8_t> want;
  append_le(want, 0xa1b2c3d4u, 4);
  append_le(want, mem.size(), 8);
  for (const Word v : mem) append_le(want, v, 8);
  append_le(want, 0, 8);
  for (const std::int32_t id : ids)
    append_le(want, static_cast<std::uint32_t>(id), 4);
  for (const bool f : flags) want.push_back(f ? 1 : 0);
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
  bool flags_back[4] = {};
  r.bools(flags_back, 4);
  EXPECT_TRUE(flags_back[0] && !flags_back[1] && !flags_back[2] &&
              flags_back[3]);
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

/// Builds a saa2vga pattern design and finds its VGA sink by name (the
/// design exposes the sink only as const).
std::unique_ptr<designs::VideoDesign> make_small_saa2vga(Module*& vga) {
  auto top = designs::make_saa2vga_pattern(
      {.width = 16, .height = 12, .buffer_depth = 64});
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
  // The FIFO is the last module in elaboration order, so its payload —
  // head, count, then the memory — ends the blob.
  rtl::StateWriter w;
  top.fifo.save_state(w);
  const std::vector<std::uint8_t> payload = std::move(w).take();
  ASSERT_GE(bytes.size(), payload.size());
  const std::size_t at = bytes.size() - payload.size();
  ASSERT_TRUE(std::equal(payload.begin(), payload.end(), bytes.begin() +
                         static_cast<std::ptrdiff_t>(at)))
      << "the FIFO payload no longer ends the blob; this test no longer "
         "reaches the FIFO's count";
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

}  // namespace
}  // namespace hwpat
