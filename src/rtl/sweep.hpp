// SweepDriver: the batch simulation service.
//
// A design-space sweep elaborates N parameterized design variants and
// runs them concurrently on a pool of workers — one single-threaded
// Simulator per worker, embarrassingly parallel.  This is where the
// library's parallelism lives: a Simulator itself never spawns threads.
// Every job owns a private design instance built on the worker thread
// by its `build` factory, so the only shared state between concurrent
// runs is read-only configuration; per-variant results (stats, VCD
// bytes) are therefore invariant under the worker count, which
// tests/test_sweep.cpp gates at workers 1/2/4.
//
// Snapshot forking is the second mode (run_forked): warm up ONE
// simulator of the base variant, save_snapshot(), then restore the
// blob into K fresh branch simulators that diverge under per-branch
// stimulus / run-length / fault-plan overrides.  The PR 6 snapshot
// contract (cross-instance restore + deterministic replay) is exactly
// what makes the fork valid: every branch replays byte-identically to
// a fresh run warmed to the same point, so the warmup cost is paid
// once instead of K times.
//
// Results are reported in job order regardless of completion order,
// and a failing variant records its error text instead of aborting the
// sweep (the other variants' results are still wanted — that is the
// point of a batch service).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rtl/simulator.hpp"
#include "rtl/snapshot.hpp"

namespace hwpat::rtl {

/// Service-level configuration, validated by the SweepDriver
/// constructor (messages name the offending field).
struct SweepOptions {
  /// Concurrent worker threads (>= 1): each runs whole jobs, one
  /// Simulator at a time.  Clamped to the job count per call.
  int workers = 1;
  /// Per-job step budget for predicate-driven runs (> 0); jobs without
  /// a `done` predicate run exactly this many events.
  std::uint64_t max_cycles = 10'000'000;
  /// When non-empty, every measured run dumps a VCD to
  /// "<vcd_dir>/<job name>.vcd" (branches: "<base>.<branch>.vcd").
  /// The trace starts at the measurement point — after warmup / after
  /// the fork restore — so a branch VCD is byte-comparable with the
  /// equivalent fresh warmed run's.  The directory must exist.
  std::string vcd_dir;
};

/// One design variant of a sweep.
struct SweepJob {
  std::string name;         ///< unique label; appears in results/VCD paths
  Simulator::Options sim;   ///< per-variant kernel options
  /// Builds a fresh instance of the variant's design.  Called on the
  /// worker thread, possibly several times (fork mode builds one
  /// instance per branch), so it must be a pure factory.
  std::function<std::unique_ptr<Module>()> build;
  /// Finish predicate over the built design; null = run exactly
  /// SweepOptions::max_cycles events.
  std::function<bool(const Module&)> done;
  /// Events to run before the measured phase begins (and, in fork
  /// mode, the capture point of the base snapshot).
  std::uint64_t warmup = 0;
  /// Applied between warmup and the measured run — the same hook a
  /// fork branch applies after its restore, so a fresh warmed run and
  /// a restored branch can be driven identically.  May write signals
  /// (two-phase safe) or call design-specific APIs; may be null.
  std::function<void(Module&, Simulator&)> at_warmup;
};

/// One scenario branch of a snapshot fork.
struct SweepBranch {
  std::string name;  ///< unique label; result/VCD name is "<base>.<name>"
  /// Per-branch divergence point, applied to the restored simulator
  /// before the branch runs (stimulus/seed overrides).  May be null.
  std::function<void(Module&, Simulator&)> stimulus;
  /// Overrides the base job's finish predicate; null = inherit.
  std::function<bool(const Module&)> done;
  /// Overrides SweepOptions::max_cycles for this branch; 0 = inherit.
  std::uint64_t max_cycles = 0;
  /// Overrides Simulator::Options::fault_plan for this branch (crash
  /// scenarios forked from one warmed design); empty = inherit the
  /// base options' plan.  Construction-time only — it cannot change
  /// the topology, so the base snapshot stays restorable.
  std::string fault_plan;
};

/// Outcome of one job or branch, in submission order.
struct SweepResult {
  std::string name;
  /// False when the run threw (build failure, spec violation, modelled
  /// design error): `error` carries the exception text and every other
  /// field of the measured phase is zero.
  bool ok = false;
  std::string error;
  RunResult outcome = RunResult::PredSatisfied;
  std::uint64_t steps = 0;   ///< measured-phase events consumed
  std::uint64_t cycles = 0;  ///< Simulator::cycle() at the end
  std::uint64_t ticks = 0;   ///< Simulator::now() at the end
  Simulator::Stats stats;    ///< cumulative (warmup included)
  double wall_seconds = 0.0;     ///< measured phase only
  double steps_per_sec = 0.0;    ///< steps / wall_seconds
  std::size_t snapshot_bytes = 0;  ///< fork mode: base blob size
};

class SweepDriver {
 public:
  /// Validates `opt` (throws Error naming the field).
  explicit SweepDriver(SweepOptions opt);

  [[nodiscard]] const SweepOptions& options() const { return opt_; }

  /// Runs every job on the worker pool; results in job order.  Throws
  /// Error on malformed job lists (empty/duplicate names, null build)
  /// before any worker starts; individual run failures are reported
  /// per-result instead.
  [[nodiscard]] std::vector<SweepResult> run(
      const std::vector<SweepJob>& jobs) const;

  /// Snapshot fork: builds ONE instance of `base`, warms it for
  /// base.warmup events, save_snapshot()s, then runs every branch on
  /// the pool — fresh instance, restore_snapshot(blob), stimulus,
  /// measured run.  Results in branch order; `blob_out` (optional)
  /// receives the warmed base snapshot.  The base's at_warmup hook is
  /// NOT applied to the warmed instance — it belongs to the measured
  /// phase, which the branches own.
  [[nodiscard]] std::vector<SweepResult> run_forked(
      const SweepJob& base, const std::vector<SweepBranch>& branches,
      Snapshot* blob_out = nullptr) const;

 private:
  SweepOptions opt_;
};

}  // namespace hwpat::rtl
