// Telemetry for the simulation kernel: where wall-clock time goes.
//
// Strictly separated from Simulator::Stats.  Stats are *deterministic
// work counters* — bit-identical across kernels and reruns, gated in
// CI.  The Tracer measures *wall time*, which is neither, so nothing
// here may ever feed back into scheduling or counters: attaching a
// tracer changes how long a run takes, never what it computes
// (tests/test_telemetry.cpp gates VCD bytes and Stats with the tracer
// on vs off).
//
// Two instruments, both off unless Simulator::trace_start() is called:
//
//  * Phase spans — one timed interval per kernel phase occurrence
//    (clock-edge event, settle, pending-commit drain, snapshot
//    save/restore, reset), recorded into one
//    *bounded ring buffer*.  A tracer belongs to one simulator and is
//    written only by the thread running it, so the recorder needs no
//    locking.  When the ring wraps, the oldest spans are dropped and
//    counted (dropped()) — telemetry must never grow without bound
//    under a long run.
//
//  * Per-module profiling (Options::profile_modules) — cumulative
//    eval_comb()/on_clock() wall time and call counts per module path,
//    ranked into a top-N hot-modules report.
//
// The span log flushes as Chrome-trace-event JSON ("trace event
// format"), loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing, where nested phases (a settle inside an edge
// event's step) stack on one timeline.
//
// When tracing is off, the Simulator holds a null Tracer* and every
// hot-path hook is a single null-pointer branch; perfbench's untraced
// `rtl.run_ns_per_step` is what a step costs with those branches in.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hwpat::rtl {

/// Kernel phases a span can cover.  `arg` in TraceSpan is
/// phase-specific: the event tick for EdgeEvent, the current tick for
/// Settle, the number of signals committed for CommitDrain, the blob
/// size for snapshots.
enum class TracePhase : unsigned char {
  EdgeEvent,    ///< validate + mutate + post-edge marking of one event
  Settle,       ///< one settle() fixpoint search
  CommitDrain,  ///< one non-empty pending-commit drain
  SnapshotSave,
  SnapshotRestore,
  Reset,
};
inline constexpr std::size_t kTracePhaseCount = 6;

[[nodiscard]] const char* to_string(TracePhase p);

/// One recorded interval.  Times are nanoseconds on the steady clock,
/// relative to the owning Tracer's construction.
struct TraceSpan {
  TracePhase phase = TracePhase::EdgeEvent;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;  ///< phase-specific (see TracePhase)
};

/// Cumulative wall time + call attribution for one module
/// (hot_modules()).
struct ModuleProfile {
  std::string path;  ///< Module::full_name()
  std::uint64_t eval_calls = 0;
  std::uint64_t eval_ns = 0;
  std::uint64_t clock_calls = 0;
  std::uint64_t clock_ns = 0;
  [[nodiscard]] std::uint64_t total_ns() const { return eval_ns + clock_ns; }
};

class Tracer {
 public:
  struct Options {
    /// Spans retained; older spans are dropped (and counted) once the
    /// ring wraps.  0 selects the default.
    std::size_t ring_capacity = 1u << 14;
    /// Per-module eval_comb()/on_clock() timing.  Costs two clock
    /// reads per call, so leave it off when only phase spans are
    /// wanted.
    bool profile_modules = false;
  };

  /// Built by Simulator::trace_start(): when profiling, one path per
  /// module in sim_id order.
  Tracer(const Options& opt, std::vector<std::string> module_paths);

  /// Nanoseconds on the steady clock since construction — the time
  /// base of every span.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Records one span.  Spans land in the order they *end*, so an
  /// enclosing span follows the ones it contains (spans() re-sorts).
  void add(TracePhase phase, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t arg = 0);

  [[nodiscard]] bool profiling() const { return opt_.profile_modules; }
  /// Attributes one eval_comb() / on_clock() to module `id` (sim_id
  /// order, as passed to the constructor).  Profiling must be on.
  void add_eval(int id, std::uint64_t dur_ns);
  void add_clock(int id, std::uint64_t dur_ns);

  [[nodiscard]] const Options& options() const { return opt_; }
  /// Spans currently retained in the ring.
  [[nodiscard]] std::size_t span_count() const { return ring_.size(); }
  /// Spans evicted by the bounded ring since construction.
  [[nodiscard]] std::uint64_t dropped() const {
    return total_ - ring_.size();
  }
  /// Retained spans, sorted by start time.
  [[nodiscard]] std::vector<TraceSpan> spans() const;

  /// Cumulative (count, ns) per phase, summed over all spans ever
  /// recorded — ring eviction does not subtract from these.
  struct PhaseTotal {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  [[nodiscard]] PhaseTotal phase_total(TracePhase p) const {
    return phase_[static_cast<std::size_t>(p)];
  }

  /// Per-module profiles, hottest (total_ns) first, at most `top_n`
  /// entries; empty unless profiling.
  [[nodiscard]] std::vector<ModuleProfile> hot_modules(
      std::size_t top_n) const;
  /// The same as a printable table (ends with '\n'; empty string when
  /// profiling is off or nothing ran).
  [[nodiscard]] std::string hot_modules_report(std::size_t top_n) const;

  /// Flushes the span log as Chrome-trace-event JSON: one "X"
  /// (complete) event per span on one thread, and an "hwpat" object
  /// carrying the phase totals, drop count and hot-module profile.
  /// Load the file in Perfetto or chrome://tracing.
  void write_chrome_json(std::ostream& os) const;
  /// Same, to a file; throws Error when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  Options opt_;
  std::vector<std::string> paths_;  ///< module paths, sim_id order
  std::vector<TraceSpan> ring_;
  std::uint64_t total_ = 0;  ///< spans ever recorded
  std::array<PhaseTotal, kTracePhaseCount> phase_{};
  /// Per-module accumulators, sized to the module count iff profiling
  /// (indexed by sim_id).
  std::vector<std::uint64_t> eval_calls_, eval_ns_, clock_calls_, clock_ns_;
  std::uint64_t epoch_ns_;  ///< steady-clock origin of the time base
};

}  // namespace hwpat::rtl
