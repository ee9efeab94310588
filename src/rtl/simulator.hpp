// Multi-clock-domain cycle-accurate simulator.
//
// Time is an integer *tick* counter.  Each clock domain (rtl/clock.hpp)
// produces rising edges at ticks phase + k*period; one step() advances
// to the next tick with at least one edge — found through a
// tick-ordered binary heap of next-edge events, O(log D) in the domain
// count D — and executes every edge scheduled there:
//   1. settle combinational logic to a fixpoint (delta cycles),
//   2. run the on_clock() of every module on the firing domains'
//      *activation lists* on the settled values,
//   3. commit, then settle combinational logic again.
//
// A design without any Module::set_clock_domain() assignment lives
// entirely in the built-in default domain (period 1, phase 0) — then
// one step() is one edge of that domain and the kernel behaves
// bit-identically to the historical single-clock model.
//
// Because signals are two-phase, the order in which module processes
// run never affects results — including the order of on_clock() across
// domains that fire at the same tick (simultaneous edges are one
// event).  A design whose combinational logic does not reach a fixpoint
// within the delta limit raises CombLoopError — that is a bug in the
// modelled hardware (a combinational feedback loop), not in the
// simulator.  Combinational settling is domain-agnostic: comb processes
// model wires, and wires do not belong to a clock.
//
// Two scheduling kernels implement those semantics (bit-identically —
// tests/test_sim_kernel.cpp and tests/test_multiclock.cpp prove it
// differentially):
//
//  * event-driven (default): write() enqueues signal ids on the
//    writer's *per-partition* pending-commit list; settle() drains
//    per-domain dirty-module worklists seeded from the fanout of
//    committed signals.  Both the worklists and the pending lists are
//    *partitioned by clock domain* (every module and signal carries a
//    domain-affinity partition resolved at elaboration): a settle
//    visits only the partitions reachable from the firing domains'
//    dirty sets, so an edge in one domain leaves another domain's quiet
//    subtree entirely untouched (Stats::partition_settles /
//    partition_skips account for it; semantics are unchanged because
//    the per-delta eval set is the same, merely bucketed).  Module
//    sensitivity is discovered dynamically by tracing which signals
//    each eval_comb() reads (starting with an instrumented elaboration
//    settle and kept up to date on every evaluation, so data-dependent
//    reads are safe).
//    After a clock edge, modules that declared their sequential state
//    (Module::declare_state(): register_seq() signals + seq_touch()
//    reports) are re-evaluated only when a register signal they read
//    changed or they reported an internal-state change; modules without
//    a declaration (`opaque_state`) are conservatively re-evaluated
//    after every edge *of their own domain*, because their on_clock()
//    may change internal C++ state invisibly to the signal graph.
//
//  * full_sweep (Options::full_sweep): the original reference kernel —
//    every delta evaluates all modules and commits all signals.  Clock
//    edges still fire only the activation lists of the domains due at
//    the current tick (that is semantics, not scheduling).  Keep it for
//    differential testing and for testbenches that mutate module state
//    behind the kernel's back between settles.
//
// Kernel memory layout (the data-oriented refactor; see
// src/rtl/README.md): all hot per-signal and per-module kernel state —
// committed/next values of Word and bool signals, pending/dirty flags,
// SigKind tags, partition ids, trace stamps — lives in dense SoA arrays
// owned by this class and indexed by the dense signal/module ids, so
// the settle and commit loops stream contiguous memory instead of
// chasing heap objects.  The learned fanout (signal -> reader modules)
// and the accumulated per-module read sets are CSR-style spans
// ([begin,count,cap) per id) into two shared pools, deduplicated with a
// seen-stamp instead of a linear find.  Everything the elaboration
// builds — the SoA arrays, both CSR pools, the partition work/pending
// lists, the per-domain activation lists — is allocated from a
// per-simulator bump arena (rtl/arena.hpp): teardown frees a handful of
// chunks no matter the design size, and a fresh simulator (a
// SweepDriver job, a run_forked() branch) pays no per-node heap traffic
// to elaborate.
//
// Threading: a Simulator runs on the thread that calls it, one call at
// a time.  Parallelism lives one level up — SweepDriver (rtl/sweep.hpp)
// runs many independent simulators at once, one per worker thread.
//
// See src/rtl/README.md for the design discussion.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtl/arena.hpp"
#include "rtl/clock.hpp"
#include "rtl/fault.hpp"
#include "rtl/module.hpp"
#include "rtl/trace.hpp"

namespace hwpat::rtl {

class VcdWriter;

/// How a Simulator::run() call ended — the outcome the old throwing
/// run_until() folded into exceptions and internal flags, surfaced as a
/// value so embedders (the sweep driver, the C API) can branch on it
/// without a try/catch per variant.
enum class RunResult : unsigned char {
  PredSatisfied,  ///< the predicate returned true
  Timeout,        ///< max_cycles events consumed, predicate never held
  /// An injected fault (Options::fault_plan) unwound a settle or a
  /// commit mid-step and latched needs_recovery(): the state is
  /// half-applied, so restore_snapshot() or reset() before stepping
  /// on.  Faults that abort a clock-edge event *transactionally*
  /// (check/edge points: zero residue, retry is safe) are retried by
  /// run() internally and never surface as a result.
  FaultLatched,
};

[[nodiscard]] const char* to_string(RunResult r);

/// Value-carrying outcome of Simulator::run().
struct RunStatus {
  RunResult result = RunResult::PredSatisfied;
  std::uint64_t steps = 0;  ///< clock-edge events consumed by the call
  [[nodiscard]] bool ok() const {
    return result == RunResult::PredSatisfied;
  }
  explicit operator bool() const { return ok(); }
};

class Simulator {
 public:
  struct Options {
    /// Use the O(modules × signals) reference kernel instead of the
    /// event-driven one.
    bool full_sweep = false;
    /// Maximum delta iterations per settle before CombLoopError.
    /// Rejected at elaboration when not positive.
    int delta_limit = 256;
    /// Verify the declared sequential-state contract on every clock
    /// edge (event kernel only): a declared module whose on_clock()
    /// writes a signal outside its register_seq() set raises
    /// ProtocolError.  On by default; the cost is one pending-list size
    /// compare per partition after each on_clock() call, and a scan of
    /// the appended entries against the module's declaration only when
    /// its call grew a list.  Best-effort: a write to a signal that is
    /// already pending from an earlier writer on the same edge (or one
    /// that leaves the value unchanged) is attributed to the first
    /// writer only — those cases, and the invisible-internal-state half
    /// of the contract, are covered by the differential tests instead.
    bool check_seq_contract = true;
    /// Physical duration of one scheduler tick in picoseconds; feeds
    /// the VCD `$timescale` so multi-clock traces are time-correct.
    /// Pick the greatest common divisor of the modelled clock periods
    /// (e.g. 10'000 for a 100 MHz memory clock against a 33.3 MHz
    /// pixel clock expressed as periods 1 and 3).  Rejected at
    /// elaboration when zero/negative.  Default: 1 ns per tick, which
    /// reproduces the historical single-clock header exactly.
    std::int64_t tick_ps = 1000;
    /// Fault-injection plan, "<point>@<step>[+<k>]" (see rtl/fault.hpp;
    /// empty = disabled): forces one FaultInjected throw at the chosen
    /// point of the event loop, for crash-consistency testing.  Parsed
    /// at construction; malformed plans throw Error there.
    std::string fault_plan{};
  };

  /// Work counters, cumulative since construction or reset_stats().
  /// evals/commits are the quantities the event-driven kernel exists to
  /// shrink; perfbench reports them per step (`rtl.evals_per_step`,
  /// `rtl.commits_per_step`) and bench_stats_gate gates them.
  struct Stats {
    std::uint64_t steps = 0;    ///< clock-edge events (ticks with edges)
    std::uint64_t settles = 0;  ///< settle() fixpoint searches
    std::uint64_t deltas = 0;   ///< delta cycles across all settles
    std::uint64_t evals = 0;    ///< eval_comb() calls
    std::uint64_t commits = 0;  ///< signal commits (fast or virtual)
    std::uint64_t commit_changes = 0;  ///< commits that changed the value
    std::uint64_t seq_touches = 0;  ///< seq_touch() reports across edges
    /// Modules NOT re-evaluated immediately after a clock-edge event
    /// thanks to the declared sequential-state protocol (full-sweep and
    /// opaque designs keep it at 0).
    std::uint64_t seq_skips = 0;
    /// Domain edges executed (>= steps: domains firing at the same tick
    /// are one step but several edges; == steps when single-domain).
    std::uint64_t edges = 0;
    /// on_clock() calls NOT made because the module is outside the
    /// firing domain's activation list — the per-edge O(all-modules)
    /// loop the activation lists eliminated.  Stays 0 single-domain.
    std::uint64_t act_skips = 0;
    /// Per-domain dirty partitions actually settled: one count per
    /// (settle, partition-with-dirty-modules) pair in the event kernel.
    /// Full-sweep keeps it at 0 (it has no dirty sets to partition).
    std::uint64_t partition_settles = 0;
    /// Partitions left untouched by a settle because nothing reachable
    /// from the firing domains' dirty sets lives there — the quiet
    /// subtrees the per-domain partitioning exists to skip.  Stays low
    /// single-domain (only fully quiet settles count); grows with
    /// domain count.  Full-sweep keeps it at 0.
    std::uint64_t partition_skips = 0;
    /// Edges executed per domain, indexed like domain_info().
    std::vector<std::uint64_t> domain_edges;
  };

  /// Static description of one resolved clock domain (see domain_count).
  struct DomainInfo {
    std::string name;          ///< domain name ("clk" for the default)
    std::uint64_t period = 1;  ///< ticks between edges
    std::uint64_t phase = 0;   ///< first edge at phase + period
    /// Modules clocked by this domain — including declare_comb_only()
    /// modules, which are pruned from the activation list itself (so
    /// this can exceed the number of on_clock() calls per edge).
    std::size_t modules = 0;
  };

  /// Footprint of the per-simulator arena that owns the elaborated
  /// graph (SoA arrays, CSR pools, partition lists, activation lists).
  /// Deterministic for a given design + run, so benches can chart it.
  struct MemoryStats {
    std::size_t arena_bytes_used = 0;      ///< bytes handed out
    std::size_t arena_bytes_reserved = 0;  ///< bytes malloc'd in chunks
    std::size_t arena_chunks = 0;          ///< frees paid at teardown
  };

  /// Builds a simulator over the design rooted at `top`.  The module
  /// tree must not change shape afterwards (signals/modules/domains are
  /// discovered once, here).  At most one simulator may be bound to a
  /// design at a time; destroy the previous one first.
  explicit Simulator(Module& top) : Simulator(top, Options()) {}
  Simulator(Module& top, Options opt);
  ~Simulator();

  /// Applies on_reset() everywhere, then settles.  Call before stepping.
  void reset();

  /// Advances n clock-edge events — each one is the next tick at which
  /// at least one domain has an edge (single-domain: exactly one rising
  /// clock edge, as ever).
  void step(int n = 1);

  /// Steps until `pred()` is true, at most `max_cycles` edge events,
  /// and reports the outcome as a value (see RunResult) instead of an
  /// exception: Timeout is a result, not a throw, and an injected
  /// fault that latched needs_recovery() returns FaultLatched rather
  /// than escaping.  Injected faults that aborted an event
  /// *transactionally* are absorbed: the tick is retried (a fault plan
  /// fires at most once, so the retry is clean) and the run continues.
  /// Modelled design errors — ProtocolError, CombLoopError, a user
  /// process throwing — still propagate: those are bugs in the
  /// simulated hardware, not run outcomes.  The predicate is
  /// re-checked after the final step, so a condition that becomes true
  /// exactly at `max_cycles` is PredSatisfied, not Timeout.  On return
  /// the open VCD (if any) is complete on disk.
  template <typename Pred>
  [[nodiscard]] RunStatus run(Pred&& pred, std::uint64_t max_cycles) {
    for (std::uint64_t n = 0;; ++n) {
      if (pred()) return end_run({RunResult::PredSatisfied, n});
      if (n >= max_cycles) return end_run({RunResult::Timeout, n});
      if (!step_checked()) return end_run({RunResult::FaultLatched, n});
    }
  }

  /// Domain-filtered run(): like the two-argument overload, but for a
  /// predicate that can only change on edges of domain `domain_idx`
  /// (indexed like domain_info()) — the predicate is skipped after
  /// events where that domain did not fire.  Outcomes and step counts
  /// are identical to the unfiltered overload whenever the stated
  /// dependency actually holds.  Throws Error when domain_idx is out
  /// of range (that is API misuse, not a run outcome).
  template <typename Pred>
  [[nodiscard]] RunStatus run(Pred&& pred, std::uint64_t max_cycles,
                              std::size_t domain_idx) {
    require_domain_index(domain_idx, "run");
    if (pred()) return end_run({RunResult::PredSatisfied, 0});
    for (std::uint64_t n = 0;;) {
      if (n >= max_cycles) return end_run({RunResult::Timeout, n});
      if (!step_checked()) return end_run({RunResult::FaultLatched, n});
      ++n;
      if (last_event_fired(domain_idx) && pred())
        return end_run({RunResult::PredSatisfied, n});
    }
  }

  /// True when domain `domain_idx` fired at the most recent clock-edge
  /// event (false before the first step after construction or reset).
  [[nodiscard]] bool last_event_fired(std::size_t domain_idx) const {
    return std::find(firing_.begin(), firing_.end(), domain_idx) !=
           firing_.end();
  }

  /// Settles combinational logic without a clock edge (for comb-only
  /// tests and for observing post-reset state).
  void settle();

  /// Clock-edge events executed since construction/reset.
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  /// Current simulation time in ticks (the VCD timestamp of the last
  /// sample; 0 after reset).
  [[nodiscard]] std::uint64_t now() const { return tick_; }

  /// Number of resolved clock domains (1 for a fully unassigned tree).
  [[nodiscard]] std::size_t domain_count() const { return scheds_.size(); }
  /// Description of domain `i` (order: built-in default first if any
  /// module uses it, then explicit domains by first appearance in
  /// elaboration order — the same order Stats::domain_edges uses).
  /// Throws Error when `i` is out of range.
  [[nodiscard]] DomainInfo domain_info(std::size_t i) const;

  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats();

  /// Arena footprint of the elaborated graph (see MemoryStats).
  [[nodiscard]] MemoryStats memory_stats() const {
    return {arena_.bytes_used(), arena_.bytes_reserved(),
            arena_.chunk_count()};
  }

  /// Number of distinct reader modules learned for `s` so far (the
  /// length of its CSR fanout span).  Diagnostic: the fanout is a
  /// deduplicated set, so this must never exceed the number of modules
  /// that ever read `s`.  Throws Error for a signal outside this
  /// simulator's design.
  [[nodiscard]] std::size_t fanout_size(const SignalBase& s) const;

  /// Maximum delta iterations per settle before CombLoopError.  Throws
  /// Error (naming Options::delta_limit) when `limit` is not positive.
  void set_delta_limit(int limit);

  /// Starts dumping a VCD waveform of all hardware signals to `path`
  /// (timestamps in ticks, $timescale from Options::tick_ps).  Output
  /// is buffered: after step() the file's tail may still be in memory.
  /// Every run() return flushes it, and the destructor closes the file.
  void open_vcd(const std::string& path);

  /// Serializes complete simulator state — every signal's committed
  /// value, every module's save_state() payload, the scheduler (tick,
  /// per-domain next edges, stats) and the learned fanout lists — into
  /// a versioned blob guarded by topology_hash().  Must be called
  /// between steps (throws Error mid-event or after an exception
  /// unwound a settle/commit; restore or reset first).
  [[nodiscard]] Snapshot save_snapshot() const;

  /// Restores a snapshot taken from *this elaborated design* (same
  /// parameters — enforced via topology_hash(); mismatches throw
  /// Error).  Replay from the restored state is deterministic: stats,
  /// values and VCD bytes evolve exactly as they did after the capture
  /// point.  A corrupted blob throws Error; if corruption is detected
  /// after restoration began, the simulator is reset to construction
  /// state (and the message says so) — it is never left half-restored.
  void restore_snapshot(const Snapshot& snap);

  /// FNV-1a hash over the elaborated topology (module paths, signal
  /// ids/kinds/widths, partitions, domains) — the compatibility guard
  /// between a snapshot and the design it is restored into.
  [[nodiscard]] std::uint64_t topology_hash() const;

  /// True once the Options::fault_plan has fired (plans fire at most
  /// once per simulator lifetime).
  [[nodiscard]] bool fault_fired() const { return fault_fired_; }

  /// True while an exception that unwound a settle or a commit has
  /// left partially applied state behind — the condition run() reports
  /// as FaultLatched.  save_snapshot() refuses in this state;
  /// restore_snapshot() or reset() clears it.
  [[nodiscard]] bool needs_recovery() const { return needs_recovery_; }

  /// One-line progress diagnostic: cycle, tick and per-domain edge
  /// counts (with period/phase where non-default) — the context to log
  /// next to a run() that came back Timeout.
  [[nodiscard]] std::string progress_report() const;

  // ---- telemetry (rtl/trace.hpp) ------------------------------------
  // Wall-time observability, strictly separated from the deterministic
  // Stats counters: attaching a tracer perturbs no counter, no VCD
  // byte and no scheduling decision (gated by tests/test_telemetry.cpp
  // and by bench_stats_gate --trace in CI).  With tracing off the hot
  // path pays exactly one null-pointer branch per hook.

  /// Attaches a fresh Tracer (replacing any previous one).  With
  /// Options::profile_modules the module paths are captured for the
  /// hot-modules report.  Call between steps.
  void trace_start(const Tracer::Options& topt = {});
  /// Detaches and destroys the tracer; a no-op when tracing is off.
  void trace_stop();
  /// The attached tracer, or nullptr when tracing is off.  Owned by
  /// the simulator — valid until trace_stop()/trace_start()/destruction.
  [[nodiscard]] Tracer* telemetry() const { return telem_; }
  /// Flushes the attached tracer as Chrome-trace-event JSON to `path`
  /// (throws Error when tracing is off or the file cannot be written).
  void trace_write(const std::string& path) const;

 private:
  /// Rejects every invalid Options field at elaboration with a message
  /// naming the field, instead of silent acceptance or a deep-in-run
  /// failure (run from the constructor, before anything is bound).
  static void validate_options(const Options& opt);

  /// One step() with the fault-injection engine absorbed: a
  /// FaultInjected that aborted the event transactionally (zero
  /// residue) is retried — the plan has fired, so the retry is clean —
  /// and true is returned; one that unwound a settle/commit leaves
  /// needs_recovery() latched and returns false.  Every other
  /// exception propagates.  The body of run().
  bool step_checked();

  /// Every run() return goes through here: flushes the open VCD, so
  /// the waveform is complete on disk when run() returns.
  RunStatus end_run(RunStatus st);

  /// Throws Error when `domain_idx` is not a valid domain_info() index
  /// (`who` names the calling API in the message).
  void require_domain_index(std::size_t domain_idx, const char* who) const;

  /// Per-domain scheduler state: the activation list (modules whose
  /// on_clock() runs on this domain's edges) and the next edge tick.
  /// The module lists live in the simulator's arena.
  struct DomainSched {
    explicit DomainSched(Arena* a)
        : active(ArenaAlloc<Module*>(a)),
          opaque(ArenaAlloc<Module*>(a)),
          checkers(ArenaAlloc<Module*>(a)) {}

    const ClockDomain* domain = nullptr;  ///< nullptr = built-in default
    std::string name = "clk";
    std::uint64_t period = 1;
    std::uint64_t phase = 0;
    std::uint64_t next_edge = 1;
    /// Modules clocked by this domain whose on_clock() actually runs —
    /// declare_comb_only() modules are pruned out entirely.
    ArenaVector<Module*> active;
    /// Count of comb-only modules pruned from `active` (keeps the
    /// act_skips accounting and DomainInfo::modules at their
    /// historical, pre-pruning meaning).
    std::size_t pruned = 0;
    ArenaVector<Module*> opaque;  ///< active subset without declarations
    /// Active subset that opted into the on_clock_check() validate
    /// phase (strict devices).  Empty for most designs, so the extra
    /// per-edge pass costs nothing unless a strict device exists.
    ArenaVector<Module*> checkers;
  };

  /// Heap order for the tick-ordered edge scheduler: a min-heap on
  /// (next_edge, domain index) via std::*_heap's max-heap convention.
  /// The index tiebreak makes simultaneous edges pop in domain order,
  /// exactly like the linear scan the heap replaced.
  struct EdgeLater {
    const std::vector<DomainSched>* scheds;
    bool operator()(std::size_t a, std::size_t b) const {
      const std::uint64_t ta = (*scheds)[a].next_edge;
      const std::uint64_t tb = (*scheds)[b].next_edge;
      return ta != tb ? ta > tb : a > b;
    }
  };

  void bind();
  void unbind();
  /// Allocates the dense SoA arrays and CSR index arrays from the
  /// arena, adopts every Word/bool signal's two-phase values into the
  /// dense value arrays, and seeds the per-id state.  Part of bind().
  void build_soa();
  /// Resolves every module's effective domain (nearest ancestor with an
  /// explicit assignment, else the built-in default), builds the
  /// per-domain activation lists, and stamps every module's
  /// domain-affinity partition.  Part of bind().
  void build_domains();
  std::size_t sched_index_for(const ClockDomain* d);
  /// Rebuilds the tick-ordered edge heap from the scheds_' next_edge
  /// fields (bind and reset).
  void build_edge_heap();
  /// Pops every domain due at the soonest tick off the edge heap into
  /// firing_ (ascending domain index) and returns that tick — O(log D)
  /// per popped edge instead of the former linear scan over domains.
  std::uint64_t pop_due_edges();
  /// Re-arms the popped domains one period later and pushes them back
  /// onto the edge heap.
  void rearm_fired_edges();
  void commit_all(bool* changed);
  void settle_full_sweep();
  void settle_event();
  /// Commits every signal on every partition's pending list (ascending
  /// partition order); fanout modules of signals whose value changed
  /// are pushed onto their partition's dirty worklist.
  void commit_pending();
  /// One partition's share of commit_pending().
  struct Partition;
  void drain_pending(Partition& part);

  // ---- dense-id kernel primitives (SoA hot paths) -------------------

  /// Commits signal `sid` through the dense value arrays (Word/bool)
  /// or the virtual fallback (kOther).  Returns true when the visible
  /// value changed.
  bool commit_signal(std::int32_t sid) {
    const std::uint32_t slot = sig_slot_[sid];
    switch (static_cast<SigKind>(sig_kind_[sid])) {
      case SigKind::kWord:
        if (word_nxt_[slot] == word_cur_[slot]) return false;
        word_cur_[slot] = word_nxt_[slot];
        return true;
      case SigKind::kBool:
        if (bool_nxt_[slot] == bool_cur_[slot]) return false;
        bool_cur_[slot] = bool_nxt_[slot];
        return true;
      case SigKind::kOther:
        break;
    }
    return signals_[static_cast<std::size_t>(sid)]->commit();
  }

  /// next := current for signal `sid` (aborted-event rollback).
  void discard_signal(std::int32_t sid) {
    const std::uint32_t slot = sig_slot_[sid];
    switch (static_cast<SigKind>(sig_kind_[sid])) {
      case SigKind::kWord:
        word_nxt_[slot] = word_cur_[slot];
        return;
      case SigKind::kBool:
        bool_nxt_[slot] = bool_cur_[slot];
        return;
      case SigKind::kOther:
        signals_[static_cast<std::size_t>(sid)]->discard_write();
        return;
    }
  }

  /// Appends module `mid` to signal `sid`'s CSR fanout span, growing
  /// (relocating to the pool tail) when the span is full.
  void fan_push(std::int32_t sid, std::int32_t mid);
  /// Appends signal `sid` to module `mid`'s CSR accumulated-read-set
  /// span.  fan_push/sens_push always run as a pair, preserving the
  /// invariant  s ∈ reads(m)  ⟺  m ∈ fanout(s).
  void sens_push(std::int32_t mid, std::int32_t sid);
  /// Folds one traced evaluation's reads into the fanout CSR: for every
  /// read signal whose last_reader_ is not `mid`, membership of the
  /// (signal, module) edge is decided by stamping the module's
  /// accumulated read set into sig_mark_ under a fresh mark_epoch_ —
  /// O(reads) instead of the former per-signal linear find.
  void merge_reads(std::int32_t mid,
                   const std::vector<std::int32_t>& reads);

  /// Runs one eval_comb() under the read tracer and folds newly observed
  /// reads into the fanout/read-set CSRs.
  void eval_traced(Module* m);
  /// The eval_comb() call itself, with the telemetry profiling hook
  /// folded in (reached only when a tracer is attached).
  void eval_profiled(Module* m);
  /// One activation-list on_clock() call.  Tracing off — the only
  /// state benchmarked — is a single null-pointer branch.
  void run_on_clock(Module* m) {
    if (telem_ == nullptr) {
      m->on_clock();
      return;
    }
    run_on_clock_profiled(m);
  }
  void run_on_clock_profiled(Module* m);
  void mark_all_modules_dirty();
  void mark_module_dirty(std::int32_t mid) {
    if (mod_dirty_[mid] != 0) return;
    mod_dirty_[mid] = 1;
    const std::size_t pi = static_cast<std::size_t>(mod_part_[mid]);
    Partition& p = parts_[pi];
    p.worklist.push_back(mid);
    if (!single_part_ && !p.queued) {
      p.queued = true;
      dirty_parts_.push_back(pi);
    }
  }
  /// Modules currently on a dirty worklist, summed over partitions.
  [[nodiscard]] std::size_t dirty_module_count() const;
  /// Runs one clock-edge event's module work *transactionally* — shared
  /// by both kernels so their Stats can never desynchronize:
  ///   1. validate phase: on_clock_check() of every firing checker,
  ///      across all firing domains, before any state advances — a
  ///      strict device's ProtocolError aborts the event as a no-op;
  ///   2. mutate phase: on_clock() of every firing activation list
  ///      (with the sequential-write contract check when asked);
  ///   3. counter phase: edges/domain_edges/act_skips, bumped only once
  ///      the whole event succeeded.
  void fire_edges(bool check_contract);
  /// fire_edges() + commit for the full-sweep kernel, with the aborted
  /// event's direct next-value writes discarded on a throw.
  void fire_edges_full_sweep();
  /// fire_edges() plus the event kernel's post-edge scheduling: fanout
  /// of changed register signals (via commit_pending()), seq_touch()
  /// reporters, and the firing domains' opaque_state modules.  On a
  /// mid-event throw the pending writes and seq_touch() reports of the
  /// aborted event are rolled back (abort_edge_event) before
  /// rethrowing.
  void clock_edge_event();
  /// Rolls back the bufferable side effects of an aborted clock-edge
  /// event: drains every partition's pending list (discarding the
  /// written next-values) and the touched-module list.  The lists held
  /// only this event's entries — fire_edges() runs straight after a
  /// settle, which leaves them empty.
  void abort_edge_event();
  /// Verifies that a declared module's on_clock() only wrote registered
  /// signals: the entries pending[first..] its call appended to one
  /// partition's pending list must all be in m's register declaration
  /// span (the seq CSR, built at bind from register_seq()); throws
  /// ProtocolError naming the module and the signal if not.
  void check_seq_writes_in(const Module* m,
                           const ArenaVector<std::int32_t>& pending,
                           std::size_t first) const;
  void mark_vcd_change(std::int32_t sid) {
    // sig_vcdmark_: 0 = clean, 1 = on vcd_changed_, 2 = never sampled
    // (width <= 0 testbench signals) — one branch covers both skips.
    if (sig_vcdmark_[sid] != 0) return;
    sig_vcdmark_[sid] = 1;
    vcd_changed_.push_back(sid);
  }
  void sample_vcd();
  [[noreturn]] void throw_comb_loop() const;

  /// Elaboration-time comb-only hardening (Options::check_seq_contract):
  /// throws Error when a declare_comb_only() module overrides
  /// on_clock()/on_clock_check() or registered sequential signals.
  void check_comb_only_contract();

  /// The snapshot's value section: every signal's committed value in id
  /// order, a Word/bool run at a time straight out of the value arrays.
  void save_values(StateWriter& w) const;
  /// Mirror of save_values(), onto both phases.
  void load_values(StateReader& r);
  /// The snapshot's fanout section: per signal, the CSR span's length
  /// and module ids in list order.
  void save_fanout(StateWriter& w) const;
  /// Mirror of save_fanout(): validates the whole section before
  /// publishing it, and rebuilds the read-set CSR as its transpose.
  void load_fanout(StateReader& r);
  /// Length-framed serialization of every module's save_state payload
  /// (shared by save_snapshot and the construction-time baseline).
  void save_module_states(StateWriter& w) const;
  /// Mirror of save_module_states: throws Error (with the module path)
  /// when a module's load_state consumes a different byte count than
  /// its save_state produced.
  void load_module_states(StateReader& r);

  /// Fault-injection hook.  The fast path is one enum compare (plans
  /// are rare); the slow path applies the step window and occurrence
  /// count, then throws FaultInjected.
  void maybe_inject(FaultPoint p) {
    if (p != fault_.point || fault_fired_) return;
    inject_slow(p);
  }
  void inject_slow(FaultPoint p);

  /// Marks the simulator busy for the duration of a kernel entry point
  /// (step/settle/reset) — snapshot calls from inside module callbacks
  /// are rejected while set.  Cleared on exception unwind, so a fault
  /// that escapes to the caller leaves the simulator restorable.
  struct BusyGuard {
    explicit BusyGuard(bool& flag) : flag_(flag), owned_(!flag) {
      flag = true;
    }
    ~BusyGuard() {
      if (owned_) flag_ = false;
    }
    BusyGuard(const BusyGuard&) = delete;
    BusyGuard& operator=(const BusyGuard&) = delete;

   private:
    bool& flag_;
    bool owned_;
  };

  Module& top_;
  Options opt_;
  /// Owns every byte of the elaborated graph's kernel storage (see
  /// rtl/arena.hpp).  Declared before every member that allocates from
  /// it, so construction order is sound and teardown frees the chunks
  /// after the containers died (their deallocate is a no-op anyway).
  Arena arena_;
  std::vector<Module*> modules_;
  std::vector<SignalBase*> signals_;
  std::uint64_t cycle_ = 0;
  std::uint64_t tick_ = 0;
  Stats stats_;
  std::unique_ptr<VcdWriter> vcd_;

  // ---- dense SoA kernel state (arena-allocated, indexed by id) ------
  // Per-signal arrays, length signals_.size():
  unsigned char* sig_kind_ = nullptr;     ///< SigKind tag
  unsigned char* sig_pending_ = nullptr;  ///< on a pending-commit list
  unsigned char* sig_vcdmark_ = nullptr;  ///< 0 clean / 1 listed / 2 never
  std::int16_t* sig_part_ = nullptr;      ///< domain-affinity partition
  std::uint32_t* sig_slot_ = nullptr;     ///< index into the value arrays
  std::uint64_t* sig_stamp_ = nullptr;    ///< ReadTracer dedup stamps
  std::uint64_t* sig_mark_ = nullptr;     ///< merge_reads() seen-stamps
  std::int32_t* last_reader_ = nullptr;   ///< last merged reader (-1)
  // Dense two-phase value arrays; Word/bool signals' curp_/nxtp_ point
  // into these after bind (slot order = id order, so commits stream).
  Word* word_cur_ = nullptr;
  Word* word_nxt_ = nullptr;
  bool* bool_cur_ = nullptr;
  bool* bool_nxt_ = nullptr;
  // CSR fanout (signal -> reader-module ids) and accumulated read sets
  // (module -> signal ids): [begin, begin+count) spans into the pools,
  // with cap for amortized relocate-to-tail growth.
  std::uint32_t* fan_begin_ = nullptr;
  std::uint32_t* fan_count_ = nullptr;
  std::uint32_t* fan_cap_ = nullptr;
  std::uint32_t* sens_begin_ = nullptr;
  std::uint32_t* sens_count_ = nullptr;
  std::uint32_t* sens_cap_ = nullptr;
  // Per-module arrays, length modules_.size():
  unsigned char* mod_dirty_ = nullptr;  ///< on a dirty worklist
  std::int16_t* mod_part_ = nullptr;    ///< domain-affinity partition
  std::uint64_t* mod_mark_ = nullptr;   ///< restore-time dup detection
  // Per-module register-signal declarations as a CSR over signal ids
  // (the check_seq_writes_in() membership scan).
  std::uint32_t* seq_begin_ = nullptr;
  std::uint32_t* seq_count_ = nullptr;
  ArenaVector<std::int32_t> fan_pool_;   ///< CSR fanout storage
  ArenaVector<std::int32_t> sens_pool_;  ///< CSR read-set storage
  ArenaVector<std::int32_t> seq_pool_;   ///< CSR register-decl storage
  std::uint64_t mark_epoch_ = 0;         ///< merge_reads() stamp epoch

  // Tick-ordered edge scheduler state.  heap_ is a binary min-heap of
  // domain indices ordered by (next_edge, index) — index as tiebreak so
  // simultaneous edges pop in domain order, exactly like the linear
  // scan it replaced.
  std::vector<DomainSched> scheds_;
  std::vector<std::size_t> heap_;
  std::vector<std::size_t> firing_;  ///< domains firing at the current tick

  /// Per-domain dirty partition of the combinational settle: each
  /// domain's modules form one partition (Module::partition()), with a
  /// worklist of its own.  A settle drains only partitions reachable
  /// from the firing domains' dirty sets — cross-partition fanout arcs
  /// (the async-FIFO CDC boundary, by the contract in README.md) wake a
  /// foreign partition; everything else leaves it untouched.  Both
  /// lists hold dense ids and live in the arena.
  struct Partition {
    explicit Partition(Arena* a)
        : worklist(ArenaAlloc<std::int32_t>(a)),
          pending(ArenaAlloc<std::int32_t>(a)) {}

    ArenaVector<std::int32_t> worklist;  ///< dirty module ids, next delta
    /// Signal ids awaiting commit whose partition this is, enqueued by
    /// Signal::write() (routed at elaboration through
    /// SignalBase::queue_).
    ArenaVector<std::int32_t> pending;
    bool queued = false;            ///< on dirty_parts_
    std::uint64_t settle_seen = 0;  ///< last settle_seq_ that touched it
  };
  std::vector<Partition> parts_;           ///< indexed like scheds_
  std::vector<std::size_t> dirty_parts_;   ///< partitions with dirty modules
  std::vector<std::size_t> active_parts_;  ///< partitions in this delta
  std::uint64_t settle_seq_ = 0;           ///< unique id per settle_event()
  bool single_part_ = true;  ///< one partition: skip bucketing bookkeeping

  /// Telemetry (trace_start/trace_stop).  telem_ aliases telem_owned_
  /// so the hot-path hooks test one raw pointer; nullptr = tracing off.
  std::unique_ptr<Tracer> telem_owned_;
  Tracer* telem_ = nullptr;

  // Event-driven kernel state.
  ArenaVector<std::int32_t> eval_list_;   ///< dirty module ids, this delta
  std::vector<Module*> touched_;          ///< seq_touch() reporters, this edge
  std::vector<std::size_t> pend_mark_;    ///< pending sizes, contract check
  ReadTracer tracer_;
  std::uint64_t eval_stamp_ = 0;          ///< unique id per traced eval
  ArenaVector<std::int32_t> vcd_changed_;  ///< ids changed since last sample
  bool vcd_full_pending_ = false;          ///< next sample must scan all

  // Snapshot / crash-consistency state.
  bool busy_ = false;            ///< inside step()/settle()/reset()
  bool needs_recovery_ = false;  ///< an exception unwound a settle/commit
  /// Every module's save_state payload captured at construction, so
  /// reset() — after a restore, a crash, or an ordinary run — returns
  /// to construction-time state, not whatever the modules drifted to.
  std::vector<std::uint8_t> baseline_;

  // Fault-injection state (Options::fault_plan).
  FaultPlan fault_;
  bool fault_fired_ = false;
  std::uint64_t fault_seen_ = 0;  ///< eligible occurrences observed
};

}  // namespace hwpat::rtl
