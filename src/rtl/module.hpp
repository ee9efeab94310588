// Module: the unit of hierarchy in the RTL kernel.
//
// A module owns signals (as C++ members), may have child modules, and
// participates in simulation through three virtual processes:
//
//   * eval_comb()  - combinational process; reads current values, writes
//                    next values of combinationally driven signals.  Run
//                    repeatedly by the settling loop until stable.
//   * on_clock()   - sequential process; run exactly once per rising
//                    edge, on settled inputs.  Writes register signals.
//   * on_reset()   - puts registers back to their initial state.
//
// Ownership: the C++ object graph owns modules (members, unique_ptr,
// ...); parent/child registration is non-owning bookkeeping used by the
// simulator, the VCD writer and the resource estimator to discover the
// design.
#pragma once

#include <string>
#include <vector>

#include "rtl/resources.hpp"
#include "rtl/signal.hpp"
#include "rtl/snapshot.hpp"

namespace hwpat::rtl {

class ClockDomain;

class Module {
 public:
  /// Creates a module named `name` under `parent` (nullptr for the top).
  explicit Module(Module* parent, std::string name);
  virtual ~Module();

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::string full_name() const;
  [[nodiscard]] Module* parent() const { return parent_; }
  [[nodiscard]] const std::vector<Module*>& children() const {
    return children_;
  }
  [[nodiscard]] const std::vector<SignalBase*>& signals() const {
    return signals_;
  }

  /// Assigns this module — and, by inheritance, every descendant
  /// without its own assignment — to clock domain `d` (nullptr clears
  /// the assignment back to "inherit").  The domain object is owned by
  /// the design, like modules themselves; it must outlive every
  /// Simulator bound to this tree.  Must be called while unbound:
  /// domains are resolved once, at elaboration — calling this while a
  /// Simulator is bound throws Error.
  void set_clock_domain(const ClockDomain* d);
  /// The explicit assignment on this module (nullptr = inherit from the
  /// parent; a fully unassigned tree runs in the simulator's built-in
  /// default domain of period 1).
  [[nodiscard]] const ClockDomain* clock_domain() const { return domain_; }

  /// Combinational process (see file comment).  Default: none.
  virtual void eval_comb() {}
  /// Sequential process, one call per rising clock edge.  Default: none.
  /// (The body sets the thread-local probe flag so the elaboration-time
  /// comb-only check can detect an override — see simulator.cpp.)
  virtual void on_clock() { base_clock_probe_ = true; }
  /// Validate phase of a clock-edge event, run for every module that
  /// opted in via enable_clock_check() — across ALL domains firing at
  /// the tick — before ANY on_clock() runs.  A strict device raises
  /// ProtocolError here, from settled inputs only, so an aborted event
  /// is a perfect no-op: no register write, no internal C++ state
  /// mutation, no counter advance anywhere — the retried step() re-fires
  /// the same tick as if the throw never happened.  Must not write
  /// signals or mutate state.  Default: nothing (the body only sets the
  /// comb-only override probe — see on_clock()).
  virtual void on_clock_check() const { base_clock_probe_ = true; }
  /// Reset registers to their initial values.  Default: none.
  virtual void on_reset() {}
  /// Sequential-state declaration hook, called once when a Simulator
  /// binds the design.  A module opts into post-edge skipping by
  /// declaring its sequential-state contract here:
  ///
  ///   * register_seq(sig) for every signal its on_clock() may write
  ///     (the "register" signals); change propagation for those runs
  ///     through the normal commit/fanout machinery, and
  ///   * seq_touch() from on_clock() whenever it mutates *internal C++
  ///     state* that eval_comb() reads (a FIFO occupancy counter, an
  ///     FSM state, a cached front element, ...), and
  ///   * declare_seq_state() when there is nothing to register (a pure
  ///     combinational wrapper, or a module whose on_clock() effects
  ///     are covered by seq_touch() alone).
  ///
  /// A declared module is re-evaluated after a clock edge only when a
  /// signal it reads changed or it called seq_touch() on that edge.
  /// The default declares nothing: the module stays `opaque_state` and
  /// is conservatively re-evaluated after every edge, which is always
  /// sound.  See src/rtl/README.md.
  virtual void declare_state() {}
  /// Reports this module's *own* synthesis primitives (children are
  /// visited separately).  Default: nothing — a pure wrapper.
  virtual void report(PrimitiveTally&) const {}

  /// Snapshot hooks (see src/rtl/README.md).  A module with internal
  /// C++ state that outlives a clock edge — exactly the state whose
  /// changes seq_touch() reports — serializes it here so
  /// Simulator::save_snapshot()/restore_snapshot() capture it.  The
  /// two must write and read the same byte sequence: the simulator
  /// length-frames each module's payload and throws Error when
  /// load_state() consumes a different count than save_state()
  /// produced.  Default: stateless (empty payload).
  virtual void save_state(StateWriter&) const {}
  virtual void load_state(StateReader&) {}

  /// True when this module made no sequential-state declaration (the
  /// conservative fallback).  Meaningful while bound to a Simulator.
  [[nodiscard]] bool opaque_state() const { return !seq_declared_; }
  /// True when this module asked for the on_clock_check() validate
  /// phase (enable_clock_check()).
  [[nodiscard]] bool has_clock_check() const { return clock_check_; }
  /// True when this module declared it has no sequential process
  /// (declare_comb_only()).  Meaningful while bound to a Simulator.
  [[nodiscard]] bool comb_only() const { return no_clock_; }
  /// Domain-affinity partition resolved by the binding Simulator
  /// (indexed like Simulator::domain_info(); the effective clock
  /// domain after inheritance).  -1 while unbound.
  [[nodiscard]] int partition() const { return part_; }
  /// Register signals declared via register_seq(); empty while unbound.
  [[nodiscard]] const std::vector<SignalBase*>& seq_signals() const {
    return seq_signals_;
  }

  /// Pre-order walk over this module and all descendants.
  template <typename F>
  void visit(F&& f) {
    f(*this);
    for (Module* c : children_) c->visit(f);
  }
  template <typename F>
  void visit(F&& f) const {
    f(static_cast<const Module&>(*this));
    for (const Module* c : children_) c->visit(f);
  }

 protected:
  /// Opts this module into the on_clock_check() validate phase.  Call
  /// at construction, like wiring (typically only when a strict mode is
  /// configured): it is part of the design, not of a simulator binding.
  void enable_clock_check() { clock_check_ = true; }
  /// Marks this module's sequential state as declared without
  /// registering any signal (see declare_state()).
  void declare_seq_state() { seq_declared_ = true; }
  /// The strongest declaration: this module has NO sequential process
  /// at all — on_clock() is the inherited empty default (on_reset()
  /// still runs).  The simulator then drops the module from its
  /// domain's activation list entirely, so edges cost it nothing — not
  /// even the empty virtual call.  A comb-only module may still have a
  /// validate phase (enable_clock_check() + on_clock_check()): a
  /// protocol checker that evaluates nothing, like a dissolved
  /// iterator.  Declaring this on a module that does override
  /// on_clock() silently disables that process; the elaboration-time
  /// contract check (Options::check_seq_contract) rejects it.  Implies
  /// declare_seq_state().
  void declare_comb_only() {
    seq_declared_ = true;
    no_clock_ = true;
  }
  /// Declares `s` as a register signal this module's on_clock() may
  /// write, and marks the state as declared.  Call from declare_state().
  void register_seq(SignalBase& s);
  /// Reports from on_clock() that internal C++ state readable by
  /// eval_comb() changed on this edge, so the simulator re-evaluates
  /// this module after the edge.  At most one enqueue per edge; a no-op
  /// while unbound or under the full-sweep kernel.
  void seq_touch() {
    if (seq_queue_ != nullptr && !seq_touched_) {
      seq_touched_ = true;
      seq_queue_->push_back(this);
    }
  }

 private:
  friend class SignalBase;
  friend class Simulator;
  void add_signal(SignalBase* s) { signals_.push_back(s); }
  void remove_signal(const SignalBase* s);
  void remove_child(const Module* m);

  Module* parent_;
  std::string name_;
  std::vector<Module*> children_;
  std::vector<SignalBase*> signals_;
  const ClockDomain* domain_ = nullptr;  ///< explicit assignment, or inherit
  bool clock_check_ = false;  ///< wants the on_clock_check() phase

  // --- state owned by the binding Simulator (see simulator.cpp) ---
  // The dirty-worklist flag that used to live here is a dense SoA
  // array on the Simulator, indexed by sim_id_ (src/rtl/README.md,
  // "Kernel memory layout").
  int sim_id_ = -1;          ///< dense id in elaboration order, -1 = unbound
  std::int16_t part_ = -1;   ///< domain-affinity partition, -1 = unbound
                             ///< (partition() and the topology hash)
  bool seq_declared_ = false;  ///< declare_state() made a declaration
  bool no_clock_ = false;      ///< declare_comb_only(): no on_clock()
  bool seq_touched_ = false;   ///< on the simulator's touched list
  std::vector<SignalBase*> seq_signals_;  ///< declared register signals
  std::vector<Module*>* seq_queue_ = nullptr;  ///< touched-module list

  /// Probe for the elaboration-time comb-only check: the *default*
  /// on_clock()/on_clock_check() bodies set this flag; the simulator
  /// clears it, calls the virtual, and concludes "overridden" when the
  /// flag stayed clear.  thread_local for the same reason as the signal
  /// tracer: simulators over disjoint designs may elaborate on
  /// different threads.
  static inline thread_local bool base_clock_probe_ = false;
};

}  // namespace hwpat::rtl
