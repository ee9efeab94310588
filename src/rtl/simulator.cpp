#include "rtl/simulator.hpp"

#include <algorithm>
#include <utility>

#include "rtl/vcd.hpp"

namespace hwpat::rtl {

const char* to_string(RunResult r) {
  switch (r) {
    case RunResult::PredSatisfied: return "pred_satisfied";
    case RunResult::Timeout: return "timeout";
    case RunResult::FaultLatched: return "fault_latched";
  }
  return "?";
}

namespace {
/// Rejects a non-positive Options field with a message naming it.
void require_positive(const char* field, std::int64_t value) {
  if (value <= 0)
    throw Error(std::string("Simulator Options::") + field +
                " must be positive, got " + std::to_string(value));
}
}  // namespace

void Simulator::validate_options(const Options& opt) {
  require_positive("delta_limit", opt.delta_limit);
  require_positive("tick_ps", opt.tick_ps);
  try {
    (void)parse_fault_plan(opt.fault_plan);
  } catch (const Error& e) {
    throw Error(std::string("Simulator Options::fault_plan: ") + e.what());
  }
}

Simulator::Simulator(Module& top, Options opt)
    : top_(top),
      opt_(opt),
      fan_pool_(ArenaAlloc<std::int32_t>(&arena_)),
      sens_pool_(ArenaAlloc<std::int32_t>(&arena_)),
      seq_pool_(ArenaAlloc<std::int32_t>(&arena_)),
      eval_list_(ArenaAlloc<std::int32_t>(&arena_)),
      vcd_changed_(ArenaAlloc<std::int32_t>(&arena_)) {
  validate_options(opt_);
  fault_ = parse_fault_plan(opt_.fault_plan);
  top_.visit([this](Module& m) {
    modules_.push_back(&m);
    for (SignalBase* s : m.signals()) signals_.push_back(s);
  });
  try {
    bind();
  } catch (...) {
    // An elaboration failure (comb-only contract violation, partition
    // overflow) must not leave the design half-bound: a corrected
    // rebuild of the tree could otherwise never bind again.
    unbind();
    throw;
  }
  stats_.domain_edges.assign(scheds_.size(), 0);
  {
    // Construction-time module states, so reset() after a restored
    // snapshot returns to construction values (not snapshot values).
    StateWriter w;
    save_module_states(w);
    baseline_ = std::move(w).take();
  }
}

Simulator::~Simulator() { unbind(); }

void Simulator::bind() {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    Module* m = modules_[i];
    HWPAT_ASSERT(m->sim_id_ < 0 && "design already bound to a simulator");
    m->sim_id_ = static_cast<int>(i);
    m->seq_declared_ = false;
    m->no_clock_ = false;
    m->seq_touched_ = false;
    m->seq_signals_.clear();
    m->seq_queue_ = opt_.full_sweep ? nullptr : &touched_;
    m->declare_state();
  }
  if (opt_.check_seq_contract) check_comb_only_contract();
  build_domains();
  build_soa();
  // Signal domain-affinity: the owner module's partition by default,
  // refined to the *writer's* partition for declared register signals
  // (the declaring module is the writer of its registers).  Resolved
  // here, at elaboration, like the module partitions themselves — and
  // fused into the signal's pending-commit routing: write() enqueues
  // straight onto the partition's own pending list.
  for (SignalBase* s : signals_) sig_part_[s->id_] = s->owner().part_;
  for (Module* m : modules_)
    for (SignalBase* s : m->seq_signals_) sig_part_[s->id_] = m->part_;
  for (SignalBase* s : signals_) {
    s->part_ = sig_part_[s->id_];  // mirror for partition()/topology hash
    s->queue_ = opt_.full_sweep
                    ? nullptr
                    : &parts_[static_cast<std::size_t>(sig_part_[s->id_])]
                           .pending;
  }
  // Register declarations as a CSR over signal ids — the membership
  // scan check_seq_writes_in() runs per on_clock() write.
  seq_pool_.clear();
  for (std::size_t mi = 0; mi < modules_.size(); ++mi) {
    seq_begin_[mi] = static_cast<std::uint32_t>(seq_pool_.size());
    for (const SignalBase* s : modules_[mi]->seq_signals_)
      seq_pool_.push_back(s->id_);
    seq_count_[mi] =
        static_cast<std::uint32_t>(seq_pool_.size()) - seq_begin_[mi];
  }
  pend_mark_.assign(parts_.size(), 0);
  if (!opt_.full_sweep) {
    // Writes made before binding never reached the pending lists, and
    // no sensitivity is known yet: make the first settle a full one.
    for (SignalBase* s : signals_) {
      sig_pending_[s->id_] = 1;
      s->queue_->push_back(s->id_);
    }
    mark_all_modules_dirty();
  }
}

void Simulator::build_soa() {
  const std::size_t ns = signals_.size();
  const std::size_t nm = modules_.size();
  sig_kind_ = arena_.alloc_array<unsigned char>(ns);
  sig_pending_ = arena_.alloc_array<unsigned char>(ns);
  sig_vcdmark_ = arena_.alloc_array<unsigned char>(ns);
  sig_part_ = arena_.alloc_array<std::int16_t>(ns);
  sig_slot_ = arena_.alloc_array<std::uint32_t>(ns);
  sig_stamp_ = arena_.alloc_array<std::uint64_t>(ns);
  sig_mark_ = arena_.alloc_array<std::uint64_t>(ns);
  last_reader_ = arena_.alloc_array<std::int32_t>(ns);
  fan_begin_ = arena_.alloc_array<std::uint32_t>(ns);
  fan_count_ = arena_.alloc_array<std::uint32_t>(ns);
  fan_cap_ = arena_.alloc_array<std::uint32_t>(ns);
  sens_begin_ = arena_.alloc_array<std::uint32_t>(nm);
  sens_count_ = arena_.alloc_array<std::uint32_t>(nm);
  sens_cap_ = arena_.alloc_array<std::uint32_t>(nm);
  seq_begin_ = arena_.alloc_array<std::uint32_t>(nm);
  seq_count_ = arena_.alloc_array<std::uint32_t>(nm);
  mod_dirty_ = arena_.alloc_array<unsigned char>(nm);
  mod_mark_ = arena_.alloc_array<std::uint64_t>(nm);
  // Slot the dominant Word/bool signals into the dense two-phase value
  // arrays, in id order — the commit drains then stream contiguously.
  std::size_t nw = 0, nb = 0;
  for (const SignalBase* s : signals_) {
    if (s->kind() == SigKind::kWord) ++nw;
    if (s->kind() == SigKind::kBool) ++nb;
  }
  word_cur_ = arena_.alloc_array<Word>(nw);
  word_nxt_ = arena_.alloc_array<Word>(nw);
  bool_cur_ = arena_.alloc_array<bool>(nb);
  bool_nxt_ = arena_.alloc_array<bool>(nb);
  std::uint32_t wslot = 0, bslot = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    SignalBase* s = signals_[i];
    s->id_ = static_cast<int>(i);
    sig_kind_[i] = static_cast<unsigned char>(s->kind());
    last_reader_[i] = -1;
    // 2 = never sampled (testbench signals): mark_vcd_change() skips
    // them with the same one-byte test that skips already-listed ones.
    sig_vcdmark_[i] = s->width() <= 0 ? 2 : 0;
    s->pend_flag_ = &sig_pending_[i];
    switch (s->kind()) {
      case SigKind::kWord:
        sig_slot_[i] = wslot;
        static_cast<Signal<Word>*>(s)->adopt_storage(&word_cur_[wslot],
                                                     &word_nxt_[wslot]);
        ++wslot;
        break;
      case SigKind::kBool:
        sig_slot_[i] = bslot;
        static_cast<Signal<bool>*>(s)->adopt_storage(&bool_cur_[bslot],
                                                     &bool_nxt_[bslot]);
        ++bslot;
        break;
      case SigKind::kOther:
        sig_slot_[i] = 0;  // values stay inline; virtual dispatch
        break;
    }
  }
  tracer_.attach(sig_stamp_, last_reader_);
}

std::size_t Simulator::sched_index_for(const ClockDomain* d) {
  for (std::size_t i = 0; i < scheds_.size(); ++i)
    if (scheds_[i].domain == d) return i;
  scheds_.emplace_back(&arena_);
  DomainSched& ds = scheds_.back();
  ds.domain = d;
  if (d != nullptr) {
    ds.name = d->name();
    ds.period = d->period();  // > 0, guaranteed by the ClockDomain ctor
    ds.phase = d->phase();
  }
  ds.next_edge = ds.phase + ds.period;
  // The settle partition IS the domain, and partition ids are stored in
  // std::int16_t (Module::part_, SignalBase::part_, the SoA mirrors):
  // past 32768 domains the id would silently truncate and corrupt
  // worklist routing, so reject the elaboration loudly instead.
  if (scheds_.size() > 32768)
    throw Error(
        "design '" + top_.name() + "' resolves to more than 32768 clock "
        "domains — the partition id fields (Module::part_ / "
        "SignalBase::part_, std::int16_t) cannot address domain '" +
        ds.name + "'; merge clock domains or widen the partition ids");
  return scheds_.size() - 1;
}

void Simulator::build_domains() {
  scheds_.clear();
  mod_part_ = arena_.alloc_array<std::int16_t>(modules_.size());
  // modules_ is in elaboration (pre)order, so a parent's effective
  // domain is resolved before any of its children are visited.
  std::vector<const ClockDomain*> effective(modules_.size(), nullptr);
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    Module* m = modules_[i];
    const ClockDomain* eff = m->domain_;
    if (eff == nullptr && m->parent() != nullptr)
      eff = effective[static_cast<std::size_t>(m->parent()->sim_id_)];
    effective[i] = eff;
    const std::size_t di = sched_index_for(eff);
    // declare_comb_only() modules are clocked by the domain in name
    // only: their on_clock() is the empty default, so they are pruned
    // from the activation list outright — an edge does not even pay
    // the empty virtual call (pruned_ keeps act_skips accounting to
    // the historical "modules clocked elsewhere" meaning).
    if (m->comb_only()) {
      ++scheds_[di].pruned;
    } else {
      scheds_[di].active.push_back(m);
      if (!opt_.full_sweep && m->opaque_state())
        scheds_[di].opaque.push_back(m);
      if (m->has_clock_check()) scheds_[di].checkers.push_back(m);
    }
    // One dirty worklist per domain; sched_index_for guarantees di fits
    // the int16 partition id.
    mod_part_[i] = static_cast<std::int16_t>(di);
    m->part_ = mod_part_[i];  // mirror for partition()/topology hash
  }
  parts_.clear();
  parts_.reserve(scheds_.size());
  for (std::size_t i = 0; i < scheds_.size(); ++i) parts_.emplace_back(&arena_);
  dirty_parts_.clear();
  single_part_ = scheds_.size() == 1;
  build_edge_heap();
}

void Simulator::build_edge_heap() {
  heap_.resize(scheds_.size());
  for (std::size_t i = 0; i < heap_.size(); ++i) heap_[i] = i;
  std::make_heap(heap_.begin(), heap_.end(), EdgeLater{&scheds_});
}

std::uint64_t Simulator::pop_due_edges() {
  HWPAT_ASSERT(!heap_.empty());
  firing_.clear();
  const std::uint64_t t = scheds_[heap_.front()].next_edge;
  while (!heap_.empty() && scheds_[heap_.front()].next_edge == t) {
    std::pop_heap(heap_.begin(), heap_.end(), EdgeLater{&scheds_});
    firing_.push_back(heap_.back());
    heap_.pop_back();
  }
  return t;
}

void Simulator::rearm_fired_edges() {
  for (const std::size_t di : firing_) {
    scheds_[di].next_edge += scheds_[di].period;
    heap_.push_back(di);
    std::push_heap(heap_.begin(), heap_.end(), EdgeLater{&scheds_});
  }
}

void Simulator::unbind() {
  for (Module* m : modules_) {
    m->sim_id_ = -1;
    m->part_ = -1;
    m->seq_declared_ = false;
    m->no_clock_ = false;
    m->seq_touched_ = false;
    m->seq_signals_.clear();
    m->seq_queue_ = nullptr;
  }
  for (SignalBase* s : signals_) {
    // Return adopted two-phase values to the inline members before the
    // arena dies (release_storage tolerates a never-adopted signal, so
    // a partial bind — elaboration threw mid-way — unwinds cleanly).
    switch (s->kind()) {
      case SigKind::kWord:
        static_cast<Signal<Word>*>(s)->release_storage();
        break;
      case SigKind::kBool:
        static_cast<Signal<bool>*>(s)->release_storage();
        break;
      case SigKind::kOther:
        break;
    }
    s->id_ = -1;
    s->part_ = -1;
    s->pend_flag_ = nullptr;
    s->queue_ = nullptr;
  }
  sig_kind_ = sig_pending_ = sig_vcdmark_ = nullptr;
  sig_part_ = nullptr;
  sig_slot_ = nullptr;
  sig_stamp_ = sig_mark_ = nullptr;
  last_reader_ = nullptr;
  word_cur_ = word_nxt_ = nullptr;
  bool_cur_ = bool_nxt_ = nullptr;
  fan_begin_ = fan_count_ = fan_cap_ = nullptr;
  sens_begin_ = sens_count_ = sens_cap_ = nullptr;
  seq_begin_ = seq_count_ = nullptr;
  mod_dirty_ = nullptr;
  mod_part_ = nullptr;
  mod_mark_ = nullptr;
}

void Simulator::check_comb_only_contract() {
  for (Module* m : modules_) {
    if (!m->comb_only()) continue;
    if (!m->seq_signals_.empty())
      throw Error("module '" + m->full_name() +
                  "': declare_comb_only() but register_seq() declared " +
                  std::to_string(m->seq_signals_.size()) +
                  " register signal(s) — a comb-only module has no "
                  "sequential process to write them");
    if (m->has_clock_check())
      throw Error("module '" + m->full_name() +
                  "': declare_comb_only() but enable_clock_check() was "
                  "requested — the validate phase belongs to clocked "
                  "modules; drop one of the two declarations");
    // Probe for an overridden on_clock()/on_clock_check(): the default
    // bodies set base_clock_probe_, so after a call that leaves the
    // flag clear (or throws) the virtual must be overridden — and the
    // simulator would silently never run it.
    Module::base_clock_probe_ = false;
    bool threw = false;
    try {
      m->on_clock();
    } catch (...) {
      threw = true;
    }
    if (threw || !Module::base_clock_probe_)
      throw Error("module '" + m->full_name() +
                  "': declare_comb_only() but on_clock() is overridden "
                  "— the declaration would silently disable the "
                  "sequential process; drop the declaration or the "
                  "override");
    Module::base_clock_probe_ = false;
    threw = false;
    try {
      static_cast<const Module*>(m)->on_clock_check();
    } catch (...) {
      threw = true;
    }
    if (threw || !Module::base_clock_probe_)
      throw Error("module '" + m->full_name() +
                  "': declare_comb_only() but on_clock_check() is "
                  "overridden — the declaration would silently disable "
                  "the validate phase; drop the declaration or the "
                  "override");
  }
  Module::base_clock_probe_ = false;
}

void Simulator::inject_slow(FaultPoint p) {
  // Reached only when p matches an armed, unfired plan.
  if (cycle_ < fault_.step) return;
  if (fault_seen_++ < fault_.skip) return;
  fault_fired_ = true;
  throw FaultInjected("injected fault '" + opt_.fault_plan +
                      "' fired at point '" + fault_point_name(p) +
                      "', cycle " + std::to_string(cycle_) + ", tick " +
                      std::to_string(tick_) + " in design '" +
                      top_.name() + "'");
}

Simulator::DomainInfo Simulator::domain_info(std::size_t i) const {
  require_domain_index(i, "domain_info");
  const DomainSched& ds = scheds_[i];
  // modules = everything clocked by the domain, including comb-only
  // modules pruned from the activation list.
  return DomainInfo{ds.name, ds.period, ds.phase,
                    ds.active.size() + ds.pruned};
}

void Simulator::reset_stats() {
  stats_ = {};
  stats_.domain_edges.assign(scheds_.size(), 0);
}

void Simulator::set_delta_limit(int limit) {
  require_positive("delta_limit", limit);
  opt_.delta_limit = limit;
}

std::size_t Simulator::fanout_size(const SignalBase& s) const {
  const std::int32_t sid = s.id_;
  if (sid < 0 || static_cast<std::size_t>(sid) >= signals_.size() ||
      signals_[static_cast<std::size_t>(sid)] != &s)
    throw Error("fanout_size: signal '" + s.name() +
                "' is not part of this simulator's design");
  return fan_count_[sid];
}

void Simulator::throw_comb_loop() const {
  throw CombLoopError(
      "combinational logic did not settle within " +
      std::to_string(opt_.delta_limit) + " delta cycles in design '" +
      top_.name() + "' — likely a combinational feedback loop");
}

bool Simulator::step_checked() {
  try {
    step();
    return true;
  } catch (const FaultInjected&) {
    if (needs_recovery_) return false;  // half-applied: caller recovers
    // The event aborted transactionally (check/edge point): nothing
    // advanced, and the plan has fired — re-stepping fires the same
    // tick cleanly.
    step();
    return true;
  }
}

RunStatus Simulator::end_run(RunStatus st) {
  if (vcd_) vcd_->flush();
  return st;
}

void Simulator::require_domain_index(std::size_t domain_idx,
                                     const char* who) const {
  if (domain_idx >= scheds_.size())
    throw Error(std::string(who) + ": domain index " +
                std::to_string(domain_idx) + " out of range (design '" +
                top_.name() + "' has " + std::to_string(scheds_.size()) +
                " domains)");
}

std::string Simulator::progress_report() const {
  std::string msg = "design '" + top_.name() + "' at cycle " +
                    std::to_string(cycle_) + ", tick " +
                    std::to_string(tick_) + "; domain edges:";
  for (std::size_t i = 0; i < scheds_.size(); ++i) {
    msg += (i == 0 ? " " : ", ") + scheds_[i].name + "=" +
           std::to_string(i < stats_.domain_edges.size()
                              ? stats_.domain_edges[i]
                              : 0);
    if (scheds_[i].period != 1 || scheds_[i].phase != 0) {
      msg += " (period " + std::to_string(scheds_[i].period);
      if (scheds_[i].phase != 0)
        msg += ", phase " + std::to_string(scheds_[i].phase);
      msg += ")";
    }
  }
  return msg;
}

// ---------------------------------------------------------------------
// Telemetry (rtl/trace.hpp)
// ---------------------------------------------------------------------

void Simulator::trace_start(const Tracer::Options& topt) {
  std::vector<std::string> paths;
  if (topt.profile_modules) {
    paths.reserve(modules_.size());
    for (const Module* m : modules_) paths.push_back(m->full_name());
  }
  telem_owned_ = std::make_unique<Tracer>(topt, std::move(paths));
  telem_ = telem_owned_.get();
}

void Simulator::trace_stop() {
  telem_ = nullptr;
  telem_owned_.reset();
}

void Simulator::trace_write(const std::string& path) const {
  if (telem_ == nullptr)
    throw Error(
        "trace_write: tracing is not active — call trace_start() first");
  telem_->write_chrome_json(path);
}

void Simulator::eval_profiled(Module* m) {
  if (!telem_->profiling()) {
    m->eval_comb();
    return;
  }
  const std::uint64_t t0 = telem_->now_ns();
  m->eval_comb();  // a throw skips the attribution; recovery as ever
  telem_->add_eval(m->sim_id_, telem_->now_ns() - t0);
}

void Simulator::run_on_clock_profiled(Module* m) {
  if (!telem_->profiling()) {
    m->on_clock();
    return;
  }
  const std::uint64_t t0 = telem_->now_ns();
  m->on_clock();
  telem_->add_clock(m->sim_id_, telem_->now_ns() - t0);
}

// ---------------------------------------------------------------------
// Full-sweep reference kernel (the original O(modules × signals) loop)
// ---------------------------------------------------------------------

void Simulator::commit_all(bool* changed) {
  bool any = false;
  const std::int32_t n = static_cast<std::int32_t>(signals_.size());
  for (std::int32_t sid = 0; sid < n; ++sid) {
    maybe_inject(FaultPoint::Commit);
    ++stats_.commits;
    if (commit_signal(sid)) {
      ++stats_.commit_changes;
      any = true;
      // No mark_vcd_change(): full-sweep sampling always scans all.
    }
  }
  if (changed != nullptr) *changed = any;
}

void Simulator::settle_full_sweep() {
  for (int iter = 0; iter < opt_.delta_limit; ++iter) {
    maybe_inject(FaultPoint::Settle);
    ++stats_.deltas;
    for (Module* m : modules_) {
      ++stats_.evals;
      m->eval_comb();
    }
    bool changed = false;
    commit_all(&changed);
    if (!changed) return;
  }
  throw_comb_loop();
}

// ---------------------------------------------------------------------
// Event-driven kernel
// ---------------------------------------------------------------------

void Simulator::fan_push(std::int32_t sid, std::int32_t mid) {
  const std::uint32_t cnt = fan_count_[sid];
  if (cnt == fan_cap_[sid]) {
    // Relocate the span to the pool tail with doubled capacity.  The
    // abandoned slots stay in the arena — bounded by the usual
    // geometric-growth argument, and reclaimed wholesale at teardown.
    const std::uint32_t ncap = cnt == 0 ? 4 : cnt * 2;
    const std::uint32_t nb = static_cast<std::uint32_t>(fan_pool_.size());
    fan_pool_.resize(fan_pool_.size() + ncap);
    std::copy_n(fan_pool_.begin() + fan_begin_[sid], cnt,
                fan_pool_.begin() + nb);
    fan_begin_[sid] = nb;
    fan_cap_[sid] = ncap;
  }
  fan_pool_[fan_begin_[sid] + cnt] = mid;
  fan_count_[sid] = cnt + 1;
}

void Simulator::sens_push(std::int32_t mid, std::int32_t sid) {
  const std::uint32_t cnt = sens_count_[mid];
  if (cnt == sens_cap_[mid]) {
    const std::uint32_t ncap = cnt == 0 ? 4 : cnt * 2;
    const std::uint32_t nb = static_cast<std::uint32_t>(sens_pool_.size());
    sens_pool_.resize(sens_pool_.size() + ncap);
    std::copy_n(sens_pool_.begin() + sens_begin_[mid], cnt,
                sens_pool_.begin() + nb);
    sens_begin_[mid] = nb;
    sens_cap_[mid] = ncap;
  }
  sens_pool_[sens_begin_[mid] + cnt] = sid;
  sens_count_[mid] = cnt + 1;
}

void Simulator::merge_reads(std::int32_t mid,
                            const std::vector<std::int32_t>& reads) {
  // The tracer dropped every read whose last_reader_ is `mid` — by far
  // the common case once sensitivity stabilized.  Membership of the
  // rest via seen-stamp: mark everything the module has ever read (its
  // accumulated read-set span — the exact mirror of "mid is in
  // fanout(sid)") under a fresh epoch, then one O(1) probe per read.
  if (reads.empty()) return;
  const std::uint64_t e = ++mark_epoch_;
  const std::uint32_t sb = sens_begin_[mid];
  const std::uint32_t sc = sens_count_[mid];
  for (std::uint32_t k = 0; k < sc; ++k) sig_mark_[sens_pool_[sb + k]] = e;
  for (const std::int32_t sid : reads) {
    last_reader_[sid] = mid;
    if (sig_mark_[sid] == e) continue;  // already a known (sid, mid) edge
    sens_push(mid, sid);
    fan_push(sid, mid);
  }
}

void Simulator::eval_traced(Module* m) {
  ++stats_.evals;
  tracer_.begin(++eval_stamp_, m->sim_id_);
  {
    TraceGuard guard(&tracer_);
    if (telem_ == nullptr)
      m->eval_comb();
    else
      eval_profiled(m);
  }
  // Fold newly observed reads into the signals' fanout spans.  The
  // accumulated read set is monotone, so a module is re-evaluated
  // whenever any signal it has *ever* read changes — a superset of the
  // signals its current execution path depends on, hence sound even for
  // data-dependent reads.
  merge_reads(m->sim_id_, tracer_.reads());
}

void Simulator::drain_pending(Partition& part) {
  // Empty drains (every settled delta probes once) record no span.
  const bool span = telem_ != nullptr && !part.pending.empty();
  const std::uint64_t t0 = span ? telem_->now_ns() : 0;
  for (const std::int32_t sid : part.pending) {
    maybe_inject(FaultPoint::Commit);
    sig_pending_[sid] = 0;
    ++stats_.commits;
    if (!commit_signal(sid)) continue;
    ++stats_.commit_changes;
    if (vcd_) mark_vcd_change(sid);
    const std::uint32_t fb = fan_begin_[sid];
    const std::uint32_t fc = fan_count_[sid];
    for (std::uint32_t k = 0; k < fc; ++k)
      mark_module_dirty(fan_pool_[fb + k]);
  }
  part.pending.clear();
  if (span)
    telem_->add(TracePhase::CommitDrain, t0, telem_->now_ns(),
                static_cast<std::uint64_t>(&part - parts_.data()));
}

void Simulator::commit_pending() {
  // Ascending partition order, so commit order is deterministic (not
  // that order matters for values: each signal commits at most once per
  // drain, and the VCD writer sorts by declaration id).
  if (single_part_) {
    drain_pending(parts_[0]);
    return;
  }
  for (Partition& part : parts_) {
    if (!part.pending.empty()) drain_pending(part);
  }
}

void Simulator::settle_event() {
  if (single_part_) {
    // Single-domain fast path: one partition, no bucketing to do (and
    // mark_module_dirty() maintains no dirty_parts_ either) — the
    // per-delta loop must stay as lean as before partitioning (a full
    // step is ~200 ns on the flagship design; every swap counts).
    // drain_pending() is called with the partition in hand, skipping
    // commit_pending()'s re-dispatch.
    Partition& p = parts_[0];
    drain_pending(p);
    if (p.worklist.empty()) {
      ++stats_.partition_skips;
      return;
    }
    ++stats_.partition_settles;
    for (int iter = 0; !p.worklist.empty(); ++iter) {
      if (iter >= opt_.delta_limit) throw_comb_loop();
      maybe_inject(FaultPoint::Settle);
      ++stats_.deltas;
      eval_list_.swap(p.worklist);
      for (const std::int32_t mid : eval_list_) {
        mod_dirty_[mid] = 0;
        eval_traced(modules_[static_cast<std::size_t>(mid)]);
      }
      eval_list_.clear();
      drain_pending(p);
    }
    return;
  }
  commit_pending();
  // One settle = a global delta fixpoint, but the worklists are
  // partitioned by clock domain: each delta visits only the partitions
  // holding dirty modules, and a partition never reached from the
  // firing domains' dirty sets (through fanout arcs — cross-partition
  // ones are the CDC boundary, by the contract in README.md) is never
  // even looked at.  The per-delta eval set is identical to the former
  // single-worklist loop, so both kernels' semantics and the
  // pre-existing counters are unchanged; partition_settles /
  // partition_skips make the skipped quiet subtrees measurable.
  ++settle_seq_;
  std::uint64_t touched = 0;
  for (int iter = 0; !dirty_parts_.empty(); ++iter) {
    if (iter >= opt_.delta_limit) throw_comb_loop();
    maybe_inject(FaultPoint::Settle);
    ++stats_.deltas;
    active_parts_.swap(dirty_parts_);
    // All marks happen inside commit_pending() below, never during
    // evaluation, so swapping each worklist out per delta is safe.
    for (const std::size_t pi : active_parts_) {
      Partition& p = parts_[pi];
      p.queued = false;
      if (p.settle_seen != settle_seq_) {
        p.settle_seen = settle_seq_;
        ++touched;
      }
      const std::uint64_t t0 = telem_ != nullptr ? telem_->now_ns() : 0;
      eval_list_.swap(p.worklist);
      for (const std::int32_t mid : eval_list_) {
        mod_dirty_[mid] = 0;
        eval_traced(modules_[static_cast<std::size_t>(mid)]);
      }
      eval_list_.clear();
      if (telem_ != nullptr)
        telem_->add(TracePhase::PartitionSettle, t0, telem_->now_ns(), pi);
    }
    active_parts_.clear();
    commit_pending();
  }
  stats_.partition_settles += touched;
  stats_.partition_skips += parts_.size() - touched;
}

void Simulator::mark_all_modules_dirty() {
  const std::int32_t n = static_cast<std::int32_t>(modules_.size());
  for (std::int32_t mid = 0; mid < n; ++mid) mark_module_dirty(mid);
}

std::size_t Simulator::dirty_module_count() const {
  if (single_part_) return parts_[0].worklist.size();
  std::size_t n = 0;
  for (const std::size_t pi : dirty_parts_) n += parts_[pi].worklist.size();
  return n;
}

void Simulator::check_seq_writes_in(const Module* m,
                                    const ArenaVector<std::int32_t>& pending,
                                    std::size_t first) const {
  const std::int32_t* sb = seq_pool_.data() + seq_begin_[m->sim_id_];
  const std::int32_t* se = sb + seq_count_[m->sim_id_];
  for (std::size_t i = first; i < pending.size(); ++i) {
    const std::int32_t sid = pending[i];
    if (std::find(sb, se, sid) == se)
      throw ProtocolError(
          "module '" + m->full_name() + "': on_clock() wrote signal '" +
          signals_[static_cast<std::size_t>(sid)]->full_name() +
          "' which is not in its register_seq() declaration — the "
          "sequential-state contract is incomplete (or the write "
          "belongs in eval_comb())");
  }
}

void Simulator::fire_edges(bool check_contract) {
  // Validate phase: every firing checker (strict device), across ALL
  // firing domains, before any on_clock() anywhere.  The checks read
  // only settled values, so a ProtocolError here aborts the event with
  // zero state touched — the transactional guarantee the retried-step
  // contract rests on.
  for (const std::size_t di : firing_) {
    maybe_inject(FaultPoint::Check);
    const DomainSched& ds = scheds_[di];
    for (const Module* m : ds.checkers) m->on_clock_check();
  }
  // Mutate phase.  The contract check scans only what a declared
  // module's on_clock() appended to a pending list.  Multi-partition
  // marks are taken once per event and re-taken where a call grew a
  // list — after an opaque module too, so its writes are never blamed
  // on the next module.
  if (check_contract && !single_part_)
    for (std::size_t pi = 0; pi < parts_.size(); ++pi)
      pend_mark_[pi] = parts_[pi].pending.size();
  for (const std::size_t di : firing_) {
    maybe_inject(FaultPoint::Edge);
    DomainSched& ds = scheds_[di];
    if (!check_contract) {
      for (Module* m : ds.active) run_on_clock(m);
    } else if (single_part_) {
      // One partition: the pre-call pending mark is one register-held
      // size, exactly the pre-partition-split cost.
      const ArenaVector<std::int32_t>& pending = parts_[0].pending;
      for (Module* m : ds.active) {
        const std::size_t before = pending.size();
        run_on_clock(m);
        if (pending.size() != before && !m->opaque_state())
          check_seq_writes_in(m, pending, before);
      }
    } else {
      for (Module* m : ds.active) {
        run_on_clock(m);
        for (std::size_t pi = 0; pi < parts_.size(); ++pi) {
          const std::size_t size = parts_[pi].pending.size();
          if (size == pend_mark_[pi]) continue;
          if (!m->opaque_state())
            check_seq_writes_in(m, parts_[pi].pending, pend_mark_[pi]);
          pend_mark_[pi] = size;
        }
      }
    }
  }
  // Counter phase: only a completed event counts.  A mid-event throw
  // (a contract violation above, or a user on_clock() throwing) leaves
  // every counter exactly as before the event.
  for (const std::size_t di : firing_) {
    const DomainSched& ds = scheds_[di];
    ++stats_.edges;
    ++stats_.domain_edges[di];
    // pruned modules are not "skipped visits" — they were never
    // scheduled — so the counter keeps its historical value exactly.
    stats_.act_skips += modules_.size() - ds.active.size() - ds.pruned;
  }
}

void Simulator::abort_edge_event() {
  // fire_edges() runs straight after a settle, which drains every
  // pending list — so whatever the lists hold now was enqueued by the
  // aborted event: un-pend and discard it, leaving the next settle
  // nothing to leak-commit.  Same for the seq_touch() reports.
  for (Partition& part : parts_) {
    for (const std::int32_t sid : part.pending) {
      sig_pending_[sid] = 0;
      discard_signal(sid);
    }
    part.pending.clear();
  }
  for (Module* m : touched_) m->seq_touched_ = false;
  touched_.clear();
}

void Simulator::clock_edge_event() {
  try {
    fire_edges(opt_.check_seq_contract);
  } catch (...) {
    abort_edge_event();
    throw;
  }
  // The edge fired: from here to the end of the post-edge marking the
  // event is half-applied, so a throw (an injected commit fault) leaves
  // state inconsistent — flag it for save_snapshot()'s guard.
  needs_recovery_ = true;
  // Commits of changed register signals dirty their fanout modules.
  commit_pending();
  // Modules that reported internal-state changes re-evaluate once...
  stats_.seq_touches += touched_.size();
  for (Module* m : touched_) {
    m->seq_touched_ = false;
    mark_module_dirty(m->sim_id_);
  }
  touched_.clear();
  // ...and undeclared modules conservatively re-evaluate after every
  // edge of their own domain.
  for (const std::size_t di : firing_)
    for (Module* m : scheds_[di].opaque) mark_module_dirty(m->sim_id_);
  stats_.seq_skips += modules_.size() - dirty_module_count();
  needs_recovery_ = false;
}

// ---------------------------------------------------------------------
// Common driver
// ---------------------------------------------------------------------

void Simulator::settle() {
  BusyGuard busy(busy_);
  ++stats_.settles;
  const std::uint64_t t0 = telem_ != nullptr ? telem_->now_ns() : 0;
  // A throw out of a settle (CombLoopError, an eval_comb() throw, an
  // injected fault) leaves partially evaluated/committed state behind:
  // mark it so save_snapshot() refuses until restore/reset recovers.
  needs_recovery_ = true;
  if (opt_.full_sweep) {
    settle_full_sweep();
  } else {
    settle_event();
  }
  needs_recovery_ = false;
  if (telem_ != nullptr)
    telem_->add(TracePhase::Settle, t0, telem_->now_ns(), tick_);
}

void Simulator::reset() {
  BusyGuard busy(busy_);
  const std::uint64_t treset = telem_ != nullptr ? telem_->now_ns() : 0;
  needs_recovery_ = true;  // cleared below once the reset completed
  cycle_ = 0;
  tick_ = 0;
  for (DomainSched& ds : scheds_) ds.next_edge = ds.phase + ds.period;
  build_edge_heap();
  // Clear any scheduler state left by writes since the last settle (or
  // by a CombLoopError unwind): reset_value() bypasses write(), so stale
  // pending entries would otherwise commit garbage later.  firing_ too:
  // after an exception unwound a clock-edge event, stale indices in it
  // must not leak into the next step()'s edge accounting.
  firing_.clear();
  for (Partition& p : parts_) {
    p.worklist.clear();
    p.pending.clear();
    p.queued = false;
  }
  dirty_parts_.clear();
  active_parts_.clear();
  eval_list_.clear();
  touched_.clear();
  std::fill_n(sig_pending_, signals_.size(),
              static_cast<unsigned char>(0));
  for (SignalBase* s : signals_) s->reset_value();
  {
    // Reset means *construction-time* state, unconditionally: reload
    // every module's elaboration-time payload before on_reset() applies
    // its usual resets on top — exactly the sequence a freshly
    // constructed simulator goes through.  This is what makes reset()
    // a valid recovery from both a restored snapshot and a mid-event
    // crash, even for modules whose on_reset() deliberately preserves
    // some state.
    StateReader r(baseline_);
    load_module_states(r);
  }
  std::fill_n(mod_dirty_, modules_.size(), static_cast<unsigned char>(0));
  for (Module* m : modules_) {
    m->seq_touched_ = false;
    m->on_reset();
  }
  if (opt_.full_sweep) {
    commit_all(nullptr);
  } else {
    commit_pending();  // applies signal writes made inside on_reset()
    mark_all_modules_dirty();
  }
  settle();
  needs_recovery_ = false;
  if (telem_ != nullptr)
    telem_->add(TracePhase::Reset, treset, telem_->now_ns());
  if (vcd_) {
    vcd_full_pending_ = true;
    sample_vcd();
  }
}

void Simulator::fire_edges_full_sweep() {
  try {
    fire_edges(false);  // the contract check is event-kernel-only
  } catch (...) {
    // Full-sweep has no pending lists: the aborted event's writes
    // landed straight in the signals' next values.  Right after a
    // settle every next == current, so discarding every write rolls
    // the event back to a no-op before the throw escapes.
    const std::int32_t n = static_cast<std::int32_t>(signals_.size());
    for (std::int32_t sid = 0; sid < n; ++sid) discard_signal(sid);
    throw;
  }
  // Same half-applied window as clock_edge_event(): the edge mutated
  // module state, the commit below completes it.
  needs_recovery_ = true;
  commit_all(nullptr);
  needs_recovery_ = false;
}

void Simulator::step(int n) {
  BusyGuard busy(busy_);
  if (single_part_) {
    // Single-domain specialization: the heap is a 1-element formality
    // (its order is trivially maintained by bumping next_edge in
    // place), firing_ is pinned to {0} (pop_due_edges is never called,
    // and on a throw nothing was popped — retrying re-fires the same
    // tick with no unwinding bookkeeping at all), and the per-step loop
    // carries none of the multi-domain pop/re-arm machinery.
    DomainSched& ds = scheds_[0];
    if (firing_.empty()) firing_.push_back(0);
    for (int i = 0; i < n; ++i) {
      settle();
      const std::uint64_t t0 = telem_ != nullptr ? telem_->now_ns() : 0;
      if (opt_.full_sweep) {
        fire_edges_full_sweep();
      } else {
        clock_edge_event();
      }
      if (telem_ != nullptr)
        telem_->add(TracePhase::EdgeEvent, t0, telem_->now_ns(), ds.next_edge);
      // Time advances only once the event succeeded: an aborted event
      // leaves now() (and everything else) untouched.
      tick_ = ds.next_edge;
      ds.next_edge += ds.period;
      settle();
      ++cycle_;
      ++stats_.steps;
      if (vcd_) sample_vcd();
    }
    return;
  }
  for (int i = 0; i < n; ++i) {
    settle();
    const std::uint64_t t = pop_due_edges();
    const std::uint64_t t0 = telem_ != nullptr ? telem_->now_ns() : 0;
    try {
      if (opt_.full_sweep) {
        fire_edges_full_sweep();
      } else {
        clock_edge_event();
      }
      if (telem_ != nullptr)
        telem_->add(TracePhase::EdgeEvent, t0, telem_->now_ns(), t);
    } catch (...) {
      // Push the popped edges back un-advanced, so a caught throw (a
      // strict device raising ProtocolError) leaves the heap
      // consistent and a retried step() re-fires the same tick; clear
      // firing_ so the aborted event's stale indices can never leak
      // into later edge accounting (reset() clears it too).  tick_ was
      // never advanced: an aborted event leaves now() untouched.
      for (const std::size_t di : firing_) {
        heap_.push_back(di);
        std::push_heap(heap_.begin(), heap_.end(), EdgeLater{&scheds_});
      }
      firing_.clear();
      throw;
    }
    tick_ = t;
    rearm_fired_edges();
    settle();
    ++cycle_;
    ++stats_.steps;
    if (vcd_) sample_vcd();
  }
}

// ---------------------------------------------------------------------
// VCD plumbing
// ---------------------------------------------------------------------

void Simulator::open_vcd(const std::string& path) {
  vcd_ = std::make_unique<VcdWriter>(
      path, top_, static_cast<std::uint64_t>(opt_.tick_ps));
  // Nothing is on the changed list yet: the first sample must scan all.
  vcd_full_pending_ = true;
}

void Simulator::sample_vcd() {
  if (!vcd_) return;
  if (opt_.full_sweep || vcd_full_pending_) {
    vcd_->sample(tick_);
    vcd_full_pending_ = false;
  } else {
    vcd_->sample_changed(tick_, vcd_changed_.data(), vcd_changed_.size());
  }
  for (const std::int32_t sid : vcd_changed_) sig_vcdmark_[sid] = 0;
  vcd_changed_.clear();
}

}  // namespace hwpat::rtl
