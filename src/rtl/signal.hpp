// Two-phase signals for the cycle-accurate RTL kernel.
//
// Every signal holds a *current* value (what processes read) and a *next*
// value (what processes write).  The simulator commits next->current
// between evaluation rounds, which gives VHDL-like semantics: a process
// never observes a value written in the same round, so evaluation order
// of modules is irrelevant and simulation is deterministic.
//
// Data-oriented layout (see src/rtl/README.md, "Kernel memory layout"):
// an unbound signal keeps its values in the object (curs_/nxts_), but a
// binding Simulator *adopts* the storage of the dominant Word/bool
// signals into dense SoA arrays it owns, indexed by slot — the signal's
// curp_/nxtp_ pointers are rebound into those arrays, so read()/write()
// are unchanged while the simulator's commit and VCD loops stream
// through contiguous memory instead of chasing heap objects.  All other
// per-signal kernel state (pending flag, partition, fanout CSR spans,
// trace stamps) lives in simulator-owned arrays indexed by the dense
// signal id; the signal itself carries only the two pointers the write
// fast path needs (pend_flag_, queue_) plus the id.
//
// Event-driven hooks: once a Simulator binds the design, every write()
// enqueues the signal's id on its partition's pending-commit list, and
// every read() that happens inside a traced eval_comb() is recorded so
// the simulator can learn which modules are sensitive to which signals.
// Unbound signals (no simulator, or the full-sweep reference mode)
// behave exactly as before.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "rtl/arena.hpp"
#include "rtl/snapshot.hpp"

namespace hwpat::rtl {

class Module;
class SignalBase;

/// Storage type tag of a signal, set once at construction.  The two
/// dominant concrete types (Signal<Word> via Bus, Signal<bool> via Bit)
/// get devirtualized fast paths in the commit hot loop — and their
/// values are adopted into the Simulator's dense SoA arrays; everything
/// else (testbench Signal<Frame>, ...) falls back to the virtual call
/// and keeps its values inline.
enum class SigKind : unsigned char { kWord, kBool, kOther };

/// Records which signals a combinational process reads while it runs.
/// The simulator points SignalBase::tracer_ at one of these around each
/// traced eval_comb() call; read() funnels every signal through record().
/// A read whose signal was last merged by the traced module (a known
/// fanout edge) costs one compare; the rest are deduplicated O(1) by a
/// per-signal stamp.  Both arrays are the simulator's (attach()).
class ReadTracer {
 public:
  /// Must be called before the first begin().
  void attach(std::uint64_t* stamps, const std::int32_t* last_reader) {
    stamps_ = stamps;
    last_reader_ = last_reader;
  }
  /// Starts a new trace of module `mid`.  `stamp` must be unique per
  /// trace (the simulator uses a monotonically increasing eval counter).
  void begin(std::uint64_t stamp, std::int32_t mid) {
    stamp_ = stamp;
    mid_ = mid;
    reads_.clear();
  }
  inline void record(const SignalBase* s);
  /// Dense ids of the traced evaluation's non-known-edge reads.
  [[nodiscard]] const std::vector<std::int32_t>& reads() const {
    return reads_;
  }

 private:
  std::uint64_t stamp_ = 0;
  std::int32_t mid_ = -1;
  std::uint64_t* stamps_ = nullptr;
  const std::int32_t* last_reader_ = nullptr;
  std::vector<std::int32_t> reads_;
};

/// Untyped base for all signals.  Signals register themselves with their
/// owning module on construction; the simulator discovers them by walking
/// the module tree.
class SignalBase {
 public:
  SignalBase(Module& owner, std::string name, int width,
             SigKind kind = SigKind::kOther);
  virtual ~SignalBase();

  SignalBase(const SignalBase&) = delete;
  SignalBase& operator=(const SignalBase&) = delete;

  /// Short name within the owning module.
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Hierarchical dotted name, e.g. "top.fifo0.rd_data".
  [[nodiscard]] std::string full_name() const;
  /// Bit width of the modelled bus; 0 marks a testbench-only signal that
  /// is excluded from waveforms and resource accounting.
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] Module& owner() const { return owner_; }

  /// Dense id assigned by the binding Simulator (elaboration order);
  /// -1 while unbound.  Indexes every simulator-owned SoA array.
  [[nodiscard]] int id() const { return id_; }

  /// Domain-affinity partition assigned by the binding Simulator
  /// (indexed like Simulator::domain_info()): the writer's partition
  /// for declared register signals, the owning module's partition
  /// otherwise.  -1 while unbound.
  [[nodiscard]] int partition() const { return part_; }

  /// Declares this signal as a sanctioned clock-domain-crossing point
  /// (an async-FIFO gray pointer feeding another domain's
  /// synchronizer).  Part of the design, not of a simulator binding:
  /// call it at construction, like wiring.  The CDC-arc contract
  /// (src/rtl/README.md) is that marked signals are the *only* register
  /// signals read across partitions.
  void mark_cdc_cross() { cdc_cross_ = true; }
  [[nodiscard]] bool cdc_cross() const { return cdc_cross_; }

  /// Storage type tag (devirtualized commit dispatch — see commit_fast).
  [[nodiscard]] SigKind kind() const { return kind_; }

  /// Copies next into current.  Returns true when the visible value
  /// changed (used by the delta-cycle settling loop).
  virtual bool commit() = 0;
  /// Throws away an uncommitted write: next := current.  The simulator
  /// uses it to roll back the writes of an aborted clock-edge event
  /// (cold path — no devirtualized dispatch needed).
  virtual void discard_write() = 0;
  /// Non-virtual commit dispatcher: inlines the Word/bool fast paths
  /// (the two signal types that dominate every shipped design) and
  /// falls back to the virtual commit() for everything else.  Defined
  /// after Signal<T> below.
  bool commit_fast();
  /// Restores the construction-time value on both phases (global reset).
  virtual void reset_value() = 0;
  /// Current value as a word, for VCD dumping (width <= 64 only).
  [[nodiscard]] virtual Word as_word() const = 0;
  /// Non-virtual as_word() dispatcher: inlines the Word/bool reads (the
  /// two signal types that dominate every sampled waveform) and falls
  /// back to the virtual as_word() for everything else.  Defined after
  /// Signal<T> below.
  [[nodiscard]] Word as_word_fast() const;

  /// True while a write awaits commit (next != current).  Cold path:
  /// save_snapshot() scans this to refuse capturing mid-write state —
  /// needed because the full-sweep kernel commits by scanning all
  /// signals, so an uncommitted write leaves no pending-list trace.
  [[nodiscard]] virtual bool has_uncommitted_write() const = 0;

  /// Serializes the committed (current) value.  Snapshots are taken
  /// between steps, when next == current, so one value suffices.  The
  /// simulator encodes bound Word/bool signals in bulk from its value
  /// arrays instead; this is the path for everything else.
  virtual void save_value(StateWriter& w) const = 0;
  /// Restores a serialized value onto both phases (current and next).
  virtual void load_value(StateReader& r) = 0;

 protected:
  /// Called by Signal<T>::write(): schedules this signal's id for
  /// commit on its partition's pending-commit list, resolved at
  /// elaboration (queue_) — at most once until drained; the pending
  /// flag lives in the simulator's dense array, reached through
  /// pend_flag_.
  void note_write() {
    if (queue_ != nullptr && pend_flag_ != nullptr && *pend_flag_ == 0) {
      *pend_flag_ = 1;
      queue_->push_back(id_);
    }
  }
  /// Called by Signal<T>::read(): reports the read to the active tracer,
  /// if any (i.e. inside a traced eval_comb()).
  void note_read() const {
    if (tracer_ != nullptr) tracer_->record(this);
  }

 private:
  friend class Simulator;
  friend class VcdWriter;
  friend class ReadTracer;
  friend class TraceGuard;

  Module& owner_;
  std::string name_;
  int width_;
  SigKind kind_;
  bool cdc_cross_ = false;  ///< declared CDC crossing point (mark_cdc_cross)

  // --- state owned by the binding Simulator (see simulator.cpp) ---
  // Everything else the kernel tracks per signal — pending/vcd flags,
  // trace stamps, fanout spans, value storage for Word/bool signals —
  // lives in the Simulator's dense arrays, indexed by id_.
  int id_ = -1;             ///< dense id, -1 = unbound
  std::int16_t part_ = -1;  ///< domain-affinity partition (mirror of the
                            ///< simulator's dense array, kept for the
                            ///< partition() accessor and topology hash)
  /// The signal's cell in the simulator's dense pending-flag array —
  /// fused into the write fast path so note_write() touches the SoA
  /// flag directly instead of an object field.  nullptr while unbound.
  unsigned char* pend_flag_ = nullptr;
  /// Pending-commit list of the signal's partition (ids).
  ArenaVector<std::int32_t>* queue_ = nullptr;

  /// Active trace, if any.  thread_local because SweepDriver runs
  /// simulators over disjoint designs on different worker threads.
  static inline thread_local ReadTracer* tracer_ = nullptr;
};

inline void ReadTracer::record(const SignalBase* s) {
  const int id = s->id_;
  if (id < 0) return;  // unbound signal read under a foreign trace
  if (last_reader_[id] == mid_) return;  // known edge: in the fanout
  std::uint64_t& cell = stamps_[static_cast<std::size_t>(id)];
  if (cell == stamp_) return;
  cell = stamp_;
  reads_.push_back(id);
}

/// Kernel internal: installs a read tracer for the current scope and
/// uninstalls it on exit, even when eval_comb() throws (ProtocolError in
/// strict device modes is an expected test path).
class TraceGuard {
 public:
  explicit TraceGuard(ReadTracer* t) { SignalBase::tracer_ = t; }
  ~TraceGuard() { SignalBase::tracer_ = nullptr; }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;
};

/// Generic two-phase signal.  T must be equality-comparable and copyable.
/// Use Bit/Bus for hardware-visible signals; Signal<T> with width 0 for
/// testbench plumbing (frames, strings, ...).
///
/// Values are reached through curp_/nxtp_: normally they point at the
/// inline curs_/nxts_ members, but a binding Simulator rebinds Word and
/// bool signals into its dense SoA value arrays (adopt_storage), so the
/// kernel's commit/VCD loops stream contiguous memory while read() and
/// write() stay oblivious.
template <typename T>
class Signal : public SignalBase {
 public:
  static constexpr SigKind kKind = std::is_same_v<T, Word> ? SigKind::kWord
                                   : std::is_same_v<T, bool>
                                       ? SigKind::kBool
                                       : SigKind::kOther;

  Signal(Module& owner, std::string name, int width, T init = T{})
      : SignalBase(owner, std::move(name), width, kKind),
        curs_(init),
        nxts_(init),
        init_(init) {}

  /// Value visible to processes this round.
  [[nodiscard]] const T& read() const {
    note_read();
    return *curp_;
  }
  /// Schedules `v` to become visible after the next commit.  Writes
  /// that leave the visible value unchanged need no commit, so they are
  /// not enqueued on the simulator's pending list (the common case: a
  /// comb process re-asserting the same output every delta).
  void write(const T& v) {
    *nxtp_ = v;
    if (!(*nxtp_ == *curp_)) note_write();
  }
  /// Restores the construction-time value on both phases (reset).
  void reset_value() override { *curp_ = *nxtp_ = init_; }
  /// Throws away an uncommitted write (aborted-event rollback).
  void discard_write() final { *nxtp_ = *curp_; }

  /// Non-virtual body of commit(), callable directly when the concrete
  /// type is known statically (the commit_fast() dispatch).
  bool commit_inline() {
    if (*nxtp_ == *curp_) return false;
    *curp_ = *nxtp_;
    return true;
  }

  // final: commit_fast() statically dispatches Word/bool signals to
  // commit_inline(), so a subclass override here would be silently
  // bypassed — the compiler now rejects the attempt instead.
  bool commit() final { return commit_inline(); }

  /// Non-virtual body of as_word(), callable directly when the concrete
  /// type is known statically (the as_word_fast() dispatch).
  [[nodiscard]] Word as_word_inline() const {
    if constexpr (std::is_convertible_v<T, Word>) {
      return static_cast<Word>(*curp_);
    } else {
      return 0;
    }
  }

  // final for the same reason as commit() above.
  [[nodiscard]] Word as_word() const final { return as_word_inline(); }

  /// Word and bool signals get a fixed-width little-endian encoding;
  /// other trivially-copyable payloads fall back to raw process-local
  /// bytes; anything else (a Signal<std::string> testbench wire, say)
  /// is rejected with the signal's path.
  void save_value(StateWriter& w) const final {
    if constexpr (std::is_same_v<T, Word>) {
      w.word(*curp_);
    } else if constexpr (std::is_same_v<T, bool>) {
      w.boolean(*curp_);
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      w.pod(*curp_);
    } else {
      throw Error("signal '" + full_name() +
                  "': value type is not trivially copyable — snapshot "
                  "cannot serialize it (keep non-POD testbench state in "
                  "a module with save_state/load_state instead)");
    }
  }
  void load_value(StateReader& r) final {
    if constexpr (std::is_same_v<T, Word>) {
      *curp_ = *nxtp_ = r.word();
    } else if constexpr (std::is_same_v<T, bool>) {
      *curp_ = *nxtp_ = r.boolean();
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      *curp_ = *nxtp_ = r.pod<T>();
    } else {
      throw Error("signal '" + full_name() +
                  "': value type is not trivially copyable — snapshot "
                  "cannot restore it");
    }
  }

  [[nodiscard]] bool has_uncommitted_write() const final {
    return !(*nxtp_ == *curp_);
  }

 private:
  friend class Simulator;

  /// Moves the two-phase values into simulator-owned dense cells (the
  /// current inline values are copied over, so adoption is invisible).
  void adopt_storage(T* cur, T* nxt) {
    *cur = *curp_;
    *nxt = *nxtp_;
    curp_ = cur;
    nxtp_ = nxt;
  }
  /// Returns the values to the inline members (unbind).  Tolerates a
  /// partially bound signal (elaboration threw before adoption).
  void release_storage() {
    if (curp_ == &curs_) return;
    curs_ = *curp_;
    nxts_ = *nxtp_;
    curp_ = &curs_;
    nxtp_ = &nxts_;
  }

  T curs_;  ///< inline current value (authoritative while unbound)
  T nxts_;  ///< inline next value
  T init_;  ///< construction-time value, for reset_value()
  T* curp_ = &curs_;
  T* nxtp_ = &nxts_;
};

/// Single-bit hardware signal.
class Bit : public Signal<bool> {
 public:
  Bit(Module& owner, std::string name, bool init = false)
      : Signal<bool>(owner, std::move(name), 1, init) {}
};

/// Multi-bit hardware bus of explicit width (1..64).  Writes are
/// truncated to the declared width, as they would be in hardware.
class Bus : public Signal<Word> {
 public:
  Bus(Module& owner, std::string name, int width, Word init = 0)
      : Signal<Word>(owner, std::move(name), width, truncate(init, width)) {
    HWPAT_ASSERT(width >= 1 && width <= kMaxBusBits);
  }

  void write(Word v) { Signal<Word>::write(truncate(v, width())); }
};

inline bool SignalBase::commit_fast() {
  // The static_casts are sound because kind_ is derived from T at
  // construction: kWord signals *are* Signal<Word> (possibly via Bus),
  // kBool signals are Signal<bool> (possibly via Bit).
  switch (kind_) {
    case SigKind::kWord:
      return static_cast<Signal<Word>*>(this)->commit_inline();
    case SigKind::kBool:
      return static_cast<Signal<bool>*>(this)->commit_inline();
    case SigKind::kOther:
      break;
  }
  return commit();
}

inline Word SignalBase::as_word_fast() const {
  // Soundness of the static_casts: same argument as commit_fast().
  switch (kind_) {
    case SigKind::kWord:
      return static_cast<const Signal<Word>*>(this)->as_word_inline();
    case SigKind::kBool:
      return static_cast<const Signal<bool>*>(this)->as_word_inline();
    case SigKind::kOther:
      break;
  }
  return as_word();
}

}  // namespace hwpat::rtl
