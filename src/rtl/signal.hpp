// Two-phase signals for the cycle-accurate RTL kernel.
//
// Every signal holds a *current* value (what processes read) and a *next*
// value (what processes write).  The simulator commits next->current
// between evaluation rounds, which gives VHDL-like semantics: a process
// never observes a value written in the same round, so evaluation order
// of modules is irrelevant and simulation is deterministic.
//
// A signal is one of the two port types the generator emits: a Bit (a
// std_logic, Signal<bool>) or a Bus (a std_logic_vector of 1..64 bits,
// Signal<Word>).  Signal<T> admits no other T and only Bit and Bus
// construct one.  Both store one Word per phase — a Bit holds 0 or 1,
// as a synthesized std_logic and std_logic_vector are both wires — so
// the kernel commits, rolls back, resets and samples every signal the
// same way, and a signal object carries no vtable.  The SigKind tag
// names the concrete type only where it is meaning, not storage: the
// typed read()/write(), the snapshot's value encoding and the topology
// hash.
//
// Data-oriented layout (see src/rtl/README.md, "Kernel memory layout"):
// an unbound signal keeps its values in the object (curs_/nxts_), but a
// binding Simulator *adopts* the storage into two dense Word arrays it
// owns, indexed by the signal's id — the signal's curp_/nxtp_ pointers
// are rebound into those arrays, so read()/write() are unchanged while
// the simulator's commit and VCD loops stream through contiguous memory
// instead of chasing heap objects.  All other per-signal kernel state
// (pending flag, fanout CSR spans, merge stamp) lives in simulator-owned
// arrays indexed by the id; the signal itself carries the two pointers
// the write fast path needs (pend_flag_, queue_), the id, its
// domain-affinity partition and its reader mark.
//
// Event-driven hooks: once a Simulator binds the design, every write()
// enqueues the signal's id on the simulator's pending-commit list, and
// every read() inside a traced eval_comb() is checked against the
// signal's reader mark — the module the simulator last merged a read of
// it for — and, when that is not the evaluating module (the thread-local
// SignalBase::reader_), recorded, so the simulator learns which modules
// are sensitive to which signals.  Repeats are folded when the
// evaluation's reads are merged.  Unbound signals (no simulator, or the
// full-sweep reference mode) enqueue nothing.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "rtl/arena.hpp"

namespace hwpat::rtl {

class Module;
class SignalBase;

/// Concrete type of a signal, set once at construction: kWord signals
/// are Signal<Word> (Bus), kBool signals Signal<bool> (Bit).  Both store
/// Words; the tag picks a value's snapshot encoding (u64 for a Bus, one
/// byte for a Bit) and is part of the snapshot topology hash.
enum class SigKind : unsigned char { kWord = 0, kBool = 1 };

/// Untyped base for all signals.  Signals register themselves with their
/// owning module on construction; the simulator discovers them by walking
/// the module tree.
class SignalBase {
 public:
  SignalBase(const SignalBase&) = delete;
  SignalBase& operator=(const SignalBase&) = delete;

  /// Short name within the owning module.
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Hierarchical dotted name, e.g. "top.fifo0.rd_data".
  [[nodiscard]] std::string full_name() const;
  /// Bit width of the modelled wire or bus, 1..64.
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
  /// call it at construction, like wiring.  The CDC discipline
  /// (src/rtl/README.md) is that marked signals are the *only* register
  /// signals read across domains; the mark is part of topology_hash().
  void mark_cdc_cross() { cdc_cross_ = true; }
  [[nodiscard]] bool cdc_cross() const { return cdc_cross_; }

  /// Concrete type (see SigKind).
  [[nodiscard]] SigKind kind() const { return kind_; }

  /// Current value as a word, without the read tracing read() does: for
  /// the VCD writer and for validate-phase checks that must not join a
  /// module's sensitivity.
  [[nodiscard]] Word as_word_fast() const { return *curp_; }

 protected:
  /// Only Signal<T>, so only Bit and Bus, constructs a signal; `kind`
  /// names its concrete type and `init` is its construction-time value
  /// (0 or 1 for a Bit).  Asserts a width of 1..64.
  SignalBase(Module& owner, std::string name, int width, SigKind kind,
             Word init);
  /// Protected, as there is no vtable: a signal is destroyed as the Bit
  /// or Bus it is, never through a base pointer.
  ~SignalBase();

  /// Called by Signal<T>::write(): schedules this signal's id for
  /// commit on the simulator's pending-commit list (queue_) — at most
  /// once until drained; the pending flag lives in the simulator's
  /// dense array, reached through pend_flag_.
  void note_write() {
    if (queue_ != nullptr && pend_flag_ != nullptr && *pend_flag_ == 0) {
      *pend_flag_ = 1;
      queue_->push_back(id_);
    }
  }
  /// Called by Signal<T>::read().  Outside a traced eval_comb() the
  /// thread's reader_ is -1 and the read costs a sign test; inside one,
  /// a read of a known edge (this signal's last merged reader is the
  /// evaluating module) costs one compare, and any other read joins the
  /// evaluation's read list for the simulator to merge.
  void note_read() const {
    const std::int32_t r = reader_;
    if (r >= 0 && last_reader_ != r) reads_->push_back(this);
  }

 private:
  friend class Simulator;
  friend class TraceGuard;
  template <typename>
  friend class Signal;  // read()/write() reach the values

  Module& owner_;
  std::string name_;
  int width_;
  SigKind kind_;
  bool cdc_cross_ = false;  ///< declared CDC crossing point (mark_cdc_cross)

  // --- state owned by the binding Simulator (see simulator.cpp) ---
  // Everything else the kernel tracks per signal — pending/vcd flags,
  // fanout spans, the values themselves — lives in the Simulator's
  // dense arrays, indexed by id_.
  int id_ = -1;             ///< dense id, -1 = unbound
  std::int16_t part_ = -1;  ///< domain-affinity partition, -1 = unbound
                            ///< (partition() and the topology hash)
  /// The reader mark: the module id the binding simulator last merged a
  /// read of this signal for (merge_reads()), -1 for none.  Set only
  /// once that module is in the signal's fanout, so a read it makes
  /// again is a known edge.
  std::int32_t last_reader_ = -1;
  /// The signal's cell in the simulator's dense pending-flag array —
  /// fused into the write fast path so note_write() touches the SoA
  /// flag directly instead of an object field.  nullptr while unbound.
  unsigned char* pend_flag_ = nullptr;
  /// The binding simulator's pending-commit list (ids).
  ArenaVector<std::int32_t>* queue_ = nullptr;

  /// Values are reached through curp_/nxtp_: they point at the inline
  /// curs_/nxts_ until a binding Simulator rebinds them into its dense
  /// value arrays (adopt_storage), so the kernel's commit/VCD loops
  /// stream contiguous memory while read() and write() stay oblivious.
  Word curs_;  ///< inline current value (authoritative while unbound)
  Word nxts_;  ///< inline next value
  Word init_;  ///< construction-time value, for reset_value()
  Word* curp_ = &curs_;
  Word* nxtp_ = &nxts_;

  /// Restores the construction-time value on both phases (reset).
  void reset_value() { *curp_ = *nxtp_ = init_; }
  /// Moves the two-phase values into simulator-owned dense cells (the
  /// current inline values are copied over, so adoption is invisible).
  void adopt_storage(Word* cur, Word* nxt) {
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

  /// The id of the module whose eval_comb() this thread is tracing (-1
  /// outside a traced evaluation), and that evaluation's read list; set
  /// by TraceGuard.  thread_local because SweepDriver runs simulators
  /// over disjoint designs on different worker threads.
  static inline thread_local std::int32_t reader_ = -1;
  static inline thread_local std::vector<const SignalBase*>* reads_ = nullptr;
};

/// Kernel internal: traces the reads of module `mid` into `reads` for
/// the current scope and stops on exit, even when eval_comb() throws
/// (ProtocolError in strict device modes is an expected test path).
class TraceGuard {
 public:
  TraceGuard(std::int32_t mid, std::vector<const SignalBase*>* reads) {
    SignalBase::reads_ = reads;
    SignalBase::reader_ = mid;
  }
  ~TraceGuard() { SignalBase::reader_ = -1; }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;
};

/// Two-phase signal of a Bit (T = bool) or a Bus (T = Word): the typed
/// face of SignalBase's Word storage.
template <typename T>
class Signal : public SignalBase {
  static_assert(std::is_same_v<T, Word> || std::is_same_v<T, bool>,
                "a signal is a Bit (Signal<bool>) or a Bus (Signal<Word>)");

 public:
  static constexpr SigKind kKind =
      std::is_same_v<T, Word> ? SigKind::kWord : SigKind::kBool;

  /// Value visible to processes this round.
  [[nodiscard]] T read() const {
    note_read();
    return static_cast<T>(*curp_);
  }
  /// Schedules `v` to become visible after the next commit.  Writes
  /// that leave the visible value unchanged need no commit, so they are
  /// not enqueued on the simulator's pending list (the common case: a
  /// comb process re-asserting the same output every delta).
  void write(T v) {
    *nxtp_ = v;
    if (*nxtp_ != *curp_) note_write();
  }

 protected:
  Signal(Module& owner, std::string name, int width, T init)
      : SignalBase(owner, std::move(name), width, kKind, init) {}
  ~Signal() = default;
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
      : Signal<Word>(owner, std::move(name), width, truncate(init, width)),
        mask_(mask_of(width)) {}

  void write(Word v) { Signal<Word>::write(v & mask_); }

 private:
  Word mask_;  ///< mask_of(width()), kept so write() need not rebuild it
};

}  // namespace hwpat::rtl
