// Iterator: base class of every ConcreteIterator in the hardware
// Iterator pattern (Fig. 2 of the paper).
//
// An iterator is instantiated at design time (the paper: "due to the
// static nature of hardware ... iterators must be instantiated at
// design time"), binds to exactly one container, and exposes the
// operation subset of Table 2 admitted by its traversal and role —
// *minus* any operations the design does not use (`used_ops`), which is
// the generator's dead-operation elimination: an operation that is not
// in `used_ops` gets no ports and no logic, and strobing it is a model
// bug (ProtocolError).
//
// An algorithm reaches an iterator only through client().  For a
// stream iterator that view *is* the container's own wires — the
// renaming dissolves at elaboration, as it does at synthesis — so the
// iterator module evaluates nothing and only checks the protocol in
// the validate phase of each edge.  The vector and width-adapting
// iterators hold state, so their client() is a set of wires they
// drive.
#pragma once

#include "core/container.hpp"
#include "core/ops.hpp"
#include "core/ports.hpp"

namespace hwpat::core {

class Iterator : public rtl::Module {
 public:
  struct Spec {
    Traversal traversal = Traversal::Forward;
    IterRole role = IterRole::Input;
    /// Operations the design actually exercises.  Empty (the default)
    /// means "all operations admissible for traversal+role".
    OpSet used_ops{};
  };

  Iterator(Module* parent, std::string name, Spec spec,
           ContainerKind bound_kind);

  [[nodiscard]] const Spec& spec() const { return spec_; }
  [[nodiscard]] ContainerKind bound_kind() const { return bound_kind_; }
  /// The operation set this iterator implements.
  [[nodiscard]] OpSet ops() const { return spec_.used_ops; }
  /// The algorithm-side view of this iterator (see the file comment).
  [[nodiscard]] virtual IterClient client() = 0;

 protected:
  /// Raises ProtocolError when a strobe outside ops() is asserted.  It
  /// reads only those strobes, untraced, so it may run in the validate
  /// phase.
  void guard_strobes(const IterClient& c) const;

 private:
  Spec spec_;
  ContainerKind bound_kind_;
};

/// Input iterator over the consumer side of a stream container
/// (read buffer, queue front, stack top, line-buffer columns).
///
/// A pure wrapper — "iterators are only wrappers that will be dissolved
/// at the time of synthesizing the design" (§4) — and dissolved here
/// too: client() hands out the container's wires, `ready` and `rvalid`
/// on can_pop, `rdata` on front, and the advance strobe (inc for
/// forward traversal, dec for the backward traversal of a stack) on
/// pop.  The strobes the container has no wire for are tie-off wires
/// of this module, which no algorithm drives (they hold their reset
/// value 0) and the validate phase checks.  The module writes no signal
/// and has no on_clock().
class StreamInputIterator : public Iterator {
 public:
  StreamInputIterator(Module* parent, std::string name, Spec spec,
                      ContainerKind bound_kind, StreamConsumer c);

  [[nodiscard]] IterClient client() override { return client_; }
  void on_clock_check() const override;
  void declare_state() override { declare_comb_only(); }

 private:
  // Tie-offs: the other advance direction, and the strobes a stream
  // container has no wire for.
  Bit other_adv_, read_, write_, index_op_;
  Bus index_pos_, wdata_;
  IterClient client_;
};

/// Output iterator over the producer side of a stream container
/// (write buffer, queue back, stack push).  Dissolved like the input
/// iterator: `ready` is can_push, `write` is push and `wdata` is
/// push_data.
class StreamOutputIterator : public Iterator {
 public:
  StreamOutputIterator(Module* parent, std::string name, Spec spec,
                       ContainerKind bound_kind, StreamProducer pr);

  [[nodiscard]] IterClient client() override { return client_; }
  void on_clock_check() const override;
  void declare_state() override { declare_comb_only(); }

 private:
  // Tie-offs: the advance and read strobes, and a read side that
  // never presents data.
  Bit inc_, dec_, read_, index_op_, rvalid_;
  Bus index_pos_, rdata_;
  IterClient client_;
};

/// Common base of the vector iterators: a position register, the
/// combinational pass-through from the client wires to the container's
/// random port at that position, and the check that no access is
/// strobed while the container is busy.
class VectorIterator : public Iterator {
 public:
  [[nodiscard]] IterClient client() override { return w_.client(); }
  void eval_comb() override;
  void on_reset() override { pos_ = start_pos_; }
  // The position register is internal state read by eval_comb();
  // on_clock() reports its changes via seq_touch().
  void declare_state() override { declare_seq_state(); }
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;

  [[nodiscard]] Word position() const { return pos_; }

 protected:
  VectorIterator(Module* parent, std::string name, Spec spec,
                 RandomClient rc, IterWires& w, int length, Word start_pos);

  /// guard_strobes(), then ProtocolError on a read or write strobed
  /// while the container is busy.
  void check_access() const;
  /// Moves the position register to `p`, reporting a change.
  void move_to(Word p);

  IterWires& w_;
  const int length_;

 private:
  RandomClient rc_;
  Word start_pos_;
  Word pos_;
};

/// Random iterator over a vector container: read/write/index (Table 2
/// grants random iterators no inc/dec — sequential traversal of a
/// vector uses VectorSeqIterator instead).
class VectorRandomIterator : public VectorIterator {
 public:
  VectorRandomIterator(Module* parent, std::string name, Spec spec,
                       RandomClient rc, IterWires& w, int length);

  void on_clock() override;
  void report(rtl::PrimitiveTally& t) const override;
};

/// Sequential (forward / backward / bidirectional) iterator over a
/// vector container.  Keeps the current position in a register and
/// advances it with inc/dec; read/write access the element at the
/// current position through the container's random port.
class VectorSeqIterator : public VectorIterator {
 public:
  struct Config {
    int length = 0;     ///< container length (wraps modulo length)
    Word start_pos = 0; ///< initial position (e.g. length-1 backward)
  };

  VectorSeqIterator(Module* parent, std::string name, Spec spec,
                    Config cfg, RandomClient rc, IterWires& w);

  void on_clock() override;
  void report(rtl::PrimitiveTally& t) const override;
};

}  // namespace hwpat::core
