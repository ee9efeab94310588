// SramStreamContainer: queue / read buffer / write buffer (FIFO
// discipline) or stack (LIFO discipline) implemented over an external
// static RAM behind a req/ack handshake.
//
// This is the binding Figure 5 of the paper shows for `rbuffer_sram`:
// "the architecture encloses a little finite state machine that
// controls memory access, as well as a few registers to store the begin
// and end pointers of the queue (implemented as a circular buffer) over
// the static RAM".
//
// The memory port is *external* (the "implementation interface" of the
// generated entity): the container takes an SramMaster bundle, so the
// same container works against a private SRAM or a port of an
// SramArbiter — the arbitration transparency §3.4 promises.
//
// Show-ahead is preserved by caching the front element in a register:
// after a pop (or the first push), the FSM prefetches the next front
// from memory, so `can_pop` drops only for the duration of the memory
// transaction.
#pragma once

#include "core/container.hpp"

namespace hwpat::core {

class SramStreamContainer : public Container {
 public:
  struct Config {
    ContainerKind kind = ContainerKind::Queue;
    int elem_bits = 8;
    int capacity = 1024;   ///< elements
    Word base_addr = 0;    ///< first SRAM address used by this container
    bool strict = true;
    /// Whether the design binds the `size` method (dead-operation
    /// elimination: without it the occupancy subtractor is pruned).
    bool with_size = true;
  };

  SramStreamContainer(Module* parent, std::string name, Config cfg,
                      StreamImpl p, SramMaster mem);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] bool lifo_discipline() const {
    return kind() == ContainerKind::Stack;
  }

 private:
  enum class State { Idle, Write, Fetch };

  [[nodiscard]] bool can_push_now() const;
  [[nodiscard]] bool can_pop_now() const;
  [[nodiscard]] Word read_addr() const;
  [[nodiscard]] Word write_addr() const;
  [[nodiscard]] int addr_bits() const { return mem_.addr.width(); }

  Config cfg_;
  StreamImpl p_;
  SramMaster mem_;

  // Architectural registers (the "few registers" of the paper).
  State state_ = State::Idle;
  int head_ = 0;        // FIFO: index of front; LIFO: unused
  int tail_ = 0;        // FIFO: unused (0); LIFO: stack pointer
  int count_ = 0;       // elements logically stored (incl. cached front)
  Word front_ = 0;      // cached front element
  bool front_valid_ = false;
  bool wpend_ = false;  // latched push awaiting its SRAM write
  Word wreg_ = 0;       // latched push data
};

}  // namespace hwpat::core
