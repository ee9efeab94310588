// AsyncFifo: dual-clock asynchronous FIFO macro for clock-domain
// crossings (CDC).
//
// Models the classic gray-coded-pointer design (the vendor "independent
// clocks" FIFO generator of the paper's board era): a write side clocked
// by one domain, a read side clocked by another, and the two occupancy
// pointers exchanged as gray codes through 2-flop synchronizers.  Each
// side therefore only ever sees a *conservative* view of the other:
// `full` may stay high for up to two write-clock edges after the reader
// consumed an element, and `empty` may stay high for up to two
// read-clock edges after the writer produced one — exactly the safety
// margin real CDC hardware pays.  Data words themselves never cross the
// boundary through a synchronizer; they sit in the shared storage array,
// which is safe because a cell is provably stable by the time the
// synchronized pointer makes it visible to the consumer (the invariant
// the gray/2-flop scheme exists to establish).
//
// Show-ahead semantics on the read side like FifoCore: when `empty` is
// low, `rd_data` already presents the front element combinationally;
// asserting `rd_en` consumes it at the next *read-clock* edge.  `wr_en`
// with `wr_data` enqueues at the next *write-clock* edge.  Gray-coded
// pointers require a power-of-two depth (>= 2).
//
// Wiring convention as everywhere in hwpat: the parent owns the wires.
// The two clock domains are passed at construction (nullptr = inherit
// the parent's domain, degenerating into a synchronous FIFO with two
// cycles of flag latency — handy for single-clock testing).
#pragma once

#include <memory>
#include <vector>

#include "devices/device.hpp"
#include "rtl/clock.hpp"
#include "rtl/module.hpp"

namespace hwpat::devices {

using rtl::Bit;
using rtl::Bus;

struct AsyncFifoConfig {
  int width = 8;    ///< element width in bits (1..64)
  int depth = 16;   ///< capacity in elements; power of two, >= 2
  /// When true (the default), reading while empty or writing while full
  /// raises ProtocolError — catching model bugs early.  When false the
  /// illegal operation is ignored, like a hardened hardware macro.
  bool strict = true;
};

struct AsyncFifoPorts {
  // Write-domain side.
  const Bit& wr_en;
  const Bus& wr_data;
  Bit& full;
  // Read-domain side.
  const Bit& rd_en;
  Bus& rd_data;  ///< show-ahead front element (0 while empty)
  Bit& empty;
  // Optional stream-container flags (see FifoPorts; nullptr = open),
  // each driven by the side that drives its flag.
  Bit* can_push = nullptr;  ///< write side: !full
  Bit* can_pop = nullptr;   ///< read side: !empty
};

class AsyncFifo : public rtl::Module {
 public:
  AsyncFifo(Module* parent, std::string name, AsyncFifoConfig cfg,
            AsyncFifoPorts p, const rtl::ClockDomain* wr_domain = nullptr,
            const rtl::ClockDomain* rd_domain = nullptr);
  // Out of line: the unique_ptr members hold types nested in this class
  // and completed only in the .cpp.
  ~AsyncFifo() override;

  // Structural wrapper: the clocked work lives in the two side
  // modules; the wrapper itself has no on_clock() and is pruned from
  // its domain's activation list entirely.
  void declare_state() override { declare_comb_only(); }
  // Shared storage array; each side serializes its own binary pointer.
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const AsyncFifoConfig& config() const { return cfg_; }
  /// Testbench-only global occupancy.  No such value exists in the
  /// modelled hardware — each side only knows its conservative view —
  /// so this must never feed back into a design, only into checks.
  [[nodiscard]] int size() const;

 private:
  class WriteSide;
  class ReadSide;
  friend class WriteSide;
  friend class ReadSide;

  [[nodiscard]] int ptr_bits() const { return abits_ + 1; }
  /// Mask selecting the two top pointer bits (the full comparison
  /// inverts them: full <=> wr gray == rd gray with top two flipped).
  [[nodiscard]] Word top2_mask() const {
    return Word{3} << (ptr_bits() - 2);
  }
  [[nodiscard]] static Word gray(Word b) { return b ^ (b >> 1); }

  AsyncFifoConfig cfg_;
  AsyncFifoPorts p_;
  int abits_;  ///< clog2(depth)
  std::vector<Word> mem_;
  // The exchanged pointers live in the parent so both sides can read
  // them; each side registers the one it writes.  Both are marked
  // mark_cdc_cross(): they are the declared crossing arcs between the
  // write- and read-side clock domains (see src/rtl/README.md).
  Bus wptr_gray_;
  Bus rptr_gray_;
  std::unique_ptr<WriteSide> wr_;
  std::unique_ptr<ReadSide> rd_;
};

}  // namespace hwpat::devices
