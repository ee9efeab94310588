// FifoCore: on-chip first-word-fall-through FIFO macro.
//
// Models the FIFO cores "commonly found in FPGA designs" that the paper
// maps read/write buffer and queue containers onto.  Show-ahead
// semantics: when `empty` is low, `rd_data` already presents the front
// element combinationally; asserting `rd_en` consumes it at the next
// rising edge.  `wr_en` with `wr_data` enqueues at the rising edge.
//
// Wiring convention (used across all hwpat modules): the *parent* owns
// the wires; the port struct carries const references for the module's
// inputs and mutable references for the outputs it drives.  An output
// behind a pointer is optional: nullptr leaves it unconnected, as a
// VHDL `open` does.
#pragma once

#include <vector>

#include "devices/device.hpp"
#include "rtl/module.hpp"

namespace hwpat::devices {

using rtl::Bit;
using rtl::Bus;

struct FifoConfig {
  int width = 8;    ///< element width in bits (1..64)
  int depth = 512;  ///< capacity in elements
  /// When true (the default), reading while empty or writing while full
  /// raises ProtocolError — catching model bugs early.  When false the
  /// illegal operation is ignored, like a hardened hardware macro.
  bool strict = true;
};

struct FifoPorts {
  const Bit& wr_en;
  const Bus& wr_data;
  const Bit& rd_en;
  Bus& rd_data;
  Bit& empty;
  Bit& full;
  Bus& level;  ///< current number of stored elements
  // The stream-container flags (core/ports.hpp), driven with empty and
  // full when the core is a container's storage: a container binding
  // is then pure wiring, as its synthesized wrapper is.
  Bit* can_push = nullptr;  ///< !full
  Bit* can_pop = nullptr;   ///< !empty
};

class FifoCore : public rtl::Module {
 public:
  FifoCore(Module* parent, std::string name, FifoConfig cfg, FifoPorts p);

  void eval_comb() override;
  void on_clock() override;
  /// Strict-mode validate phase: raises ProtocolError for a read while
  /// empty / write while full from settled inputs, before any module's
  /// on_clock() has run — an aborted clock-edge event is a no-op.
  void on_clock_check() const override;
  void on_reset() override;
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const FifoConfig& config() const { return cfg_; }
  [[nodiscard]] int size() const { return count_; }

 private:
  FifoConfig cfg_;
  FifoPorts p_;
  std::vector<Word> mem_;
  int head_ = 0;   // index of the front element
  int count_ = 0;  // number of stored elements
};

}  // namespace hwpat::devices
