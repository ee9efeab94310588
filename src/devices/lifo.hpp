// LifoCore: on-chip LIFO (hardware stack) macro.
//
// The paper notes stacks map naturally onto FIFO-like cores and that
// "queues and read/write buffers can also be mapped over LIFOs"; this is
// the LIFO core those mappings use.  Show-ahead: `rd_data` presents the
// top of stack combinationally whenever `empty` is low; `rd_en` pops at
// the rising edge, `wr_en` pushes.  Simultaneous push+pop replaces the
// top element.
#pragma once

#include <vector>

#include "devices/device.hpp"
#include "rtl/module.hpp"

namespace hwpat::devices {

using rtl::Bit;
using rtl::Bus;

struct LifoConfig {
  int width = 8;
  int depth = 512;
  bool strict = true;  ///< throw ProtocolError on underflow/overflow
};

struct LifoPorts {
  const Bit& wr_en;
  const Bus& wr_data;
  const Bit& rd_en;
  Bus& rd_data;
  Bit& empty;
  Bit& full;
  Bus& level;
  // Optional stream-container flags (see FifoPorts).
  Bit* can_push = nullptr;  ///< !full
  Bit* can_pop = nullptr;   ///< !empty
};

class LifoCore : public rtl::Module {
 public:
  LifoCore(Module* parent, std::string name, LifoConfig cfg, LifoPorts p);

  void eval_comb() override;
  void on_clock() override;
  /// Strict-mode validate phase (see FifoCore::on_clock_check).
  void on_clock_check() const override;
  void on_reset() override;
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const LifoConfig& config() const { return cfg_; }
  [[nodiscard]] int size() const { return count_; }

 private:
  LifoConfig cfg_;
  LifoPorts p_;
  std::vector<Word> mem_;
  int count_ = 0;  // stack pointer: elements stored
};

}  // namespace hwpat::devices
