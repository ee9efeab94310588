// BlockRam: on-chip dual-port synchronous block RAM (Spartan-II style).
//
// Port A reads and writes; port B is read-only.  Reads are synchronous
// with one cycle of latency (read-first behaviour on simultaneous
// write+read of the same address through port A).
#pragma once

#include <vector>

#include "devices/device.hpp"
#include "rtl/module.hpp"

namespace hwpat::devices {

using rtl::Bit;
using rtl::Bus;

struct BramConfig {
  int data_width = 8;
  int depth = 512;
};

struct BramPorts {
  // Port A: read/write.
  const Bit& a_en;
  const Bit& a_we;
  const Bus& a_addr;
  const Bus& a_wdata;
  Bus& a_rdata;
  // Port B: read-only.
  const Bit& b_en;
  const Bus& b_addr;
  Bus& b_rdata;
};

class BlockRam : public rtl::Module {
 public:
  BlockRam(Module* parent, std::string name, BramConfig cfg, BramPorts p);

  void on_clock() override;
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const BramConfig& config() const { return cfg_; }
  [[nodiscard]] const std::vector<Word>& mem() const { return mem_; }
  /// Writes data into the memory from `offset`; throws Error, writing
  /// nothing, when it does not fit (see check_preload_fits()).
  void preload(std::size_t offset, const std::vector<Word>& data);

 private:
  BramConfig cfg_;
  BramPorts p_;
  std::vector<Word> mem_;
};

}  // namespace hwpat::devices
