// ExternalSram: off-chip asynchronous static RAM behind a req/ack
// handshake, matching the implementation interface of the generated
// `rbuffer_sram` entity in Fig. 5 of the paper (p_addr, p_data, req,
// ack).
//
// Protocol: the master drives addr/wdata/we and raises `req`.  After
// `latency` rising edges the operation is performed and `ack` is high
// for exactly one cycle (read data registered on `rdata`).  The cycle
// after `ack`, the SRAM ignores `req` (turnaround), so a sustained
// access takes latency+1 cycles — 2 cycles with the default latency of
// the modelled board.
//
// Being off-chip, the SRAM itself consumes no FPGA resources (that is
// why the paper's saa2vga_2 row shows 0 block RAMs); only the
// controller logic inside containers does.
#pragma once

#include <vector>

#include "devices/device.hpp"
#include "rtl/module.hpp"

namespace hwpat::devices {

using rtl::Bit;
using rtl::Bus;

struct SramConfig {
  int data_width = 8;
  int addr_width = 16;
  int latency = 1;  ///< edges from accepted req to operation + ack
};

struct SramPorts {
  const Bit& req;
  const Bit& we;
  const Bus& addr;
  const Bus& wdata;
  Bit& ack;
  Bus& rdata;
};

class ExternalSram : public rtl::Module {
 public:
  /// Throws Error when `p.addr` is wider than `cfg.addr_width`.
  ExternalSram(Module* parent, std::string name, SramConfig cfg,
               SramPorts p);

  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  // Off-chip: contributes nothing to the FPGA resource tally.
  void report(rtl::PrimitiveTally&) const override {}

  [[nodiscard]] const SramConfig& config() const { return cfg_; }

  /// Direct backdoor access for testbenches (load/readback images).
  /// preload() throws Error, writing nothing, when the words do not fit
  /// (see preload_words()).
  [[nodiscard]] const std::vector<Word>& mem() const { return mem_; }
  void preload(std::size_t offset, const std::vector<Word>& data);

 private:
  enum class State { Idle, Busy, Turnaround };

  SramConfig cfg_;
  SramPorts p_;
  std::vector<Word> mem_;
  State state_ = State::Idle;
  int countdown_ = 0;

  void do_op();
};

}  // namespace hwpat::devices
