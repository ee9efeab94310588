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
//
// The model keeps its 2^addr_width words in pages of 512 words (4 KiB),
// or one page of the whole memory when it is smaller.  A page is
// allocated, zeroed, at the first nonzero word written or preloaded
// into it, and an absent page reads as 0, so a design that buffers a
// few hundred pixels in a 2^16-word SRAM builds, elaborates and resets
// at the cost of the pages it touched, not of 512 KiB.  Snapshots and
// the construction baseline store a tag byte per page and the words of
// the pages that hold a nonzero word only (StateWriter::paged_words()),
// and mem() returns a flat copy of the image.
#pragma once

#include <cstddef>
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
  /// mem() returns a copy of all 2^addr_width words, so a caller that
  /// inspects many takes it once.  preload() throws Error, writing
  /// nothing, when the words do not fit (see check_preload_fits()).
  [[nodiscard]] std::vector<Word> mem() const;
  void preload(std::size_t offset, const std::vector<Word>& data);

  /// The pages allocated: those a nonzero word was written, preloaded
  /// or restored into since construction or the last reset() (a
  /// restore drops each page it stores as all zero).
  [[nodiscard]] std::size_t resident_pages() const;

 private:
  enum class State { Idle, Busy, Turnaround };

  SramConfig cfg_;
  SramPorts p_;
  int page_bits_;  ///< log2 of the words per page
  rtl::WordPages pages_;
  State state_ = State::Idle;
  int countdown_ = 0;

  [[nodiscard]] std::size_t page_words() const {
    return std::size_t{1} << page_bits_;
  }
  /// The word at address a (in range): 0 in an absent page.
  [[nodiscard]] Word load(std::size_t a) const;
  /// Stores v (truncated) at address a (in range), allocating its page
  /// unless it is absent and v is 0.
  void store(std::size_t a, Word v);
  void do_op();
};

}  // namespace hwpat::devices
