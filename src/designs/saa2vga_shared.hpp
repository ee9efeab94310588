// saa2vga over a SINGLE shared external SRAM: a third design-space
// point beyond the two rows of Table 3.
//
// Both buffers (rbuffer and wbuffer) live in different regions of one
// physical SRAM behind the generated arbiter — "metaprogramming ...
// allows automatic generation of arbitration logic for shared physical
// resources (e.g. RAM)" (§3.4).  The containers and the copy model are
// byte-identical to Saa2VgaPattern's: neither knows the memory is
// shared, which is the transparency claim this design demonstrates.
// The price is throughput (one memory port serves both buffers) — the
// design-space bench quantifies it.
#pragma once

#include "core/algorithm.hpp"
#include "core/iterator.hpp"
#include "designs/design.hpp"
#include "devices/arbiter.hpp"
#include "devices/sram.hpp"
#include "meta/factory.hpp"

namespace hwpat::designs {

class Saa2VgaPatternShared : public VideoDesign {
 public:
  explicit Saa2VgaPatternShared(const Saa2VgaConfig& cfg,
                                devices::ArbPolicy policy =
                                    devices::ArbPolicy::RoundRobin);

  void eval_comb() override;
  // Pure combinational top (drives the constant start strobe only).
  void declare_state() override { declare_comb_only(); }

  [[nodiscard]] const video::VgaSink& sink() const override {
    return vga_;
  }
  [[nodiscard]] const video::VideoSource& source() const override {
    return src_;
  }
  [[nodiscard]] bool finished() const override;

  [[nodiscard]] const devices::SramArbiter& arbiter() const {
    return *arb_;
  }

 private:
  Saa2VgaConfig cfg_;
  rtl::Bit sof_;
  core::StreamWires rb_w_, wb_w_;
  core::AlgoWires ctl_;
  core::SramMasterWires rm_, wm_, sm_;  // two masters + slave side
  std::unique_ptr<devices::SramArbiter> arb_;
  std::unique_ptr<devices::ExternalSram> sram_;
  std::unique_ptr<core::Container> rbuf_, wbuf_;
  std::unique_ptr<core::Iterator> it_in_, it_out_;
  std::unique_ptr<core::CopyFsm> copy_;
  video::VideoSource src_;
  video::VgaSink vga_;
};

/// Factory counterpart of make_saa2vga_pattern for the shared binding.
[[nodiscard]] std::unique_ptr<VideoDesign> make_saa2vga_shared(
    const Saa2VgaConfig& cfg,
    devices::ArbPolicy policy = devices::ArbPolicy::RoundRobin);

}  // namespace hwpat::designs
