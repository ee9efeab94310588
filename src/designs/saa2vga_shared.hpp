// saa2vga over a SINGLE shared external SRAM: a third design-space
// point beyond the two rows of Table 3.
//
// The model of Fig. 3 (saa2vga_lane.hpp) is bound with both buffers
// (rbuffer and wbuffer) in different regions of one physical SRAM
// behind the generated arbiter — "metaprogramming ... allows automatic
// generation of arbitration logic for shared physical resources (e.g.
// RAM)" (§3.4).  The lane is the same as Saa2VgaPattern's: neither the
// containers nor the copy loop know the memory is shared, which is the
// transparency claim this design demonstrates.  The price is throughput
// (one memory port serves both buffers) — the design-space bench
// quantifies it.
#pragma once

#include "designs/saa2vga_lane.hpp"
#include "devices/arbiter.hpp"
#include "devices/sram.hpp"

namespace hwpat::designs {

class Saa2VgaPatternShared : public Saa2VgaSingleLane {
 public:
  explicit Saa2VgaPatternShared(const Saa2VgaConfig& cfg,
                                devices::ArbPolicy policy =
                                    devices::ArbPolicy::RoundRobin);

  [[nodiscard]] const devices::SramArbiter& arbiter() const { return arb_; }

 private:
  core::SramMasterWires rm_, wm_, sm_;  // two masters + slave side
  devices::SramArbiter arb_;
  devices::ExternalSram sram_;
};

/// Factory counterpart of make_saa2vga_pattern for the shared binding.
[[nodiscard]] std::unique_ptr<VideoDesign> make_saa2vga_shared(
    const Saa2VgaConfig& cfg,
    devices::ArbPolicy policy = devices::ArbPolicy::RoundRobin);

}  // namespace hwpat::designs
