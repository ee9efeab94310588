// saa2vga, pattern-based: the model of Fig. 3 (saa2vga_lane.hpp) bound
// to two on-chip FIFOs (Table 3 row "saa2vga 1") or to two external
// SRAMs (row "saa2vga 2").  Retargeting the design changes *only* the
// binding chosen here, plus the SRAMs and their master wires that the
// SRAM binding adds — the model is untouched, which is the paper's
// central reuse claim.
#pragma once

#include "designs/saa2vga_lane.hpp"
#include "devices/sram.hpp"

namespace hwpat::designs {

class Saa2VgaPattern : public Saa2VgaSingleLane {
 public:
  explicit Saa2VgaPattern(const Saa2VgaConfig& cfg);

 private:
  // SRAM binding only (empty for the FIFO binding).
  std::unique_ptr<core::SramMasterWires> rm_, wm_;
  std::unique_ptr<devices::ExternalSram> sram_in_, sram_out_;
};

}  // namespace hwpat::designs
