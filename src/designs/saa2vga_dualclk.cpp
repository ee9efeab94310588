#include "designs/saa2vga_dualclk.hpp"

namespace hwpat::designs {

Saa2VgaDualClk::Saa2VgaDualClk(const Saa2VgaDualClkConfig& cfg)
    : Saa2VgaSingleLane("saa2vga_dualclk", cfg.width, cfg.height,
                        cfg.frames, cfg.pattern_seed),
      pix_dom_("pix", cfg.pix_period, cfg.pix_phase),
      mem_dom_("mem", cfg.mem_period, cfg.mem_phase) {
  // Everything defaults to the pixel domain (decoder, vga, the comb
  // glue); the copy side runs on the memory clock.
  set_clock_domain(&pix_dom_);
  lane_.build({.device = DeviceKind::AsyncFifoCore,
               .depth = cfg.cdc_depth,
               .mem = &mem_dom_});
}

}  // namespace hwpat::designs
