#include "designs/saa2vga_triclk.hpp"

#include <algorithm>

namespace hwpat::designs {

Saa2VgaTriClk::Saa2VgaTriClk(const Saa2VgaTriClkConfig& cfg)
    : VideoDesign(nullptr, "saa2vga_triclk"),
      cam_dom_("cam", cfg.cam_period, cfg.cam_phase),
      mem_dom_("mem", cfg.mem_period, cfg.mem_phase),
      pix_dom_("pix", cfg.pix_period, cfg.pix_phase) {
  HWPAT_ASSERT(cfg.lanes >= 1);
  // The top (the comb glue), and with it each lane's vga and wbuffer
  // read half, runs on the pixel clock.  All lanes share these three
  // domains: the farm still has exactly three, each lanes× as heavy.
  set_clock_domain(&pix_dom_);
  lanes_.reserve(static_cast<std::size_t>(cfg.lanes));
  for (int i = 0; i < cfg.lanes; ++i) {
    lanes_.push_back(std::make_unique<Saa2VgaLane>(
        *this, cfg.width, cfg.height, cfg.frames, cfg.pattern_seed, i));
    lanes_.back()->build({.device = DeviceKind::AsyncFifoCore,
                          .depth = cfg.cdc_depth,
                          .cam = &cam_dom_,
                          .mem = &mem_dom_});
  }
}

void Saa2VgaTriClk::eval_comb() {
  for (const auto& lane : lanes_) lane->start();
}

bool Saa2VgaTriClk::finished() const {
  return std::all_of(lanes_.begin(), lanes_.end(),
                     [](const auto& lane) { return lane->finished(); });
}

}  // namespace hwpat::designs
