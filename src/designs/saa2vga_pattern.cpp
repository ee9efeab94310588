#include "designs/saa2vga_pattern.hpp"

namespace hwpat::designs {

Saa2VgaPattern::Saa2VgaPattern(const Saa2VgaConfig& cfg)
    : Saa2VgaSingleLane("saa2vga_pattern", cfg.width, cfg.height,
                        cfg.frames, cfg.pattern_seed) {
  const Saa2VgaBinding binding{.device = cfg.device,
                               .depth = cfg.buffer_depth};
  if (cfg.device != DeviceKind::Sram) {
    lane_.build(binding);
    return;
  }
  rm_ = std::make_unique<core::SramMasterWires>(*this, "rm", 8, 16);
  wm_ = std::make_unique<core::SramMasterWires>(*this, "wm", 8, 16);
  sram_in_ = std::make_unique<devices::ExternalSram>(
      this, "sram_in", devices::SramConfig{.data_width = 8, .addr_width = 16},
      rm_->device());
  sram_out_ = std::make_unique<devices::ExternalSram>(
      this, "sram_out", devices::SramConfig{.data_width = 8, .addr_width = 16},
      wm_->device());
  auto rm = rm_->master();
  auto wm = wm_->master();
  lane_.build(binding, &rm, &wm);
}

}  // namespace hwpat::designs
