#include "designs/saa2vga_shared.hpp"

namespace hwpat::designs {

Saa2VgaPatternShared::Saa2VgaPatternShared(const Saa2VgaConfig& cfg,
                                           devices::ArbPolicy policy)
    : Saa2VgaSingleLane("saa2vga_shared", cfg.width, cfg.height,
                        cfg.frames, cfg.pattern_seed),
      rm_(*this, "rm", 8, 16),
      wm_(*this, "wm", 8, 16),
      sm_(*this, "sm", 8, 16),
      // The generated arbitration: two container masters, one SRAM.
      arb_(this, "arbiter", policy,
           {{&rm_.req, &rm_.we, &rm_.addr, &rm_.wdata, &rm_.ack,
             &rm_.rdata},
            {&wm_.req, &wm_.we, &wm_.addr, &wm_.wdata, &wm_.ack,
             &wm_.rdata}},
           {&sm_.req, &sm_.we, &sm_.addr, &sm_.wdata, &sm_.ack,
            &sm_.rdata}),
      sram_(this, "sram",
            devices::SramConfig{.data_width = 8, .addr_width = 16},
            sm_.device()) {
  auto rm = rm_.master();
  auto wm = wm_.master();
  lane_.build({.device = DeviceKind::Sram,
               .depth = cfg.buffer_depth,
               .shared_device = true},
              &rm, &wm);
}

std::unique_ptr<VideoDesign> make_saa2vga_shared(
    const Saa2VgaConfig& cfg, devices::ArbPolicy policy) {
  return std::make_unique<Saa2VgaPatternShared>(cfg, policy);
}

}  // namespace hwpat::designs
