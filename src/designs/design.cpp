#include "designs/design.hpp"

#include "common/error.hpp"
#include "designs/blur_custom.hpp"
#include "designs/blur_pattern.hpp"
#include "designs/saa2vga_custom.hpp"
#include "designs/saa2vga_dualclk.hpp"
#include "designs/saa2vga_pattern.hpp"
#include "designs/saa2vga_triclk.hpp"
#include "video/frame.hpp"

namespace hwpat::designs {

std::vector<video::Frame> camera_frames(int w, int h, int frames,
                                        unsigned seed) {
  std::vector<video::Frame> v;
  v.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    switch (i % 3) {
      case 0: v.push_back(video::noise(w, h, seed + static_cast<unsigned>(i))); break;
      case 1: v.push_back(video::gradient(w, h)); break;
      default: v.push_back(video::checkerboard(w, h)); break;
    }
  }
  return v;
}

std::unique_ptr<VideoDesign> make_saa2vga_pattern(
    const Saa2VgaConfig& cfg) {
  return std::make_unique<Saa2VgaPattern>(cfg);
}

std::unique_ptr<VideoDesign> make_saa2vga_custom(const Saa2VgaConfig& cfg) {
  switch (cfg.device) {
    case DeviceKind::FifoCore:
      return std::make_unique<Saa2VgaCustomFifo>(cfg);
    case DeviceKind::Sram:
      return std::make_unique<Saa2VgaCustomSram>(cfg);
    default:
      throw SpecError(
          "make_saa2vga_custom: no ad hoc implementation exists for "
          "device " +
          devices::to_string(cfg.device) +
          " — that is the point of the paper: every new binding needs a "
          "fresh hand-written design");
  }
}

std::unique_ptr<VideoDesign> make_blur_pattern(const BlurConfig& cfg) {
  return std::make_unique<BlurPattern>(cfg);
}

std::unique_ptr<VideoDesign> make_blur_custom(const BlurConfig& cfg) {
  return std::make_unique<BlurCustom>(cfg);
}

std::unique_ptr<VideoDesign> make_saa2vga_dualclk(
    const Saa2VgaDualClkConfig& cfg) {
  return std::make_unique<Saa2VgaDualClk>(cfg);
}

std::unique_ptr<VideoDesign> make_saa2vga_triclk(
    const Saa2VgaTriClkConfig& cfg) {
  return std::make_unique<Saa2VgaTriClk>(cfg);
}

}  // namespace hwpat::designs
