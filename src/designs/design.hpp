// The reference designs of the paper's evaluation (§4, Table 3).
//
// Each design exists twice: a *pattern* version modelled with
// containers + iterators + a library algorithm, and a *custom* (ad hoc)
// version where one hand-written FSM drives the devices directly —
// the comparison baseline of Table 3.  Both versions share the same
// VideoSource (camera + decoder model) and VgaSink (coder + monitor
// model), so any resource/cycle difference is attributable to the
// pattern machinery alone.
#pragma once

#include <memory>

#include "devices/device.hpp"
#include "rtl/module.hpp"
#include "video/stream.hpp"

namespace hwpat::designs {

using devices::DeviceKind;

/// Common interface every Table 3 design implements.
class VideoDesign : public rtl::Module {
 public:
  using rtl::Module::Module;

  [[nodiscard]] virtual const video::VgaSink& sink() const = 0;
  [[nodiscard]] virtual const video::VideoSource& source() const = 0;
  /// True once every input frame has been emitted and every output
  /// frame collected.
  [[nodiscard]] virtual bool finished() const = 0;
};

struct Saa2VgaConfig {
  int width = 64;
  int height = 48;
  int buffer_depth = 512;   ///< FIFO depth / SRAM region capacity
  DeviceKind device = DeviceKind::FifoCore;  ///< FifoCore or Sram
  int frames = 1;
  unsigned pattern_seed = 1;  ///< synthetic camera content
};

struct BlurConfig {
  int width = 64;
  int height = 48;
  int out_fifo_depth = 512;
  int frames = 1;
  unsigned pattern_seed = 1;
};

/// saa2vga split across independent pixel and memory clock domains,
/// crossing through dual-clock async FIFOs (see saa2vga_dualclk.hpp).
/// Periods/phases are in scheduler ticks; the defaults model a memory
/// clock three times faster than the pixel clock.
struct Saa2VgaDualClkConfig {
  int width = 64;
  int height = 48;
  int cdc_depth = 16;  ///< async-FIFO capacity; power of two, >= 2
  int frames = 1;
  unsigned pattern_seed = 1;
  std::int64_t pix_period = 3;
  std::int64_t mem_period = 1;
  std::int64_t pix_phase = 0;
  std::int64_t mem_phase = 0;
};

/// saa2vga across THREE clock domains (see saa2vga_triclk.hpp): the
/// camera/decoder on its own camera clock, the copy loop on the memory
/// clock, the VGA coder on the pixel clock, chained through two async
/// FIFOs (camera→memory and memory→pixel).  Periods/phases are in
/// scheduler ticks; the defaults are the pairwise-coprime 5:2:3 ratio
/// (slow camera, fastest memory), so no two domains ever stay edge-
/// aligned for long — the stress case for the tick-heap scheduler and
/// the per-domain settle partitions.
struct Saa2VgaTriClkConfig {
  int width = 64;
  int height = 48;
  int cdc_depth = 16;  ///< async-FIFO capacity; power of two, >= 2
  int frames = 1;
  unsigned pattern_seed = 1;
  std::int64_t cam_period = 5;
  std::int64_t mem_period = 2;
  std::int64_t pix_period = 3;
  std::int64_t cam_phase = 0;
  std::int64_t mem_phase = 0;
  std::int64_t pix_phase = 0;
  /// Independent camera→memory→pixel pipelines sharing the SAME three
  /// clock domains (a capture farm on one board).  Each lane gets its
  /// own decoder/FIFOs/copy-loop/VGA and a distinct pattern seed
  /// (pattern_seed + lane).  Lanes multiply the per-partition work
  /// without adding domains.  1 (the default) is the original tri-clock
  /// design, bit-identically.
  int lanes = 1;
};

/// saa2vga, pattern-based (rows 1-2 of Table 3; device selects which).
[[nodiscard]] std::unique_ptr<VideoDesign> make_saa2vga_pattern(
    const Saa2VgaConfig& cfg);
/// saa2vga, ad hoc implementation.
[[nodiscard]] std::unique_ptr<VideoDesign> make_saa2vga_custom(
    const Saa2VgaConfig& cfg);
/// blur, pattern-based (row 3 of Table 3).
[[nodiscard]] std::unique_ptr<VideoDesign> make_blur_pattern(
    const BlurConfig& cfg);
/// blur, ad hoc implementation.
[[nodiscard]] std::unique_ptr<VideoDesign> make_blur_custom(
    const BlurConfig& cfg);
/// saa2vga, pattern-based, dual-clock (pixel + memory domains bridged
/// by async FIFOs).
[[nodiscard]] std::unique_ptr<VideoDesign> make_saa2vga_dualclk(
    const Saa2VgaDualClkConfig& cfg);
/// saa2vga, pattern-based, tri-clock (camera + memory + pixel domains
/// chained through two async FIFOs).
[[nodiscard]] std::unique_ptr<VideoDesign> make_saa2vga_triclk(
    const Saa2VgaTriClkConfig& cfg);

/// The frame sequence both versions of a design are fed with.
[[nodiscard]] std::vector<video::Frame> camera_frames(int w, int h,
                                                      int frames,
                                                      unsigned seed);

}  // namespace hwpat::designs
