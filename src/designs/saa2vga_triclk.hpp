// saa2vga, tri-clock: the model of Fig. 3 (saa2vga_lane.hpp) split
// across the three clocks a full capture board has — the camera/decoder
// clock, the (fastest) memory/processing clock, and the VGA pixel clock:
//
//   camera domain:  decoder ──► rbuffer
//                                (CDC)
//   memory domain:        ══it══► copy ══it══►
//                                            (CDC)
//   pixel domain:                     wbuffer ──► vga
//
// The model is still the *same* lane as the single-clock
// Saa2VgaPattern: only the binding changed — both buffers bound to
// DeviceKind::AsyncFifoCore with a different domain on each side,
// chaining two clock-domain crossings back to back.  That is the
// paper's reuse claim at its strongest: retargeting the pipeline from
// one clock to three touches zero model code.
//
// End-to-end backpressure (decoder respects `full`, vga pops on
// `!empty`) keeps the pipeline lossless at *any* ratio of the three
// periods; the default 5:2:3 camera:memory:pixel ratio is pairwise
// coprime, so edges almost never align — the stress case for the
// tick edge scheduler and the per-domain activation lists (an
// edge of one clock runs no on_clock() of the other two domains and
// evaluates only the modules its commits reach: Stats::act_skips and
// Stats::seq_skips are gated in bench/baselines.json).
//
// Saa2VgaTriClkConfig::lanes > 1 replicates the lane into a capture
// *farm*: independent decoder→copy→vga lanes sharing the SAME three
// clock domains (so still exactly three domains, each clocking
// `lanes`× the work), which perfbench's video_3clk_farm
// workload measures.  lanes == 1 is the original design,
// bit-identically (lane 0 keeps the unsuffixed names).
#pragma once

#include <vector>

#include "designs/saa2vga_lane.hpp"

namespace hwpat::designs {

class Saa2VgaTriClk : public VideoDesign {
 public:
  explicit Saa2VgaTriClk(const Saa2VgaTriClkConfig& cfg);

  void eval_comb() override;
  // Pure combinational top (drives the constant start strobes only):
  // no on_clock() — pruned from the activation list entirely.
  void declare_state() override { declare_comb_only(); }

  [[nodiscard]] const video::VgaSink& sink() const override {
    return lanes_.front()->sink();
  }
  [[nodiscard]] const video::VideoSource& source() const override {
    return lanes_.front()->source();
  }
  /// True once EVERY lane has emitted and collected all its frames.
  [[nodiscard]] bool finished() const override;

  [[nodiscard]] int lane_count() const {
    return static_cast<int>(lanes_.size());
  }
  /// Lane `i`'s sink (lane 0 == sink()).
  [[nodiscard]] const video::VgaSink& lane_sink(int i) const {
    return lanes_[static_cast<std::size_t>(i)]->sink();
  }

 private:
  rtl::ClockDomain cam_dom_;
  rtl::ClockDomain mem_dom_;
  rtl::ClockDomain pix_dom_;
  std::vector<std::unique_ptr<Saa2VgaLane>> lanes_;
};

}  // namespace hwpat::designs
