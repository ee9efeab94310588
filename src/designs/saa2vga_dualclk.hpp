// saa2vga, dual-clock: the pattern-based pipeline of Fig. 3 split
// across the two clocks a real video board has — the decoder/VGA pixel
// clock and the (faster) memory/processing clock:
//
//   pixel domain:   decoder ──► rbuffer            wbuffer ──► vga
//                                (CDC)               (CDC)
//   memory domain:   ══rbuffer_it══► copy ══wbuffer_it══►
//
// The model is the *same* CopyFsm + iterator pair as the single-clock
// Saa2VgaPattern; what changed is only the binding: both buffers are
// rebound to DeviceKind::AsyncFifoCore (the dual-clock gray-pointer
// FIFO), their producer/consumer halves assigned to the pixel and
// memory domains, and the copy loop clocked by the memory domain.
// That is the paper's reuse claim extended across a clock-domain
// crossing: retargeting to a multi-clock platform touches the spec
// layer, not the model.
//
// End-to-end backpressure (decoder respects `full`, vga pops on
// `!empty`) makes the pipeline lossless at *any* clock ratio, including
// coprime ones — the CDC tests sweep 1:1, 1:3, 3:1 and 3:7.
#pragma once

#include "core/algorithm.hpp"
#include "core/iterator.hpp"
#include "designs/design.hpp"
#include "meta/factory.hpp"
#include "rtl/clock.hpp"

namespace hwpat::designs {

class Saa2VgaDualClk : public VideoDesign {
 public:
  explicit Saa2VgaDualClk(const Saa2VgaDualClkConfig& cfg);

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

  [[nodiscard]] const rtl::ClockDomain& pix_domain() const {
    return pix_dom_;
  }
  [[nodiscard]] const rtl::ClockDomain& mem_domain() const {
    return mem_dom_;
  }

 private:
  Saa2VgaDualClkConfig cfg_;
  rtl::ClockDomain pix_dom_;
  rtl::ClockDomain mem_dom_;
  rtl::Bit sof_;
  core::StreamWires rb_w_, wb_w_;
  core::AlgoWires ctl_;
  std::unique_ptr<core::Container> rbuf_;
  std::unique_ptr<core::Container> wbuf_;
  std::unique_ptr<core::Iterator> it_in_;
  std::unique_ptr<core::Iterator> it_out_;
  std::unique_ptr<core::CopyFsm> copy_;
  video::VideoSource src_;
  video::VgaSink vga_;
};

}  // namespace hwpat::designs
