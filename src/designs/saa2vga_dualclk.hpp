// saa2vga, dual-clock: the model of Fig. 3 (saa2vga_lane.hpp) split
// across the two clocks a real video board has — the decoder/VGA pixel
// clock and the (faster) memory/processing clock:
//
//   pixel domain:   decoder ──► rbuffer            wbuffer ──► vga
//                                (CDC)               (CDC)
//   memory domain:   ══rbuffer_it══► copy ══wbuffer_it══►
//
// The model is the *same* lane as the single-clock Saa2VgaPattern;
// only the binding changed: both buffers are bound to
// DeviceKind::AsyncFifoCore (the dual-clock gray-pointer FIFO), and the
// copy side — the iterators, the copy loop and the buffers' inner
// halves — is assigned the memory domain.  That is the paper's reuse
// claim extended across a clock-domain crossing: retargeting to a
// multi-clock platform touches the binding, not the model.
//
// End-to-end backpressure (decoder respects `full`, vga pops on
// `!empty`) makes the pipeline lossless at *any* clock ratio, including
// coprime ones — the CDC tests sweep 1:1, 1:3, 3:1 and 3:7.
#pragma once

#include "designs/saa2vga_lane.hpp"

namespace hwpat::designs {

class Saa2VgaDualClk : public Saa2VgaSingleLane {
 public:
  explicit Saa2VgaDualClk(const Saa2VgaDualClkConfig& cfg);

 private:
  rtl::ClockDomain pix_dom_;
  rtl::ClockDomain mem_dom_;
};

}  // namespace hwpat::designs
