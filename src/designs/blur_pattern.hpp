// blur, pattern-based: the third design of Table 3.
//
//   decoder --> rbuffer(3-line buffer) ==rbuffer_it==> blur
//           ==wbuffer_it==> wbuffer --> vga
//
// Both iterators dissolve: blur drives and reads the buffers' own
// method wires (see saa2vga_lane.hpp).
//
// "The rbuffer container, instead of a simple FIFO has been mapped over
// a special one ... structured to provide 3 pixels in a column for each
// access."  The blur algorithm is the library BlurFsm; output frames
// are the (W-2)x(H-2) interior.
#pragma once

#include "core/blur.hpp"
#include "core/iterator.hpp"
#include "core/linebuf_container.hpp"
#include "core/stream_core.hpp"
#include "designs/design.hpp"

namespace hwpat::designs {

class BlurPattern : public VideoDesign {
 public:
  explicit BlurPattern(const BlurConfig& cfg);

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

 private:
  BlurConfig cfg_;
  rtl::Bit sof_;
  core::StreamWires rb_w_;  // pixels in, columns out
  core::StreamWires wb_w_;
  core::AlgoWires ctl_;
  core::LineBufferContainer rbuf_;
  core::CoreStreamContainer wbuf_;
  core::StreamInputIterator it_in_;
  core::StreamOutputIterator it_out_;
  core::BlurFsm blur_;
  video::VideoSource src_;
  video::VgaSink vga_;
};

}  // namespace hwpat::designs
