// Stream endpoints of the video pipeline (Fig. 1 of the paper):
//
//   camera -> video decoder -> [image processing circuit] -> VGA coder
//             (VideoSource)                                  (VgaSink)
//
// VideoSource models the camera + SAA-style video decoder: it emits
// the pixels of a frame sequence in raster order into a stream
// container's producer port, with a configurable pixel interval
// (decoder pixel clock) and inter-frame blanking.  By default it is
// *unthrottled* like real video silicon — if the downstream container
// cannot accept a pixel in time, that is a design error (ProtocolError
// through the container's strict mode); set `respect_backpressure` for
// testbenches that stall the pipe on purpose.
//
// VgaSink models the VGA coder + monitor: it consumes pixels from a
// stream container's consumer port and reassembles frames.  With
// `strict_rate` it underruns (throws, from the validate phase of the
// edge) when a pixel is not available within `pixel_interval` cycles —
// the real-time constraint of a CRT.
#pragma once

#include <vector>

#include "core/ports.hpp"
#include "rtl/module.hpp"
#include "video/frame.hpp"

namespace hwpat::video {

using rtl::Bit;
using rtl::Module;

class VideoSource : public Module {
 public:
  struct Config {
    int pixel_interval = 1;   ///< cycles between pixels (>=1)
    int frame_blanking = 0;   ///< idle cycles between frames
    bool respect_backpressure = false;
    bool loop = false;        ///< endlessly repeat the frame sequence
  };

  /// `sof` is asserted together with the first pixel of each frame.
  VideoSource(Module* parent, std::string name, Config cfg,
              core::StreamProducer out, Bit& sof,
              std::vector<Frame> frames);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] bool done() const {
    return !cfg_.loop && frame_idx_ >= frames_.size();
  }
  [[nodiscard]] std::size_t pixels_sent() const { return sent_; }

 private:
  [[nodiscard]] bool pixel_due() const;

  Config cfg_;
  core::StreamProducer out_;
  Bit& sof_;
  std::vector<Frame> frames_;
  std::size_t frame_idx_ = 0;
  std::size_t pix_idx_ = 0;
  int wait_ = 0;
  std::size_t sent_ = 0;
};

class VgaSink : public Module {
 public:
  struct Config {
    int width = 64;
    int height = 48;
    int channels = 1;
    int pixel_interval = 1;  ///< consume at most one pixel per interval
    bool strict_rate = false;  ///< throw on underrun once streaming
  };

  VgaSink(Module* parent, std::string name, Config cfg,
          core::StreamConsumer in);

  void eval_comb() override;
  /// strict_rate validate phase: raises the underrun ProtocolError from
  /// settled inputs and pre-edge state, before any on_clock() ran.
  void on_clock_check() const override;
  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const std::vector<Frame>& frames() const { return frames_; }
  [[nodiscard]] std::size_t pixels_received() const { return received_; }

 private:
  Config cfg_;
  core::StreamConsumer in_;
  std::vector<Frame> frames_;
  Frame current_;
  std::size_t pix_idx_ = 0;
  int wait_ = 0;
  bool streaming_ = false;
  std::size_t received_ = 0;
};

}  // namespace hwpat::video
