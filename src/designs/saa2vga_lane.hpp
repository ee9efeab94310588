// saa2vga's model, Fig. 3, written once for every binding:
//
//   decoder --> rbuffer ==rbuffer_it==> copy ==wbuffer_it==> wbuffer --> vga
//
//   buffer wire          copy's iterator port
//   rb_can_pop   ------> rbuffer_it ready, rvalid
//   rb_front     ------> rbuffer_it rdata
//   rb_pop       <------ rbuffer_it inc
//   wb_can_push  ------> wbuffer_it ready
//   wb_push      <------ wbuffer_it write
//   wb_push_data <------ wbuffer_it wdata
//
// The copy algorithm is the library CopyFsm; it touches data only
// through the two iterators.  As at synthesis, the iterators dissolve:
// their client views are the buffers' own wires (above), and the
// iterator modules only check the protocol at each edge.
//
// A design chooses only the Saa2VgaBinding — the buffers' device and
// depth, whether both share one physical device, and the clock domains
// of the camera and copy stages — and builds the devices that binding
// needs.  The model never changes: that is the paper's central reuse
// claim, and the four saa2vga pattern designs (on-chip FIFOs or SRAMs,
// one shared SRAM, two or three clock domains) differ in nothing else.
//
// Elaboration order is part of every waveform, snapshot blob and
// topology hash, so a lane is built in two calls: the constructor
// declares the lane's wires on the top and builds the decoder and vga;
// build(), called once the design has built its memory devices, builds
// the buffers, both iterators and the copy loop.
#pragma once

#include <memory>
#include <string>

#include "core/algorithm.hpp"
#include "core/iterator.hpp"
#include "designs/design.hpp"
#include "meta/spec.hpp"
#include "rtl/clock.hpp"

namespace hwpat::designs {

/// What a saa2vga design binds the model to.  A null clock domain means
/// the top's domain, which also clocks the vga and wbuffer's read half.
struct Saa2VgaBinding {
  DeviceKind device = DeviceKind::FifoCore;  ///< both buffers'
  int depth = 512;  ///< FIFO depth / SRAM region capacity
  bool shared_device = false;  ///< both buffers behind one SRAM arbiter
  const rtl::ClockDomain* cam = nullptr;  ///< decoder, rbuffer's write half
  /// The iterators, the copy loop and the buffers' copy-side halves.
  const rtl::ClockDomain* mem = nullptr;
};

/// The spec of lane `lane`'s read (`read_side`) or write buffer.  The
/// copy uses pop/empty on the read side and push/full on the write
/// side; size is never bound, so its datapath is pruned.  An SRAM
/// binding puts the read buffer at 0x0000 and the write buffer at
/// 0x8000.
[[nodiscard]] meta::ContainerSpec saa2vga_buffer_spec(
    const Saa2VgaBinding& b, bool read_side, int lane = 0);

/// One decoder→rbuffer→copy→wbuffer→vga pipeline on `top`.  The method
/// and control wires are the top's (the usual parent-owns-the-wires
/// convention; the dissolved iterators own only their tie-off wires).
/// Lane `index` > 0 suffixes every wire and module name (`rbuffer_it1`,
/// ...) and offsets the pattern seed by `index`, so every module path
/// is unique and lane 0 elaborates like a single-lane design.
class Saa2VgaLane {
 public:
  /// Declares the lane's wires on `top` and builds its decoder (frames
  /// of `width`×`height` from camera_frames()) and vga.
  Saa2VgaLane(rtl::Module& top, int width, int height, int frames,
              unsigned pattern_seed, int index = 0);

  /// Builds the buffers, the iterators and the copy loop under `b`.  An
  /// SRAM binding passes each buffer's memory master port.
  void build(const Saa2VgaBinding& b, core::SramMaster* rmem = nullptr,
             core::SramMaster* wmem = nullptr);

  /// The copy algorithm is the paper's endless loop: always running.
  void start() { ctl_.start.write(true); }
  /// True once every input frame has been emitted and every output
  /// frame collected.
  [[nodiscard]] bool finished() const {
    return src_.done() &&
           vga_.frames().size() == static_cast<std::size_t>(frames_);
  }
  [[nodiscard]] const video::VgaSink& sink() const { return vga_; }
  [[nodiscard]] const video::VideoSource& source() const { return src_; }

 private:
  rtl::Module& top_;
  int index_;
  int frames_;
  rtl::Bit sof_;
  core::StreamWires rb_w_, wb_w_;
  core::AlgoWires ctl_;
  video::VideoSource src_;
  video::VgaSink vga_;
  std::unique_ptr<core::Container> rbuf_, wbuf_;
  std::unique_ptr<core::Iterator> it_in_, it_out_;
  std::unique_ptr<core::CopyFsm> copy_;
};

/// The top of a one-lane saa2vga design named `name`: its only logic is
/// the lane's constant start strobe.  The lane is built first, so a
/// derived design then builds its clock domains or memory devices and
/// calls lane_.build().
class Saa2VgaSingleLane : public VideoDesign {
 public:
  void eval_comb() override { lane_.start(); }
  // Pure combinational top: no on_clock(), pruned from every
  // activation list.
  void declare_state() override { declare_comb_only(); }

  [[nodiscard]] const video::VgaSink& sink() const override {
    return lane_.sink();
  }
  [[nodiscard]] const video::VideoSource& source() const override {
    return lane_.source();
  }
  [[nodiscard]] bool finished() const override { return lane_.finished(); }

 protected:
  Saa2VgaSingleLane(std::string name, int width, int height, int frames,
                    unsigned pattern_seed)
      : VideoDesign(nullptr, std::move(name)),
        lane_(*this, width, height, frames, pattern_seed) {}

  Saa2VgaLane lane_;
};

}  // namespace hwpat::designs
