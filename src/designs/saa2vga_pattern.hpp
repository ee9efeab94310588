// saa2vga, pattern-based: the model of Fig. 3.
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
// iterator modules only check the protocol at each edge.  Retargeting
// the design from on-chip FIFOs (Table 3 row "saa2vga 1") to external
// SRAMs (row "saa2vga 2") changes *only* the device binding chosen
// here — the model is untouched, which is the paper's central reuse
// claim.
#pragma once

#include "core/algorithm.hpp"
#include "core/iterator.hpp"
#include "designs/design.hpp"
#include "devices/sram.hpp"
#include "meta/factory.hpp"

namespace hwpat::designs {

class Saa2VgaPattern : public VideoDesign {
 public:
  explicit Saa2VgaPattern(const Saa2VgaConfig& cfg);

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

  [[nodiscard]] const core::Container& rbuffer() const { return *rbuf_; }
  [[nodiscard]] const core::Container& wbuffer() const { return *wbuf_; }
  [[nodiscard]] const core::Iterator& rbuffer_it() const { return *it_in_; }
  [[nodiscard]] const core::Iterator& wbuffer_it() const { return *it_out_; }

 private:
  Saa2VgaConfig cfg_;
  rtl::Bit sof_;
  core::StreamWires rb_w_, wb_w_;
  core::AlgoWires ctl_;
  // SRAM binding only (empty for the FIFO binding).
  std::unique_ptr<core::SramMasterWires> rm_, wm_;
  std::unique_ptr<devices::ExternalSram> sram_in_, sram_out_;

  std::unique_ptr<core::Container> rbuf_;
  std::unique_ptr<core::Container> wbuf_;
  std::unique_ptr<core::Iterator> it_in_;
  std::unique_ptr<core::Iterator> it_out_;
  std::unique_ptr<core::CopyFsm> copy_;
  video::VideoSource src_;
  video::VgaSink vga_;
};

}  // namespace hwpat::designs
