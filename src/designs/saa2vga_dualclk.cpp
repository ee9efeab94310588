#include "designs/saa2vga_dualclk.hpp"

#include "video/frame.hpp"

namespace hwpat::designs {

namespace {

meta::ContainerSpec cdc_buffer_spec(const Saa2VgaDualClkConfig& cfg,
                                    bool read_side) {
  meta::ContainerSpec s;
  s.name = read_side ? "rbuffer" : "wbuffer";
  s.kind = read_side ? core::ContainerKind::ReadBuffer
                     : core::ContainerKind::WriteBuffer;
  s.device = devices::DeviceKind::AsyncFifoCore;
  s.elem_bits = 8;
  s.depth = cfg.cdc_depth;
  // Same pruned method set as the single-clock pattern; size could not
  // be bound anyway (no global occupancy across domains).
  s.used_methods = read_side
                       ? std::vector<meta::Method>{meta::Method::Pop,
                                                   meta::Method::Empty}
                       : std::vector<meta::Method>{meta::Method::Push,
                                                   meta::Method::Full};
  return s;
}

}  // namespace

Saa2VgaDualClk::Saa2VgaDualClk(const Saa2VgaDualClkConfig& cfg)
    : VideoDesign(nullptr, "saa2vga_dualclk"),
      cfg_(cfg),
      pix_dom_("pix", cfg.pix_period, cfg.pix_phase),
      mem_dom_("mem", cfg.mem_period, cfg.mem_phase),
      sof_(*this, "sof"),
      rb_w_(*this, "rb", 8, 16),
      wb_w_(*this, "wb", 8, 16),
      ctl_(*this, "ctl"),
      src_(this, "decoder",
           {.pixel_interval = 1, .frame_blanking = 8,
            .respect_backpressure = true},
           rb_w_.producer(), sof_,
           camera_frames(cfg.width, cfg.height, cfg.frames,
                         cfg.pattern_seed)),
      vga_(this, "vga",
           {.width = cfg.width, .height = cfg.height, .channels = 1},
           wb_w_.consumer()) {
  // Everything defaults to the pixel domain (decoder, vga, the comb
  // glue); the copy loop and the memory-facing FIFO halves override.
  set_clock_domain(&pix_dom_);

  meta::StreamBuildPorts rb_ports{.method = rb_w_.impl(),
                                  .wr_domain = &pix_dom_,
                                  .rd_domain = &mem_dom_};
  meta::StreamBuildPorts wb_ports{.method = wb_w_.impl(),
                                  .wr_domain = &mem_dom_,
                                  .rd_domain = &pix_dom_};
  rbuf_ = meta::build_stream_container(this, cdc_buffer_spec(cfg_, true),
                                       rb_ports);
  wbuf_ = meta::build_stream_container(this, cdc_buffer_spec(cfg_, false),
                                       wb_ports);

  meta::IteratorSpec in_spec{.name = "rbuffer_it",
                             .traversal = core::Traversal::Forward,
                             .role = core::IterRole::Input,
                             .used_ops = {},
                             .container = cdc_buffer_spec(cfg_, true)};
  meta::IteratorSpec out_spec{.name = "wbuffer_it",
                              .traversal = core::Traversal::Forward,
                              .role = core::IterRole::Output,
                              .used_ops = {},
                              .container = cdc_buffer_spec(cfg_, false)};
  it_in_ = meta::build_input_iterator(this, in_spec, rb_w_.consumer());
  it_out_ = meta::build_output_iterator(this, out_spec, wb_w_.producer());
  copy_ = std::make_unique<core::CopyFsm>(
      this, "copy", core::CopyFsm::Config{}, it_in_->client(),
      it_out_->client(), ctl_.control());
  // The processing side runs on the memory clock.
  it_in_->set_clock_domain(&mem_dom_);
  it_out_->set_clock_domain(&mem_dom_);
  copy_->set_clock_domain(&mem_dom_);
}

void Saa2VgaDualClk::eval_comb() {
  // The copy algorithm is the paper's endless loop: always running.
  ctl_.start.write(true);
}

bool Saa2VgaDualClk::finished() const {
  return src_.done() &&
         vga_.frames().size() == static_cast<std::size_t>(cfg_.frames);
}

}  // namespace hwpat::designs
