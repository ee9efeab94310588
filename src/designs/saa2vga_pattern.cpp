#include "designs/saa2vga_pattern.hpp"

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

namespace {

meta::ContainerSpec buffer_spec(const Saa2VgaConfig& cfg, bool read_side) {
  meta::ContainerSpec s;
  s.name = read_side ? "rbuffer" : "wbuffer";
  s.kind = read_side ? core::ContainerKind::ReadBuffer
                     : core::ContainerKind::WriteBuffer;
  s.device = cfg.device;
  s.elem_bits = 8;
  s.depth = cfg.buffer_depth;
  s.base_addr = read_side ? 0x0000 : 0x8000;
  // The copy pipeline uses pop/empty on the read side and push/full on
  // the write side; size is never bound, so its datapath is pruned.
  s.used_methods = read_side
                       ? std::vector<meta::Method>{meta::Method::Pop,
                                                   meta::Method::Empty}
                       : std::vector<meta::Method>{meta::Method::Push,
                                                   meta::Method::Full};
  return s;
}

}  // namespace

Saa2VgaPattern::Saa2VgaPattern(const Saa2VgaConfig& cfg)
    : VideoDesign(nullptr, "saa2vga_pattern"),
      cfg_(cfg),
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
  meta::StreamBuildPorts rb_ports{.method = rb_w_.impl()};
  meta::StreamBuildPorts wb_ports{.method = wb_w_.impl()};
  if (cfg_.device == DeviceKind::Sram) {
    rm_ = std::make_unique<core::SramMasterWires>(*this, "rm", 8, 16);
    wm_ = std::make_unique<core::SramMasterWires>(*this, "wm", 8, 16);
    sram_in_ = std::make_unique<devices::ExternalSram>(
        this, "sram_in",
        devices::SramConfig{.data_width = 8, .addr_width = 16},
        rm_->device());
    sram_out_ = std::make_unique<devices::ExternalSram>(
        this, "sram_out",
        devices::SramConfig{.data_width = 8, .addr_width = 16},
        wm_->device());
    auto rm = rm_->master();
    auto wm = wm_->master();
    rb_ports.mem = &rm;
    wb_ports.mem = &wm;
    rbuf_ = meta::build_stream_container(this, buffer_spec(cfg_, true),
                                         rb_ports);
    wbuf_ = meta::build_stream_container(this, buffer_spec(cfg_, false),
                                         wb_ports);
  } else {
    rbuf_ = meta::build_stream_container(this, buffer_spec(cfg_, true),
                                         rb_ports);
    wbuf_ = meta::build_stream_container(this, buffer_spec(cfg_, false),
                                         wb_ports);
  }

  meta::IteratorSpec in_spec{.name = "rbuffer_it",
                             .traversal = core::Traversal::Forward,
                             .role = core::IterRole::Input,
                             .used_ops = {},
                             .container = buffer_spec(cfg_, true)};
  meta::IteratorSpec out_spec{.name = "wbuffer_it",
                              .traversal = core::Traversal::Forward,
                              .role = core::IterRole::Output,
                              .used_ops = {},
                              .container = buffer_spec(cfg_, false)};
  it_in_ = meta::build_input_iterator(this, in_spec, rb_w_.consumer());
  it_out_ = meta::build_output_iterator(this, out_spec, wb_w_.producer());
  copy_ = std::make_unique<core::CopyFsm>(
      this, "copy", core::CopyFsm::Config{}, it_in_->client(),
      it_out_->client(), ctl_.control());
}

void Saa2VgaPattern::eval_comb() {
  // The copy algorithm is the paper's endless loop: always running.
  ctl_.start.write(true);
}

bool Saa2VgaPattern::finished() const {
  return src_.done() &&
         vga_.frames().size() == static_cast<std::size_t>(cfg_.frames);
}

}  // namespace hwpat::designs
