#include "designs/saa2vga_shared.hpp"

namespace hwpat::designs {

namespace {

meta::ContainerSpec shared_buffer_spec(const Saa2VgaConfig& cfg,
                                       bool read_side) {
  meta::ContainerSpec s;
  s.name = read_side ? "rbuffer" : "wbuffer";
  s.kind = read_side ? core::ContainerKind::ReadBuffer
                     : core::ContainerKind::WriteBuffer;
  s.device = devices::DeviceKind::Sram;
  s.elem_bits = 8;
  s.depth = cfg.buffer_depth;
  s.base_addr = read_side ? 0x0000 : 0x8000;
  s.shared_device = true;
  s.used_methods = read_side
                       ? std::vector<meta::Method>{meta::Method::Pop,
                                                   meta::Method::Empty}
                       : std::vector<meta::Method>{meta::Method::Push,
                                                   meta::Method::Full};
  return s;
}

}  // namespace

Saa2VgaPatternShared::Saa2VgaPatternShared(const Saa2VgaConfig& cfg,
                                           devices::ArbPolicy policy)
    : VideoDesign(nullptr, "saa2vga_shared"),
      cfg_(cfg),
      sof_(*this, "sof"),
      rb_w_(*this, "rb", 8, 16),
      wb_w_(*this, "wb", 8, 16),
      ctl_(*this, "ctl"),
      rm_(*this, "rm", 8, 16),
      wm_(*this, "wm", 8, 16),
      sm_(*this, "sm", 8, 16),
      src_(this, "decoder",
           {.pixel_interval = 1, .frame_blanking = 8,
            .respect_backpressure = true},
           rb_w_.producer(), sof_,
           camera_frames(cfg.width, cfg.height, cfg.frames,
                         cfg.pattern_seed)),
      vga_(this, "vga",
           {.width = cfg.width, .height = cfg.height, .channels = 1},
           wb_w_.consumer()) {
  // The generated arbitration: two container masters, one SRAM.
  arb_ = std::make_unique<devices::SramArbiter>(
      this, "arbiter", policy,
      std::vector<devices::ArbMasterPorts>{
          {&rm_.req, &rm_.we, &rm_.addr, &rm_.wdata, &rm_.ack, &rm_.rdata},
          {&wm_.req, &wm_.we, &wm_.addr, &wm_.wdata, &wm_.ack,
           &wm_.rdata}},
      devices::ArbSlavePorts{&sm_.req, &sm_.we, &sm_.addr, &sm_.wdata,
                             &sm_.ack, &sm_.rdata});
  sram_ = std::make_unique<devices::ExternalSram>(
      this, "sram",
      devices::SramConfig{.data_width = 8, .addr_width = 16},
      sm_.device());

  auto rm = rm_.master();
  auto wm = wm_.master();
  meta::StreamBuildPorts rb_ports{.method = rb_w_.impl(), .mem = &rm};
  meta::StreamBuildPorts wb_ports{.method = wb_w_.impl(), .mem = &wm};
  const auto rb_spec = shared_buffer_spec(cfg_, true);
  const auto wb_spec = shared_buffer_spec(cfg_, false);
  rbuf_ = meta::build_stream_container(this, rb_spec, rb_ports);
  wbuf_ = meta::build_stream_container(this, wb_spec, wb_ports);
  it_in_ = meta::build_input_iterator(
      this,
      {.name = "rbuffer_it", .traversal = core::Traversal::Forward,
       .role = core::IterRole::Input, .used_ops = {},
       .container = rb_spec},
      rb_w_.consumer());
  it_out_ = meta::build_output_iterator(
      this,
      {.name = "wbuffer_it", .traversal = core::Traversal::Forward,
       .role = core::IterRole::Output, .used_ops = {},
       .container = wb_spec},
      wb_w_.producer());
  copy_ = std::make_unique<core::CopyFsm>(
      this, "copy", core::CopyFsm::Config{}, it_in_->client(),
      it_out_->client(), ctl_.control());
}

void Saa2VgaPatternShared::eval_comb() { ctl_.start.write(true); }

bool Saa2VgaPatternShared::finished() const {
  return src_.done() &&
         vga_.frames().size() == static_cast<std::size_t>(cfg_.frames);
}

std::unique_ptr<VideoDesign> make_saa2vga_shared(
    const Saa2VgaConfig& cfg, devices::ArbPolicy policy) {
  return std::make_unique<Saa2VgaPatternShared>(cfg, policy);
}

}  // namespace hwpat::designs
