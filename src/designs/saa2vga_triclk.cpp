#include "designs/saa2vga_triclk.hpp"

#include "video/frame.hpp"

namespace hwpat::designs {

namespace {

/// Lane-unique name: lane 0 keeps the legacy bare name, so a one-lane
/// design elaborates (names, VCD scopes, counters) exactly like the
/// pre-farm version; further lanes get a numeric suffix.
std::string lane_name(const char* base, int index) {
  std::string n = base;
  if (index > 0) n += std::to_string(index);
  return n;
}

meta::ContainerSpec cdc_buffer_spec(const Saa2VgaTriClkConfig& cfg,
                                    bool read_side, int index) {
  meta::ContainerSpec s;
  s.name = lane_name(read_side ? "rbuffer" : "wbuffer", index);
  s.kind = read_side ? core::ContainerKind::ReadBuffer
                     : core::ContainerKind::WriteBuffer;
  s.device = devices::DeviceKind::AsyncFifoCore;
  s.elem_bits = 8;
  s.depth = cfg.cdc_depth;
  // Same pruned method set as the dual-clock pattern; size could not
  // be bound anyway (no global occupancy across domains).
  s.used_methods = read_side
                       ? std::vector<meta::Method>{meta::Method::Pop,
                                                   meta::Method::Empty}
                       : std::vector<meta::Method>{meta::Method::Push,
                                                   meta::Method::Full};
  return s;
}

}  // namespace

Saa2VgaTriClk::Lane::Lane(Saa2VgaTriClk& top,
                          const Saa2VgaTriClkConfig& cfg, int index)
    : sof(top, lane_name("sof", index)),
      rb_w(top, lane_name("rb", index), 8, 16),
      wb_w(top, lane_name("wb", index), 8, 16),
      ctl(top, lane_name("ctl", index)),
      src(&top, lane_name("decoder", index),
          {.pixel_interval = 1, .frame_blanking = 8,
           .respect_backpressure = true},
          rb_w.producer(), sof,
          camera_frames(cfg.width, cfg.height, cfg.frames,
                        cfg.pattern_seed + static_cast<unsigned>(index))),
      vga(&top, lane_name("vga", index),
          {.width = cfg.width, .height = cfg.height, .channels = 1},
          wb_w.consumer()) {
  src.set_clock_domain(&top.cam_dom_);

  meta::StreamBuildPorts rb_ports{.method = rb_w.impl(),
                                  .wr_domain = &top.cam_dom_,
                                  .rd_domain = &top.mem_dom_};
  meta::StreamBuildPorts wb_ports{.method = wb_w.impl(),
                                  .wr_domain = &top.mem_dom_,
                                  .rd_domain = &top.pix_dom_};
  rbuf = meta::build_stream_container(
      &top, cdc_buffer_spec(cfg, true, index), rb_ports);
  wbuf = meta::build_stream_container(
      &top, cdc_buffer_spec(cfg, false, index), wb_ports);

  meta::IteratorSpec in_spec{.name = lane_name("rbuffer_it", index),
                             .traversal = core::Traversal::Forward,
                             .role = core::IterRole::Input,
                             .used_ops = {},
                             .container = cdc_buffer_spec(cfg, true, index)};
  meta::IteratorSpec out_spec{
      .name = lane_name("wbuffer_it", index),
      .traversal = core::Traversal::Forward,
      .role = core::IterRole::Output,
      .used_ops = {},
      .container = cdc_buffer_spec(cfg, false, index)};
  it_in = meta::build_input_iterator(&top, in_spec, rb_w.consumer());
  it_out = meta::build_output_iterator(&top, out_spec, wb_w.producer());
  copy = std::make_unique<core::CopyFsm>(
      &top, lane_name("copy", index), core::CopyFsm::Config{},
      it_in->client(), it_out->client(), ctl.control());
  // The processing side runs on the memory clock.
  it_in->set_clock_domain(&top.mem_dom_);
  it_out->set_clock_domain(&top.mem_dom_);
  copy->set_clock_domain(&top.mem_dom_);
}

Saa2VgaTriClk::Saa2VgaTriClk(const Saa2VgaTriClkConfig& cfg)
    : VideoDesign(nullptr, "saa2vga_triclk"),
      cfg_(cfg),
      cam_dom_("cam", cfg.cam_period, cfg.cam_phase),
      mem_dom_("mem", cfg.mem_period, cfg.mem_phase),
      pix_dom_("pix", cfg.pix_period, cfg.pix_phase) {
  HWPAT_ASSERT(cfg_.lanes >= 1);
  // Everything defaults to the pixel domain (vga, the comb glue); the
  // decoders, the copy loops and the domain-facing FIFO halves override
  // inside each lane.  All lanes share these three domains: the farm
  // still has exactly three, each lanes× as heavy.
  set_clock_domain(&pix_dom_);
  lanes_.reserve(static_cast<std::size_t>(cfg_.lanes));
  for (int i = 0; i < cfg_.lanes; ++i)
    lanes_.push_back(std::make_unique<Lane>(*this, cfg_, i));
}

Saa2VgaTriClk::~Saa2VgaTriClk() = default;

void Saa2VgaTriClk::eval_comb() {
  // The copy algorithm is the paper's endless loop: always running.
  for (const auto& lane : lanes_) lane->ctl.start.write(true);
}

bool Saa2VgaTriClk::finished() const {
  for (const auto& lane : lanes_) {
    if (!lane->src.done() ||
        lane->vga.frames().size() != static_cast<std::size_t>(cfg_.frames))
      return false;
  }
  return true;
}

}  // namespace hwpat::designs
