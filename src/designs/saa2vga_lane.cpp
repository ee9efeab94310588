#include "designs/saa2vga_lane.hpp"

#include "meta/factory.hpp"

namespace hwpat::designs {

namespace {

/// Lane-unique name: lane 0 keeps the bare name, further lanes get a
/// numeric suffix.
std::string lane_name(const char* base, int index) {
  std::string n = base;
  if (index > 0) n += std::to_string(index);
  return n;
}

}  // namespace

meta::ContainerSpec saa2vga_buffer_spec(const Saa2VgaBinding& b,
                                        bool read_side, int lane) {
  meta::ContainerSpec s;
  s.name = lane_name(read_side ? "rbuffer" : "wbuffer", lane);
  s.kind = read_side ? core::ContainerKind::ReadBuffer
                     : core::ContainerKind::WriteBuffer;
  s.device = b.device;
  s.elem_bits = 8;
  s.depth = b.depth;
  s.base_addr = read_side ? 0x0000 : 0x8000;
  s.shared_device = b.shared_device;
  s.used_methods = read_side
                       ? std::vector<meta::Method>{meta::Method::Pop,
                                                   meta::Method::Empty}
                       : std::vector<meta::Method>{meta::Method::Push,
                                                   meta::Method::Full};
  return s;
}

Saa2VgaLane::Saa2VgaLane(rtl::Module& top, int width, int height,
                         int frames, unsigned pattern_seed, int index)
    : top_(top),
      index_(index),
      frames_(frames),
      sof_(top, lane_name("sof", index)),
      rb_w_(top, lane_name("rb", index), 8, 16),
      wb_w_(top, lane_name("wb", index), 8, 16),
      ctl_(top, lane_name("ctl", index)),
      src_(&top, lane_name("decoder", index),
           {.pixel_interval = 1, .frame_blanking = 8,
            .respect_backpressure = true},
           rb_w_.producer(), sof_,
           camera_frames(width, height, frames,
                         pattern_seed + static_cast<unsigned>(index))),
      vga_(&top, lane_name("vga", index),
           {.width = width, .height = height, .channels = 1},
           wb_w_.consumer()) {}

void Saa2VgaLane::build(const Saa2VgaBinding& b, core::SramMaster* rmem,
                        core::SramMaster* wmem) {
  const meta::ContainerSpec rb_spec = saa2vga_buffer_spec(b, true, index_);
  const meta::ContainerSpec wb_spec = saa2vga_buffer_spec(b, false, index_);
  rbuf_ = meta::build_stream_container(
      &top_, rb_spec,
      {.method = rb_w_.impl(), .mem = rmem, .wr_domain = b.cam,
       .rd_domain = b.mem});
  wbuf_ = meta::build_stream_container(
      &top_, wb_spec,
      {.method = wb_w_.impl(), .mem = wmem, .wr_domain = b.mem});
  it_in_ = meta::build_input_iterator(
      &top_,
      {.name = lane_name("rbuffer_it", index_),
       .traversal = core::Traversal::Forward,
       .role = core::IterRole::Input, .used_ops = {},
       .container = rb_spec},
      rb_w_.consumer());
  it_out_ = meta::build_output_iterator(
      &top_,
      {.name = lane_name("wbuffer_it", index_),
       .traversal = core::Traversal::Forward,
       .role = core::IterRole::Output, .used_ops = {},
       .container = wb_spec},
      wb_w_.producer());
  copy_ = std::make_unique<core::CopyFsm>(
      &top_, lane_name("copy", index_), core::CopyFsm::Config{},
      it_in_->client(), it_out_->client(), ctl_.control());
  src_.set_clock_domain(b.cam);
  it_in_->set_clock_domain(b.mem);
  it_out_->set_clock_domain(b.mem);
  copy_->set_clock_domain(b.mem);
}

}  // namespace hwpat::designs
