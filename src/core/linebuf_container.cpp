#include "core/linebuf_container.hpp"

namespace hwpat::core {

LineBufferContainer::LineBufferContainer(Module* parent, std::string name,
                                         Config cfg, StreamImpl p,
                                         const Bit& sof)
    : Container(parent, std::move(name), ContainerKind::ReadBuffer,
                DeviceKind::LineBuffer3, cfg.pixel_bits),
      cfg_(cfg) {
  if (p.push_data.width() != cfg_.pixel_bits)
    throw SpecError("linebuffer container '" + this->name() +
                    "': push_data width must equal pixel_bits");
  if (p.front.width() != column_bits())
    throw SpecError("linebuffer container '" + this->name() +
                    "': front width must be 3*pixel_bits");
  dev_ = std::make_unique<devices::LineBuffer3>(
      this, "lb0",
      devices::LineBuffer3Config{.pixel_width = cfg_.pixel_bits,
                                 .line_width = cfg_.line_width,
                                 .col_fifo_depth = cfg_.col_fifo_depth,
                                 .strict = cfg_.strict},
      devices::LineBuffer3Ports{.wr_en = p.push,
                                .wr_data = p.push_data,
                                .sof = sof,
                                .wr_ready = p.can_push,
                                .rd_en = p.pop,
                                .col_data = p.front,
                                .col_valid = p.can_pop,
                                .full = &p.full,
                                .empty = &p.empty});
}

}  // namespace hwpat::core
