#include "core/stream_cdc.hpp"

namespace hwpat::core {

CdcStreamContainer::CdcStreamContainer(Module* parent, std::string name,
                                       Config cfg, StreamImpl p)
    : Container(parent, std::move(name), cfg.kind,
                DeviceKind::AsyncFifoCore, cfg.elem_bits),
      cfg_(cfg) {
  HWPAT_ASSERT(cfg_.kind == ContainerKind::Queue ||
               cfg_.kind == ContainerKind::ReadBuffer ||
               cfg_.kind == ContainerKind::WriteBuffer);
  // The method wires are handed straight through to the CDC core:
  // push/pop become wr_en/rd_en, front is rd_data — pure renaming.
  fifo_ = std::make_unique<devices::AsyncFifo>(
      this, "afifo0",
      devices::AsyncFifoConfig{.width = cfg_.elem_bits,
                               .depth = cfg_.depth,
                               .strict = cfg_.strict},
      devices::AsyncFifoPorts{.wr_en = p.push,
                              .wr_data = p.push_data,
                              .full = p.full,
                              .rd_en = p.pop,
                              .rd_data = p.front,
                              .empty = p.empty,
                              .can_push = &p.can_push,
                              .can_pop = &p.can_pop},
      cfg_.wr_domain, cfg_.rd_domain);
}

}  // namespace hwpat::core
