#include "core/stream_core.hpp"

namespace hwpat::core {

DeviceKind CoreStreamContainer::device_for(ContainerKind kind) {
  return kind == ContainerKind::Stack ? DeviceKind::LifoCore
                                      : DeviceKind::FifoCore;
}

CoreStreamContainer::CoreStreamContainer(Module* parent, std::string name,
                                         Config cfg, StreamImpl p)
    : Container(parent, std::move(name), cfg.kind, device_for(cfg.kind),
                cfg.elem_bits),
      cfg_(cfg) {
  // The method wires are handed straight through to the storage core:
  // push/pop become wr_en/rd_en, front is rd_data — pure renaming.
  if (cfg_.kind == ContainerKind::Stack) {
    lifo_ = std::make_unique<devices::LifoCore>(
        this, "lifo0",
        devices::LifoConfig{.width = cfg_.elem_bits,
                            .depth = cfg_.depth,
                            .strict = cfg_.strict},
        devices::LifoPorts{.wr_en = p.push,
                           .wr_data = p.push_data,
                           .rd_en = p.pop,
                           .rd_data = p.front,
                           .empty = p.empty,
                           .full = p.full,
                           .level = p.size,
                           .can_push = &p.can_push,
                           .can_pop = &p.can_pop});
  } else {
    fifo_ = std::make_unique<devices::FifoCore>(
        this, "fifo0",
        devices::FifoConfig{.width = cfg_.elem_bits,
                            .depth = cfg_.depth,
                            .strict = cfg_.strict},
        devices::FifoPorts{.wr_en = p.push,
                           .wr_data = p.push_data,
                           .rd_en = p.pop,
                           .rd_data = p.front,
                           .empty = p.empty,
                           .full = p.full,
                           .level = p.size,
                           .can_push = &p.can_push,
                           .can_pop = &p.can_pop});
  }
}

}  // namespace hwpat::core
