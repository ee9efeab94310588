// CoreStreamContainer: queue / read buffer / write buffer over an
// on-chip FIFO core, or stack over an on-chip LIFO core.
//
// This is the binding Figure 4 of the paper shows for `rbuffer_fifo`:
// "the VHDL architecture is simply a wrapper of the FIFO core and
// hardly includes any logic".  The simulated container is that wrapper
// and nothing more: it only wires the method interface to its core,
// push/pop to wr_en/rd_en, front to rd_data and size to level, and the
// core drives can_push/can_pop itself (the inverses of its full/empty,
// written in the same evaluation).  So the container evaluates nothing
// after reset, has no clock, and reports no resources of its own — the
// FIFO/LIFO core child reports the storage.
#pragma once

#include <memory>

#include "core/container.hpp"
#include "devices/fifo.hpp"
#include "devices/lifo.hpp"

namespace hwpat::core {

class CoreStreamContainer : public Container {
 public:
  struct Config {
    ContainerKind kind = ContainerKind::Queue;
    int elem_bits = 8;
    int depth = 512;
    bool strict = true;
  };

  CoreStreamContainer(Module* parent, std::string name, Config cfg,
                      StreamImpl p);

  // Wiring only: no process at all — pruned from the activation list.
  void declare_state() override { declare_comb_only(); }
  // Dissolves at synthesis.  The storage core is a child module and
  // reports itself.
  void report(rtl::PrimitiveTally&) const override {}

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  static DeviceKind device_for(ContainerKind kind);

  Config cfg_;
  std::unique_ptr<devices::FifoCore> fifo_;
  std::unique_ptr<devices::LifoCore> lifo_;
};

}  // namespace hwpat::core
