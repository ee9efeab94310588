// CdcStreamContainer: queue / read buffer / write buffer over the
// dual-clock asynchronous FIFO core.
//
// The clock-domain-crossing counterpart of CoreStreamContainer: the
// producer half of the method interface (push/can_push/full) lives in
// the write-clock domain and the consumer half (pop/front/can_pop/
// empty) in the read-clock domain; the AsyncFifo child carries the data
// across.  The container only wires the method interface to the core:
// its write side drives can_push with full and its read side drives
// can_pop with empty, each in its own domain, so the container itself
// evaluates nothing after reset and needs no domain of its own.
//
// There is no `size` method: a global occupancy does not exist across
// clock domains (each side only has its conservative synchronized
// view), and the spec layer rejects binding it (meta/spec.cpp).  The
// `size` wire is left undriven and reads 0, its initial value.
#pragma once

#include <memory>

#include "core/container.hpp"
#include "devices/async_fifo.hpp"

namespace hwpat::core {

class CdcStreamContainer : public Container {
 public:
  struct Config {
    ContainerKind kind = ContainerKind::Queue;
    int elem_bits = 8;
    int depth = 16;  ///< power of two, >= 2 (gray-coded pointers)
    bool strict = true;
    /// Producer-side clock domain (nullptr = inherit the parent's).
    const rtl::ClockDomain* wr_domain = nullptr;
    /// Consumer-side clock domain (nullptr = inherit the parent's).
    const rtl::ClockDomain* rd_domain = nullptr;
  };

  CdcStreamContainer(Module* parent, std::string name, Config cfg,
                     StreamImpl p);

  // Wiring only: no process at all — pruned from the activation list.
  void declare_state() override { declare_comb_only(); }
  // Dissolves at synthesis.  The storage core is a child module and
  // reports itself.
  void report(rtl::PrimitiveTally&) const override {}

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const devices::AsyncFifo& fifo() const { return *fifo_; }

 private:
  Config cfg_;
  std::unique_ptr<devices::AsyncFifo> fifo_;
};

}  // namespace hwpat::core
