// RTL factory: the second backend of the metaprogramming layer.
//
// The same metamodels that drive VHDL generation (codegen.hpp) also
// instantiate live rtl::Module trees for cycle-accurate simulation, so
// a design described by specs can be both simulated here and emitted
// as synthesisable VHDL — one model, two targets.
//
// Width adaptation is applied automatically: when a spec's element is
// wider than its device bus, the container is built lane-wide (k lanes
// per element) and the returned iterators are the width-adapting
// variants of §3.3.
#pragma once

#include <memory>

#include "core/iterator.hpp"
#include "core/linebuf_container.hpp"
#include "core/stream_core.hpp"
#include "core/stream_sram.hpp"
#include "meta/spec.hpp"
#include "meta/width_iter.hpp"

namespace hwpat::meta {

/// External connections a stream container build may need.
struct StreamBuildPorts {
  core::StreamImpl method;             ///< the container method wires
  core::SramMaster* mem = nullptr;     ///< required for DeviceKind::Sram
  const rtl::Bit* sof = nullptr;       ///< required for LineBuffer3
  /// Clock domains of the producer/consumer halves, for the dual-clock
  /// AsyncFifoCore binding (nullptr = inherit the parent's domain).
  const rtl::ClockDomain* wr_domain = nullptr;
  const rtl::ClockDomain* rd_domain = nullptr;
};

/// Builds a stream container (stack/queue/rbuffer/wbuffer) per spec.
/// With width adaptation (elem > bus), `method` wires must be bus-wide
/// and depth is scaled to lanes internally.
[[nodiscard]] std::unique_ptr<core::Container> build_stream_container(
    rtl::Module* parent, const ContainerSpec& spec, StreamBuildPorts ports);

/// Builds the concrete input iterator for `spec` over the consumer side
/// of its container; an algorithm reaches it through client(), whose
/// `rdata` is elem_bits wide.  Without width adaptation the iterator
/// dissolves (client() is the container's wires); with it, the factory
/// inserts the width-adapting variant, which drives wires of its own.
[[nodiscard]] std::unique_ptr<core::Iterator> build_input_iterator(
    rtl::Module* parent, const IteratorSpec& spec, core::StreamConsumer c);

/// Builds the concrete output iterator for `spec` over the producer
/// side of its container (see build_input_iterator()).
[[nodiscard]] std::unique_ptr<core::Iterator> build_output_iterator(
    rtl::Module* parent, const IteratorSpec& spec, core::StreamProducer pr);

}  // namespace hwpat::meta
