#include "meta/factory.hpp"

#include "core/stream_cdc.hpp"

namespace hwpat::meta {

std::unique_ptr<core::Container> build_stream_container(
    rtl::Module* parent, const ContainerSpec& spec,
    StreamBuildPorts ports) {
  validate(spec);
  const int bus = spec.effective_bus_bits();
  const int lanes = spec.accesses_per_element();
  const int lane_depth = spec.depth * lanes;

  switch (spec.device) {
    case DeviceKind::FifoCore:
    case DeviceKind::LifoCore:
      return std::make_unique<core::CoreStreamContainer>(
          parent, spec.name,
          core::CoreStreamContainer::Config{.kind = spec.kind,
                                            .elem_bits = bus,
                                            .depth = lane_depth,
                                            .strict = true},
          ports.method);
    case DeviceKind::Sram: {
      if (ports.mem == nullptr)
        throw SpecError("build_stream_container('" + spec.name +
                        "'): SRAM binding requires a memory master port");
      // Dead-operation elimination: the occupancy datapath exists only
      // when the design binds the `size` method.
      bool with_size = false;
      for (Method m : spec.effective_methods())
        if (m == Method::Size) with_size = true;
      return std::make_unique<core::SramStreamContainer>(
          parent, spec.name,
          core::SramStreamContainer::Config{.kind = spec.kind,
                                            .elem_bits = bus,
                                            .capacity = lane_depth,
                                            .base_addr = spec.base_addr,
                                            .strict = true,
                                            .with_size = with_size},
          ports.method, *ports.mem);
    }
    case DeviceKind::LineBuffer3: {
      if (ports.sof == nullptr)
        throw SpecError("build_stream_container('" + spec.name +
                        "'): line-buffer binding requires a start-of-"
                        "frame strobe");
      if (lanes != 1)
        throw SpecError("build_stream_container('" + spec.name +
                        "'): the line buffer does not support width "
                        "adaptation");
      return std::make_unique<core::LineBufferContainer>(
          parent, spec.name,
          core::LineBufferContainer::Config{.pixel_bits = spec.elem_bits,
                                            .line_width = spec.depth,
                                            .col_fifo_depth = 4,
                                            .strict = true},
          ports.method, *ports.sof);
    }
    case DeviceKind::AsyncFifoCore:
      // validate(spec) already guaranteed lanes == 1 (no width
      // adaptation across a clock-domain crossing) and a power-of-two
      // depth; nullptr domains are allowed and degenerate into a
      // synchronous FIFO with synchronizer flag latency.
      return std::make_unique<core::CdcStreamContainer>(
          parent, spec.name,
          core::CdcStreamContainer::Config{.kind = spec.kind,
                                           .elem_bits = bus,
                                           .depth = spec.depth,
                                           .strict = true,
                                           .wr_domain = ports.wr_domain,
                                           .rd_domain = ports.rd_domain},
          ports.method);
    case DeviceKind::BlockRam:
      throw SpecError("build_stream_container('" + spec.name +
                      "'): stream-over-BRAM RTL binding is provided via "
                      "the FIFO core (which is BRAM-based); bind the "
                      "spec to DeviceKind::FifoCore");
  }
  throw InternalError("unknown DeviceKind");
}

std::unique_ptr<core::Iterator> build_input_iterator(
    rtl::Module* parent, const IteratorSpec& spec, core::StreamConsumer c) {
  validate(spec);
  const core::Iterator::Spec ispec{.traversal = spec.traversal,
                                   .role = spec.role,
                                   .used_ops = spec.used_ops};
  if (spec.container.accesses_per_element() > 1) {
    return std::make_unique<WidthAdaptInputIterator>(
        parent, spec.name, ispec, spec.container.kind,
        WidthAdaptInputIterator::Config{
            .elem_bits = spec.container.elem_bits,
            .bus_bits = spec.container.effective_bus_bits()},
        c);
  }
  return std::make_unique<core::StreamInputIterator>(
      parent, spec.name, ispec, spec.container.kind, c);
}

std::unique_ptr<core::Iterator> build_output_iterator(
    rtl::Module* parent, const IteratorSpec& spec, core::StreamProducer pr) {
  validate(spec);
  const core::Iterator::Spec ispec{.traversal = spec.traversal,
                                   .role = spec.role,
                                   .used_ops = spec.used_ops};
  if (spec.container.accesses_per_element() > 1) {
    return std::make_unique<WidthAdaptOutputIterator>(
        parent, spec.name, ispec, spec.container.kind,
        WidthAdaptOutputIterator::Config{
            .elem_bits = spec.container.elem_bits,
            .bus_bits = spec.container.effective_bus_bits()},
        pr);
  }
  return std::make_unique<core::StreamOutputIterator>(
      parent, spec.name, ispec, spec.container.kind, pr);
}

}  // namespace hwpat::meta
