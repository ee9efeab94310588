#include "meta/spec.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hwpat::meta {

std::string to_string(Method m) {
  switch (m) {
    case Method::Push: return "push";
    case Method::Pop: return "pop";
    case Method::Empty: return "empty";
    case Method::Full: return "full";
    case Method::Size: return "size";
    case Method::Read: return "read";
    case Method::Write: return "write";
    case Method::Insert: return "insert";
    case Method::Lookup: return "lookup";
    case Method::Remove: return "remove";
  }
  throw InternalError("unknown Method");
}

std::vector<Method> methods_for(ContainerKind k) {
  switch (k) {
    case ContainerKind::Stack:
    case ContainerKind::Queue:
      return {Method::Push, Method::Pop, Method::Empty, Method::Full,
              Method::Size};
    case ContainerKind::ReadBuffer:
      // Fig. 4's m_empty / m_size / m_pop: the read buffer is fed by
      // the platform (video decoder), not by the model, so no push.
      return {Method::Pop, Method::Empty, Method::Size};
    case ContainerKind::WriteBuffer:
      return {Method::Push, Method::Full, Method::Size};
    case ContainerKind::Vector:
      return {Method::Read, Method::Write, Method::Size};
    case ContainerKind::AssocArray:
      return {Method::Insert, Method::Lookup, Method::Remove,
              Method::Full, Method::Size};
  }
  throw InternalError("unknown ContainerKind");
}

bool method_available(ContainerKind k, Method m) {
  const auto v = methods_for(k);
  return std::find(v.begin(), v.end(), m) != v.end();
}

std::vector<Method> ContainerSpec::effective_methods() const {
  std::vector<Method> v =
      used_methods.empty() ? methods_for(kind) : used_methods;
  // The dual-clock FIFO has no global occupancy, so a defaulted method
  // set silently omits size; an *explicit* size request is a spec error
  // (validate()).
  if (device == DeviceKind::AsyncFifoCore)
    v.erase(std::remove(v.begin(), v.end(), Method::Size), v.end());
  return v;
}

std::string ContainerSpec::entity_name() const {
  return name + "_" + devices::to_string(device);
}

void validate(const ContainerSpec& spec) {
  if (spec.name.empty())
    throw SpecError("container spec: empty instance name");
  if (!core::device_legal(spec.kind, spec.device))
    throw SpecError("container spec '" + spec.name + "': kind " +
                    core::to_string(spec.kind) +
                    " cannot be mapped onto device " +
                    devices::to_string(spec.device) + " (§3.4)");
  if (spec.elem_bits < 1 || spec.elem_bits > kMaxBusBits)
    throw SpecError("container spec '" + spec.name +
                    "': element width out of range");
  if (spec.depth < 1)
    throw SpecError("container spec '" + spec.name + "': depth < 1");
  const int bus = spec.effective_bus_bits();
  if (bus < 1 || bus > kMaxBusBits)
    throw SpecError("container spec '" + spec.name +
                    "': bus width out of range");
  if (bus > spec.elem_bits)
    throw SpecError("container spec '" + spec.name +
                    "': device bus wider than the element (lower the "
                    "element width or pack elements)");
  if (bus != spec.elem_bits && spec.device == DeviceKind::LineBuffer3)
    throw SpecError("container spec '" + spec.name +
                    "': the line buffer delivers whole columns and does "
                    "not support width adaptation");
  for (Method m : spec.used_methods) {
    if (!method_available(spec.kind, m))
      throw SpecError("container spec '" + spec.name + "': method '" +
                      to_string(m) + "' does not exist on a " +
                      core::to_string(spec.kind));
  }
  if (spec.shared_device && spec.device != DeviceKind::Sram)
    throw SpecError("container spec '" + spec.name +
                    "': only external SRAM can be shared/arbitrated");
  if (spec.device == DeviceKind::AsyncFifoCore) {
    if (spec.depth < 2 || (spec.depth & (spec.depth - 1)) != 0)
      throw SpecError("container spec '" + spec.name +
                      "': the dual-clock FIFO's gray-coded pointers need "
                      "a power-of-two depth >= 2, got " +
                      std::to_string(spec.depth));
    if (bus != spec.elem_bits)
      throw SpecError("container spec '" + spec.name +
                      "': the dual-clock FIFO crosses whole elements and "
                      "does not support width adaptation");
  }
  // Devices without an occupancy count cannot bind an explicit `size`.
  const char* no_size =
      spec.device == DeviceKind::AsyncFifoCore
          ? "the dual-clock FIFO has no global occupancy (each clock "
            "domain only sees its synchronized view)"
      : spec.device == DeviceKind::LineBuffer3
          ? "the line buffer drives no occupancy count"
          : nullptr;
  if (no_size != nullptr &&
      std::find(spec.used_methods.begin(), spec.used_methods.end(),
                Method::Size) != spec.used_methods.end())
    throw SpecError("container spec '" + spec.name +
                    "': used_methods lists size, but " + no_size +
                    " — the size method cannot be bound");
}

OpSet IteratorSpec::effective_ops() const {
  return used_ops.empty() ? core::ops_for(traversal, role) : used_ops;
}

std::string IteratorSpec::entity_name() const {
  return container.entity_name() + "_" + name;
}

void validate(const IteratorSpec& spec) {
  validate(spec.container);
  if (!core::iterator_admissible(spec.container.kind, spec.traversal,
                                 spec.role))
    throw SpecError("iterator spec '" + spec.name + "': a " +
                    core::to_string(spec.traversal) + " " +
                    core::to_string(spec.role) +
                    " iterator is not admissible over a " +
                    core::to_string(spec.container.kind) + " (Table 1)");
  const OpSet admissible = core::ops_for(spec.traversal, spec.role);
  if (!spec.used_ops.empty() && !spec.used_ops.subset_of(admissible))
    throw SpecError("iterator spec '" + spec.name + "': used ops " +
                    spec.used_ops.str() + " exceed the admissible set " +
                    admissible.str() + " (Table 2)");
}

}  // namespace hwpat::meta
