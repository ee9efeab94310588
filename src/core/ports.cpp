#include "core/ports.hpp"

namespace hwpat::core {

StreamWires::StreamWires(Module& owner, const std::string& prefix,
                         int elem_bits, int size_bits)
    : push(owner, prefix + "_push"),
      pop(owner, prefix + "_pop"),
      can_push(owner, prefix + "_can_push"),
      can_pop(owner, prefix + "_can_pop"),
      empty(owner, prefix + "_empty"),
      full(owner, prefix + "_full"),
      push_data(owner, prefix + "_push_data", elem_bits),
      front(owner, prefix + "_front", elem_bits),
      size(owner, prefix + "_size", size_bits) {}

StreamWires::StreamWires(Module& owner, const std::string& prefix,
                         int in_bits, int out_bits, int size_bits)
    : push(owner, prefix + "_push"),
      pop(owner, prefix + "_pop"),
      can_push(owner, prefix + "_can_push"),
      can_pop(owner, prefix + "_can_pop"),
      empty(owner, prefix + "_empty"),
      full(owner, prefix + "_full"),
      push_data(owner, prefix + "_push_data", in_bits),
      front(owner, prefix + "_front", out_bits),
      size(owner, prefix + "_size", size_bits) {}

RandomWires::RandomWires(Module& owner, const std::string& prefix,
                         int elem_bits, int addr_bits)
    : read(owner, prefix + "_read"),
      write(owner, prefix + "_write"),
      rvalid(owner, prefix + "_rvalid"),
      ready(owner, prefix + "_ready"),
      addr(owner, prefix + "_addr", addr_bits),
      wdata(owner, prefix + "_wdata", elem_bits),
      rdata(owner, prefix + "_rdata", elem_bits) {}

AssocWires::AssocWires(Module& owner, const std::string& prefix,
                       int key_bits, int val_bits)
    : op_insert(owner, prefix + "_insert"),
      op_lookup(owner, prefix + "_lookup"),
      op_remove(owner, prefix + "_remove"),
      found(owner, prefix + "_found"),
      done(owner, prefix + "_done"),
      ready(owner, prefix + "_ready"),
      full(owner, prefix + "_full"),
      key(owner, prefix + "_key", key_bits),
      wdata(owner, prefix + "_wdata", val_bits),
      rdata(owner, prefix + "_rdata", val_bits) {}

namespace {
/// `prefix_field`, or the bare field for an empty prefix (the wires of
/// a module that owns a single iterator interface).
std::string wire_name(const std::string& prefix, const char* field) {
  return prefix.empty() ? std::string(field) : prefix + "_" + field;
}
}  // namespace

IterWires::IterWires(Module& owner, const std::string& prefix,
                     int elem_bits, int pos_bits)
    : inc(owner, wire_name(prefix, "inc")),
      dec(owner, wire_name(prefix, "dec")),
      read(owner, wire_name(prefix, "read")),
      write(owner, wire_name(prefix, "write")),
      index_op(owner, wire_name(prefix, "index")),
      ready(owner, wire_name(prefix, "ready")),
      rvalid(owner, wire_name(prefix, "rvalid")),
      index_pos(owner, wire_name(prefix, "index_pos"), pos_bits),
      wdata(owner, wire_name(prefix, "wdata"), elem_bits),
      rdata(owner, wire_name(prefix, "rdata"), elem_bits) {}

SramMasterWires::SramMasterWires(Module& owner, const std::string& prefix,
                                 int data_bits, int addr_bits)
    : req(owner, prefix + "_req"),
      we(owner, prefix + "_we"),
      ack(owner, prefix + "_ack"),
      addr(owner, prefix + "_addr", addr_bits),
      wdata(owner, prefix + "_wdata", data_bits),
      rdata(owner, prefix + "_rdata", data_bits) {}

}  // namespace hwpat::core
