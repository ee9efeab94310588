// Port bundles of the basic component library.
//
// Every container bundle comes in two *views* over the same
// parent-owned wires: the client view (what an algorithm or producer
// drives) and the implementation view (what the container module
// drives).  A `...Wires` helper owns the signals inside a parent module
// and hands out both views, so wiring a pattern instance is a couple of
// lines.  An iterator has only a client view (IterClient), which the
// iterator itself hands out (core::Iterator::client()).
//
// == Stream container method protocol (stack/queue/rbuffer/wbuffer) ==
//  * `can_push` high: the producer may assert `push` with `push_data`
//    for one cycle; the element is accepted at that rising edge.
//  * `can_pop` high: `front` combinationally presents the next element
//    (show-ahead); the consumer may assert `pop` for one cycle to
//    consume it at the rising edge.
//  * Single-cycle bindings (FIFO/LIFO cores) hold can_push/can_pop high
//    whenever not full/empty; multi-cycle bindings (external SRAM) drop
//    them while the memory transaction is in flight.
//  * Who drives can_push and can_pop, per binding:
//      - FIFO or LIFO core (CoreStreamContainer): the FifoCore or
//        LifoCore, as the inverses of its full/empty;
//      - async FIFO (CdcStreamContainer): the AsyncFifo's write side
//        drives can_push and its read side can_pop, each in its own
//        clock domain;
//      - line buffer (LineBufferContainer): LineBuffer3, whose wr_ready
//        and col_valid are can_push and can_pop (it drives full and
//        empty as their inverses);
//      - external SRAM (SramStreamContainer): the container itself,
//        from its memory FSM.
//    So the first three containers are wiring only, as their
//    synthesized wrappers are, and are never evaluated after reset.
//
// == Iterator method protocol (Table 2 ops) ==
//  * `ready` high: the algorithm may assert a combination of operation
//    strobes for one cycle (read, read+inc, write+inc, index, ...).
//  * For Input-capable iterators, `rvalid` high means `rdata` presents
//    the current element (sequential iterators are show-ahead: rvalid
//    tracks ready; random iterators pulse rvalid when a read completes).
//  * A strobe is raised only while `ready` is high; asserting one
//    without `ready`, or one outside the iterator's admissible set, is
//    a model bug and raises ProtocolError.
//  * An algorithm writes only the strobes it can raise (its advance
//    direction, `read` on an input, `write` and `wdata` on an output);
//    the rest are never driven and keep their reset value 0, like a
//    constant '0' that synthesis folds away.
//  * A stream iterator's client view is its container's own wires:
//    `ready`/`rvalid` are can_pop and `rdata` is front (input), or
//    `ready` is can_push, `write` is push and `wdata` is push_data
//    (output); the advance strobe of an input iterator is pop.  Only
//    the strobes a stream container has no wire for are separate
//    tie-off wires, owned by the iterator (see core/iterator.hpp).
#pragma once

#include <string>

#include "core/ops.hpp"
#include "devices/sram.hpp"
#include "rtl/module.hpp"

namespace hwpat::core {

using rtl::Bit;
using rtl::Bus;
using rtl::Module;

// ---------------------------------------------------------------------
// Stream containers
// ---------------------------------------------------------------------

/// Producer-side view of a stream container.
struct StreamProducer {
  Bit& push;
  Bus& push_data;
  const Bit& can_push;
  const Bit& full;
};

/// Consumer-side view of a stream container.
struct StreamConsumer {
  Bit& pop;
  const Bus& front;
  const Bit& can_pop;
  const Bit& empty;
  const Bus& size;
};

/// Implementation-side view (what the container module drives/reads).
struct StreamImpl {
  const Bit& push;
  const Bus& push_data;
  const Bit& pop;
  Bus& front;
  Bit& can_push;
  Bit& can_pop;
  Bit& empty;
  Bit& full;
  Bus& size;
};

/// Owns the wires of one stream-container method interface.
struct StreamWires {
  Bit push, pop, can_push, can_pop, empty, full;
  Bus push_data, front, size;

  StreamWires(Module& owner, const std::string& prefix, int elem_bits,
              int size_bits);
  /// Variant with different push/pop element widths (e.g. a read buffer
  /// over a 3-line buffer: pixels in, packed columns out).
  StreamWires(Module& owner, const std::string& prefix, int in_bits,
              int out_bits, int size_bits);

  [[nodiscard]] StreamProducer producer() {
    return {push, push_data, can_push, full};
  }
  [[nodiscard]] StreamConsumer consumer() {
    return {pop, front, can_pop, empty, size};
  }
  [[nodiscard]] StreamImpl impl() {
    return {push, push_data, pop, front, can_push, can_pop, empty, full,
            size};
  }
};

// ---------------------------------------------------------------------
// Random-access containers (vector)
// ---------------------------------------------------------------------

/// Client view of a random-access container method interface.
struct RandomClient {
  Bit& read;
  Bit& write;
  Bus& addr;
  Bus& wdata;
  const Bus& rdata;
  const Bit& rvalid;
  const Bit& ready;
};

/// Implementation view.
struct RandomImpl {
  const Bit& read;
  const Bit& write;
  const Bus& addr;
  const Bus& wdata;
  Bus& rdata;
  Bit& rvalid;
  Bit& ready;
};

struct RandomWires {
  Bit read, write, rvalid, ready;
  Bus addr, wdata, rdata;

  RandomWires(Module& owner, const std::string& prefix, int elem_bits,
              int addr_bits);

  [[nodiscard]] RandomClient client() {
    return {read, write, addr, wdata, rdata, rvalid, ready};
  }
  [[nodiscard]] RandomImpl impl() {
    return {read, write, addr, wdata, rdata, rvalid, ready};
  }
};

// ---------------------------------------------------------------------
// Associative array
// ---------------------------------------------------------------------

/// Client view of the associative-array method interface.
struct AssocClient {
  Bit& op_insert;
  Bit& op_lookup;
  Bit& op_remove;
  Bus& key;
  Bus& wdata;
  const Bus& rdata;
  const Bit& found;
  const Bit& done;
  const Bit& ready;
  const Bit& full;
};

struct AssocImpl {
  const Bit& op_insert;
  const Bit& op_lookup;
  const Bit& op_remove;
  const Bus& key;
  const Bus& wdata;
  Bus& rdata;
  Bit& found;
  Bit& done;
  Bit& ready;
  Bit& full;
};

struct AssocWires {
  Bit op_insert, op_lookup, op_remove, found, done, ready, full;
  Bus key, wdata, rdata;

  AssocWires(Module& owner, const std::string& prefix, int key_bits,
             int val_bits);

  [[nodiscard]] AssocClient client() {
    return {op_insert, op_lookup, op_remove, key,  wdata,
            rdata,     found,     done,      ready, full};
  }
  [[nodiscard]] AssocImpl impl() {
    return {op_insert, op_lookup, op_remove, key,  wdata,
            rdata,     found,     done,      ready, full};
  }
};

// ---------------------------------------------------------------------
// Iterators (Table 2)
// ---------------------------------------------------------------------

/// Algorithm-side view of an iterator.
struct IterClient {
  Bit& inc;
  Bit& dec;
  Bit& read;
  Bit& write;
  Bit& index_op;
  Bus& index_pos;
  Bus& wdata;
  const Bus& rdata;
  const Bit& ready;
  const Bit& rvalid;
};

struct IterWires {
  Bit inc, dec, read, write, index_op, ready, rvalid;
  Bus index_pos, wdata, rdata;

  /// An empty `prefix` names the wires by their field alone (for a
  /// module that owns one iterator interface).
  IterWires(Module& owner, const std::string& prefix, int elem_bits,
            int pos_bits);

  [[nodiscard]] IterClient client() {
    return {inc,  dec,   read,  write, index_op,
            index_pos, wdata, rdata, ready, rvalid};
  }
};

// ---------------------------------------------------------------------
// SRAM master bundle (the "implementation interface" of Fig. 5)
// ---------------------------------------------------------------------

/// Master-side wires toward an external SRAM (or an arbiter port).
struct SramMaster {
  Bit& req;
  Bit& we;
  Bus& addr;
  Bus& wdata;
  const Bit& ack;
  const Bus& rdata;
};

struct SramMasterWires {
  Bit req, we, ack;
  Bus addr, wdata, rdata;

  SramMasterWires(Module& owner, const std::string& prefix, int data_bits,
                  int addr_bits);

  [[nodiscard]] SramMaster master() {
    return {req, we, addr, wdata, ack, rdata};
  }
  /// View for wiring the device side (SramPorts-compatible refs).
  [[nodiscard]] devices::SramPorts device() {
    return {req, we, addr, wdata, ack, rdata};
  }
};

}  // namespace hwpat::core
