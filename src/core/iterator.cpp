#include "core/iterator.hpp"

namespace hwpat::core {

Iterator::Iterator(Module* parent, std::string name, Spec spec,
                   ContainerKind bound_kind)
    : Module(parent, std::move(name)), spec_(spec), bound_kind_(bound_kind) {
  if (!iterator_admissible(bound_kind, spec_.traversal, spec_.role))
    throw SpecError("iterator '" + this->name() + "': a " +
                    to_string(spec_.traversal) + " " + to_string(spec_.role) +
                    " iterator is not admissible over a " +
                    to_string(bound_kind) + " (Table 1)");
  const OpSet admissible = ops_for(spec_.traversal, spec_.role);
  if (spec_.used_ops.empty()) {
    spec_.used_ops = admissible;
  } else if (!spec_.used_ops.subset_of(admissible)) {
    throw SpecError("iterator '" + this->name() + "': used ops " +
                    spec_.used_ops.str() + " exceed the admissible set " +
                    admissible.str() + " (Table 2)");
  }
}

void Iterator::guard_strobes(const IterClient& c) const {
  struct Probe {
    Op op;
    const Bit& strobe;
  };
  const Probe probes[] = {
      {Op::Inc, c.inc},     {Op::Dec, c.dec},
      {Op::Read, c.read},   {Op::Write, c.write},
      {Op::Index, c.index_op},
  };
  // Only a strobe outside ops() can be a violation, so only such a
  // strobe is read.
  for (const auto& pr : probes) {
    if (!ops().contains(pr.op) && pr.strobe.as_word_fast() != 0)
      throw ProtocolError("iterator '" + full_name() + "': operation '" +
                          to_string(pr.op) +
                          "' strobed but not implemented (ops " +
                          ops().str() + ")");
  }
}

// ---------------------------------------------------------------------
// StreamInputIterator
// ---------------------------------------------------------------------

StreamInputIterator::StreamInputIterator(Module* parent, std::string name,
                                         Spec spec, ContainerKind bound_kind,
                                         StreamConsumer c)
    : Iterator(parent, std::move(name), spec, bound_kind),
      other_adv_(*this,
                 spec.traversal == Traversal::Backward ? "inc" : "dec"),
      read_(*this, "read"),
      write_(*this, "write"),
      index_op_(*this, "index"),
      index_pos_(*this, "index_pos", 1),
      wdata_(*this, "wdata", c.front.width()),
      client_{.inc = spec.traversal == Traversal::Backward ? other_adv_
                                                            : c.pop,
              .dec = spec.traversal == Traversal::Backward ? c.pop
                                                            : other_adv_,
              .read = read_,
              .write = write_,
              .index_op = index_op_,
              .index_pos = index_pos_,
              .wdata = wdata_,
              .rdata = c.front,
              .ready = c.can_pop,
              .rvalid = c.can_pop} {
  if (this->spec().role != IterRole::Input)
    throw SpecError("iterator '" + this->name() +
                    "': StreamInputIterator requires the Input role");
  enable_clock_check();
}

void StreamInputIterator::on_clock_check() const {
  guard_strobes(client_);
  const Bit& advance = spec().traversal == Traversal::Backward
                           ? client_.dec
                           : client_.inc;
  if (advance.as_word_fast() != 0 && client_.ready.as_word_fast() == 0)
    throw ProtocolError("iterator '" + full_name() +
                        "': advance while not ready (container empty or "
                        "busy)");
}

// ---------------------------------------------------------------------
// StreamOutputIterator
// ---------------------------------------------------------------------

StreamOutputIterator::StreamOutputIterator(Module* parent, std::string name,
                                           Spec spec,
                                           ContainerKind bound_kind,
                                           StreamProducer pr)
    : Iterator(parent, std::move(name), spec, bound_kind),
      inc_(*this, "inc"),
      dec_(*this, "dec"),
      read_(*this, "read"),
      index_op_(*this, "index"),
      rvalid_(*this, "rvalid"),
      index_pos_(*this, "index_pos", 1),
      rdata_(*this, "rdata", pr.push_data.width()),
      client_{.inc = inc_,
              .dec = dec_,
              .read = read_,
              .write = pr.push,
              .index_op = index_op_,
              .index_pos = index_pos_,
              .wdata = pr.push_data,
              .rdata = rdata_,
              .ready = pr.can_push,
              .rvalid = rvalid_} {
  if (this->spec().role != IterRole::Output)
    throw SpecError("iterator '" + this->name() +
                    "': StreamOutputIterator requires the Output role");
  enable_clock_check();
}

void StreamOutputIterator::on_clock_check() const {
  guard_strobes(client_);
  if (client_.write.as_word_fast() != 0 &&
      client_.ready.as_word_fast() == 0)
    throw ProtocolError("iterator '" + full_name() +
                        "': write while not ready (container full or busy)");
}

// ---------------------------------------------------------------------
// VectorIterator
// ---------------------------------------------------------------------

VectorIterator::VectorIterator(Module* parent, std::string name, Spec spec,
                               RandomClient rc, IterWires& w, int length,
                               Word start_pos)
    : Iterator(parent, std::move(name), spec, ContainerKind::Vector),
      w_(w),
      length_(length),
      rc_(rc),
      start_pos_(start_pos),
      pos_(start_pos) {
  HWPAT_ASSERT(length_ >= 1);
  HWPAT_ASSERT(start_pos_ < static_cast<Word>(length_));
}

void VectorIterator::eval_comb() {
  w_.ready.write(rc_.ready.read());
  w_.rvalid.write(rc_.rvalid.read());
  w_.rdata.write(rc_.rdata.read());
  rc_.addr.write(pos_);
  rc_.wdata.write(w_.wdata.read());
  rc_.read.write(w_.read.read() && rc_.ready.read());
  rc_.write.write(w_.write.read() && rc_.ready.read());
}

void VectorIterator::check_access() const {
  guard_strobes(w_.client());
  if ((w_.read.read() || w_.write.read()) && !rc_.ready.read())
    throw ProtocolError("iterator '" + full_name() +
                        "': access while container busy");
}

void VectorIterator::move_to(Word p) {
  if (p == pos_) return;
  pos_ = p;
  seq_touch();
}

void VectorIterator::save_state(rtl::StateWriter& w) const { w.word(pos_); }

void VectorIterator::load_state(rtl::StateReader& r) {
  pos_ = static_cast<Word>(r.i32_in(0, length_ - 1, "pos_"));
}

// ---------------------------------------------------------------------
// VectorRandomIterator
// ---------------------------------------------------------------------

VectorRandomIterator::VectorRandomIterator(Module* parent, std::string name,
                                           Spec spec, RandomClient rc,
                                           IterWires& w, int length)
    : VectorIterator(parent, std::move(name), spec, rc, w, length, 0) {
  if (this->spec().traversal != Traversal::Random)
    throw SpecError("iterator '" + this->name() +
                    "': VectorRandomIterator requires random traversal");
}

void VectorRandomIterator::on_clock() {
  check_access();
  if (!w_.index_op.read()) return;
  const Word np = w_.index_pos.read();
  if (np >= static_cast<Word>(length_))
    throw ProtocolError("iterator '" + full_name() + "': index " +
                        std::to_string(np) + " out of range");
  move_to(np);
}

void VectorRandomIterator::report(rtl::PrimitiveTally& t) const {
  const int pbits = std::max(1, clog2(static_cast<Word>(length_)));
  // The position register exists only when `index` is used; without it
  // the iterator degenerates to a fixed-position wrapper.
  if (ops().contains(Op::Index)) {
    t.regs(pbits);
    t.lut(1);  // load enable
    t.depth(1);
  }
}

// ---------------------------------------------------------------------
// VectorSeqIterator
// ---------------------------------------------------------------------

VectorSeqIterator::VectorSeqIterator(Module* parent, std::string name,
                                     Spec spec, Config cfg, RandomClient rc,
                                     IterWires& w)
    : VectorIterator(parent, std::move(name), spec, rc, w, cfg.length,
                     cfg.start_pos) {
  if (this->spec().traversal == Traversal::Random)
    throw SpecError("iterator '" + this->name() +
                    "': VectorSeqIterator requires sequential traversal");
}

void VectorSeqIterator::on_clock() {
  check_access();
  const auto len = static_cast<Word>(length_);
  Word p = position();
  if (w_.inc.read()) p = (p + 1) % len;
  if (w_.dec.read()) p = (p + len - 1) % len;
  move_to(p);
}

void VectorSeqIterator::report(rtl::PrimitiveTally& t) const {
  const int pbits = std::max(1, clog2(static_cast<Word>(length_)));
  t.regs(pbits);  // the position register of the ConcreteIterator
  // Dead-operation elimination: the increment/decrement datapath exists
  // only for the operations the design uses.
  if (ops().contains(Op::Inc)) {
    t.adder(pbits);
    t.comparator(pbits);  // wrap at length-1
  }
  if (ops().contains(Op::Dec)) {
    t.adder(pbits);
    t.comparator(pbits);  // wrap at 0
  }
  if (ops().contains(Op::Inc) && ops().contains(Op::Dec)) t.mux2(pbits);
  t.depth(2);
}

}  // namespace hwpat::core
