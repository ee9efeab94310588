#include "meta/width_iter.hpp"

namespace hwpat::meta {

using core::IterRole;
using core::Traversal;

namespace {
/// Width of the (unused) index position wire: stream iterators have no
/// random access.
constexpr int kPosBits = 1;
}  // namespace

WidthAdaptInputIterator::WidthAdaptInputIterator(
    Module* parent, std::string name, Spec spec,
    core::ContainerKind bound_kind, Config cfg, core::StreamConsumer c)
    : Iterator(parent, std::move(name), spec, bound_kind),
      cfg_(cfg),
      lanes_(ceil_div(cfg.elem_bits, cfg.bus_bits)),
      c_(c),
      iw_(*this, "", cfg.elem_bits, kPosBits) {
  HWPAT_ASSERT(cfg_.bus_bits >= 1 && cfg_.elem_bits >= cfg_.bus_bits);
  if (this->spec().role != IterRole::Input)
    throw SpecError("iterator '" + this->name() +
                    "': width-adapting input iterator requires the Input "
                    "role");
  if (lanes_ < 2)
    throw SpecError("iterator '" + this->name() +
                    "': no width adaptation needed (use the wrapper "
                    "iterator)");
}

void WidthAdaptInputIterator::eval_comb() {
  iw_.ready.write(asm_valid_);
  iw_.rvalid.write(asm_valid_);
  iw_.rdata.write(asm_reg_);
  // Gather lanes autonomously whenever no assembled element is staged.
  c_.pop.write(!asm_valid_ && c_.can_pop.read());
}

void WidthAdaptInputIterator::on_clock() {
  guard_strobes(iw_.client());
  const bool advance = spec().traversal == Traversal::Backward
                           ? iw_.dec.read()
                           : iw_.inc.read();
  if (advance) {
    if (!asm_valid_)
      throw ProtocolError("iterator '" + full_name() +
                          "': advance while element not assembled");
    asm_reg_ = 0;
    asm_valid_ = false;
    lane_ = 0;
    seq_touch();
    return;  // gathering restarts next cycle (pop was low this cycle)
  }
  if (!asm_valid_ && c_.can_pop.read()) {
    asm_reg_ = with_lane(asm_reg_, lane_, cfg_.bus_bits, c_.front.read());
    if (++lane_ == lanes_) {
      asm_valid_ = true;
      lane_ = 0;
    }
    seq_touch();
  }
}

void WidthAdaptInputIterator::on_reset() {
  asm_reg_ = 0;
  lane_ = 0;
  asm_valid_ = false;
}

void WidthAdaptInputIterator::report(rtl::PrimitiveTally& t) const {
  // The real cost of width adaptation: assembly register + lane counter.
  const int lb = bits_for(static_cast<Word>(lanes_));
  t.regs(cfg_.elem_bits + lb + 1);
  t.adder(lb);
  t.comparator(lb);
  t.lut(2);
  t.depth(2);
}

WidthAdaptOutputIterator::WidthAdaptOutputIterator(
    Module* parent, std::string name, Spec spec,
    core::ContainerKind bound_kind, Config cfg, core::StreamProducer pr)
    : Iterator(parent, std::move(name), spec, bound_kind),
      cfg_(cfg),
      lanes_(ceil_div(cfg.elem_bits, cfg.bus_bits)),
      pr_(pr),
      iw_(*this, "", cfg.elem_bits, kPosBits) {
  HWPAT_ASSERT(cfg_.bus_bits >= 1 && cfg_.elem_bits >= cfg_.bus_bits);
  if (this->spec().role != IterRole::Output)
    throw SpecError("iterator '" + this->name() +
                    "': width-adapting output iterator requires the "
                    "Output role");
  if (lanes_ < 2)
    throw SpecError("iterator '" + this->name() +
                    "': no width adaptation needed (use the wrapper "
                    "iterator)");
}

void WidthAdaptOutputIterator::eval_comb() {
  iw_.ready.write(pending_ == 0);
  iw_.rvalid.write(false);
  iw_.rdata.write(0);
  pr_.push.write(pending_ > 0 && pr_.can_push.read());
  pr_.push_data.write(truncate(shift_reg_, cfg_.bus_bits));
}

void WidthAdaptOutputIterator::on_clock() {
  guard_strobes(iw_.client());
  if (iw_.write.read()) {
    if (pending_ != 0)
      throw ProtocolError("iterator '" + full_name() +
                          "': write while previous element still "
                          "draining");
    shift_reg_ = truncate(iw_.wdata.read(), cfg_.elem_bits);
    pending_ = lanes_;
    seq_touch();
    return;  // lanes start draining next cycle
  }
  if (pending_ > 0 && pr_.can_push.read()) {
    shift_reg_ >>= cfg_.bus_bits;
    --pending_;
    seq_touch();
  }
}

void WidthAdaptOutputIterator::on_reset() {
  shift_reg_ = 0;
  pending_ = 0;
}

void WidthAdaptOutputIterator::report(rtl::PrimitiveTally& t) const {
  const int lb = bits_for(static_cast<Word>(lanes_));
  t.regs(cfg_.elem_bits + lb);
  t.adder(lb);
  t.comparator(lb);
  t.lut(2);
  t.depth(2);
}


void WidthAdaptInputIterator::save_state(rtl::StateWriter& w) const {
  w.word(asm_reg_);
  w.i32(lane_);
  w.boolean(asm_valid_);
}

void WidthAdaptInputIterator::load_state(rtl::StateReader& r) {
  asm_reg_ = r.word();
  lane_ = r.i32();
  asm_valid_ = r.boolean();
}

void WidthAdaptOutputIterator::save_state(rtl::StateWriter& w) const {
  w.word(shift_reg_);
  w.i32(pending_);
}

void WidthAdaptOutputIterator::load_state(rtl::StateReader& r) {
  shift_reg_ = r.word();
  pending_ = r.i32();
}

}  // namespace hwpat::meta
