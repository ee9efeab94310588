#include "core/algorithm.hpp"

namespace hwpat::core {

namespace {
/// The strobe that advances `it` in direction `which` (Inc or Dec).
Bit& advance_strobe(const IterClient& it, Op which) {
  return which == Op::Dec ? it.dec : it.inc;
}
}  // namespace

Algorithm::Algorithm(Module* parent, std::string name, AlgoControl ctl)
    : Module(parent, std::move(name)), ctl_(ctl) {}

void Algorithm::eval_comb() { ctl_.busy.write(running_); }

void Algorithm::on_reset() {
  running_ = false;
  transfers_ = 0;
}

void Algorithm::declare_state() { register_seq(ctl_.done); }

bool Algorithm::clock_control() {
  ctl_.done.write(false);
  const bool was_running = running_;
  if (!running_ && ctl_.start.read()) {
    running_ = true;
    transfers_ = 0;
    seq_touch();  // busy and the transfer strobes depend on running_
  }
  // Return the *pre-edge* state: the combinational strobes this cycle
  // were produced from it, so work may only be counted when it is set.
  return was_running;
}

void Algorithm::count_transfer(std::uint64_t total) {
  ++transfers_;
  if (total != 0 && transfers_ >= total) {
    running_ = false;
    ctl_.done.write(true);
    seq_touch();
  }
}

// ---------------------------------------------------------------------
// TransformFsm
// ---------------------------------------------------------------------

TransformFsm::TransformFsm(Module* parent, std::string name, Config cfg,
                           IterClient in, IterClient out, AlgoControl ctl)
    : Algorithm(parent, std::move(name), ctl),
      cfg_(std::move(cfg)),
      in_(in),
      out_(out) {
  HWPAT_ASSERT(cfg_.in_advance == Op::Inc || cfg_.in_advance == Op::Dec);
  HWPAT_ASSERT(cfg_.out_advance == Op::Inc || cfg_.out_advance == Op::Dec);
  HWPAT_ASSERT(static_cast<bool>(cfg_.op.fn));
}

bool TransformFsm::transfer_now() const {
  return running() && in_.ready.read() && in_.rvalid.read() &&
         out_.ready.read();
}

void TransformFsm::eval_comb() {
  Algorithm::eval_comb();
  const bool go = transfer_now();
  in_.read.write(go);
  advance_strobe(in_, cfg_.in_advance).write(go);
  out_.write.write(go);
  advance_strobe(out_, cfg_.out_advance).write(go);
  out_.wdata.write(cfg_.op(in_.rdata.read()));
}

void TransformFsm::on_clock() {
  if (!clock_control()) return;
  if (transfer_now()) count_transfer(cfg_.count);
}

void TransformFsm::report(rtl::PrimitiveTally& t) const {
  // Control: run flag + (for bounded runs) the transfer counter.
  t.regs(1);
  if (cfg_.count != 0) {
    const int cb = bits_for(cfg_.count);
    t.regs(cb).adder(cb).comparator(cb);
  }
  t.lut(2);  // the go/handshake gating
  t.add(cfg_.op.cost);
  t.depth(2);
}

// ---------------------------------------------------------------------
// CopyFsm
// ---------------------------------------------------------------------

CopyFsm::CopyFsm(Module* parent, std::string name, Config cfg,
                 IterClient in, IterClient out, AlgoControl ctl)
    : TransformFsm(parent, std::move(name),
                   TransformFsm::Config{
                       .count = cfg.count,
                       .in_advance = cfg.in_advance,
                       .out_advance = cfg.out_advance,
                       .op = ops_lib::identity(in.rdata.width())},
                   in, out, ctl) {}

// ---------------------------------------------------------------------
// FillFsm
// ---------------------------------------------------------------------

FillFsm::FillFsm(Module* parent, std::string name, Config cfg,
                 IterClient out, AlgoControl ctl)
    : Algorithm(parent, std::move(name), ctl), cfg_(cfg), out_(out) {
  HWPAT_ASSERT(cfg_.count >= 1);
}

bool FillFsm::transfer_now() const {
  return running() && out_.ready.read();
}

void FillFsm::eval_comb() {
  Algorithm::eval_comb();
  const bool go = transfer_now();
  out_.write.write(go);
  out_.inc.write(go);
  out_.wdata.write(cfg_.value);
}

void FillFsm::on_clock() {
  if (!clock_control()) return;
  if (transfer_now()) count_transfer(cfg_.count);
}

void FillFsm::report(rtl::PrimitiveTally& t) const {
  const int cb = bits_for(cfg_.count);
  t.regs(1 + cb).adder(cb).comparator(cb).lut(1).depth(2);
}

// ---------------------------------------------------------------------
// ReduceFsm
// ---------------------------------------------------------------------

ReduceFsm::ReduceFsm(Module* parent, std::string name, Config cfg,
                     IterClient in, Bus& result, AlgoControl ctl)
    : Algorithm(parent, std::move(name), ctl),
      cfg_(std::move(cfg)),
      in_(in),
      result_(result),
      acc_(cfg_.op.identity) {
  HWPAT_ASSERT(cfg_.count >= 1);
  HWPAT_ASSERT(static_cast<bool>(cfg_.op.fn));
}

bool ReduceFsm::transfer_now() const {
  return running() && in_.ready.read() && in_.rvalid.read();
}

void ReduceFsm::eval_comb() {
  Algorithm::eval_comb();
  const bool go = transfer_now();
  in_.read.write(go);
  advance_strobe(in_, cfg_.in_advance).write(go);
  result_.write(acc_);
}

void ReduceFsm::on_clock() {
  const Word pre = acc_;  // eval-visible through result_
  if (!clock_control()) {
    if (running()) acc_ = cfg_.op.identity;  // run starts this edge
    if (acc_ != pre) seq_touch();
    return;
  }
  if (transfer_now()) {
    acc_ = truncate(cfg_.op(acc_, in_.rdata.read()), result_.width());
    count_transfer(cfg_.count);
    if (acc_ != pre) seq_touch();
  }
}

void ReduceFsm::on_reset() {
  Algorithm::on_reset();
  acc_ = cfg_.op.identity;
}

void ReduceFsm::report(rtl::PrimitiveTally& t) const {
  const int cb = bits_for(cfg_.count);
  t.regs(1 + cb + result_.width());
  t.adder(cb);
  t.comparator(cb);
  t.add(cfg_.op.cost);
  t.depth(2);
}


void Algorithm::save_state(rtl::StateWriter& w) const {
  w.boolean(running_);
  w.u64(transfers_);
}

void Algorithm::load_state(rtl::StateReader& r) {
  running_ = r.boolean();
  transfers_ = r.u64();
}

void ReduceFsm::save_state(rtl::StateWriter& w) const {
  Algorithm::save_state(w);
  w.word(acc_);
}

void ReduceFsm::load_state(rtl::StateReader& r) {
  Algorithm::load_state(r);
  acc_ = r.word();
}

}  // namespace hwpat::core
