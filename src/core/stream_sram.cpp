#include "core/stream_sram.hpp"

#include <tuple>

namespace hwpat::core {

SramStreamContainer::SramStreamContainer(Module* parent, std::string name,
                                         Config cfg, StreamImpl p,
                                         SramMaster mem)
    : Container(parent, std::move(name), cfg.kind, DeviceKind::Sram,
                cfg.elem_bits),
      cfg_(cfg),
      p_(p),
      mem_(mem) {
  HWPAT_ASSERT(cfg_.capacity >= 1);
}

bool SramStreamContainer::can_push_now() const {
  const int committed = count_ + (wpend_ ? 1 : 0);
  return !wpend_ && committed < cfg_.capacity;
}

bool SramStreamContainer::can_pop_now() const {
  // Conservative: only pop when the FSM is quiescent, so the front
  // cache can never race an in-flight memory operation.
  return front_valid_ && state_ == State::Idle && !wpend_;
}

Word SramStreamContainer::read_addr() const {
  if (lifo_discipline())
    return cfg_.base_addr + static_cast<Word>(tail_ - 1);
  return cfg_.base_addr + static_cast<Word>(head_);
}

Word SramStreamContainer::write_addr() const {
  if (lifo_discipline()) return cfg_.base_addr + static_cast<Word>(tail_);
  return cfg_.base_addr +
         static_cast<Word>((head_ + count_) % cfg_.capacity);
}

void SramStreamContainer::eval_comb() {
  p_.can_push.write(can_push_now());
  p_.can_pop.write(can_pop_now());
  p_.empty.write(count_ == 0 && !wpend_);
  p_.full.write(count_ + (wpend_ ? 1 : 0) >= cfg_.capacity);
  p_.size.write(static_cast<Word>(count_ + (wpend_ ? 1 : 0)));
  p_.front.write(front_);
}

void SramStreamContainer::declare_state() {
  register_seq(mem_.req);
  register_seq(mem_.we);
  register_seq(mem_.addr);
  register_seq(mem_.wdata);
}

void SramStreamContainer::on_clock() {
  // Snapshot of the architectural state eval_comb() reads, so the
  // seq_touch() decision at the end is exact (head_/tail_/wreg_ are
  // read only by on_clock() itself).
  const auto pre =
      std::make_tuple(state_, count_, front_, front_valid_, wpend_);
  // 1. Progress the memory FSM on the pre-edge ack.
  switch (state_) {
    case State::Idle:
      break;
    case State::Write:
      if (mem_.ack.read()) {
        mem_.req.write(false);
        mem_.we.write(false);
        if (lifo_discipline()) {
          ++tail_;
          ++count_;
          front_ = wreg_;  // pushed element is the new top
          front_valid_ = true;
        } else {
          ++count_;
          if (count_ == 1) {  // first element: it is the front
            front_ = wreg_;
            front_valid_ = true;
          }
        }
        wpend_ = false;
        state_ = State::Idle;
      }
      break;
    case State::Fetch:
      if (mem_.ack.read()) {
        mem_.req.write(false);
        front_ = mem_.rdata.read();
        front_valid_ = true;
        state_ = State::Idle;
      }
      break;
  }

  // 2. Accept client strobes (pre-edge values; guards use pre-edge
  //    state so a strobe raced against completion is still judged by
  //    what the client could observe).
  if (p_.pop.read()) {
    if (!can_pop_now()) {
      if (cfg_.strict)
        throw ProtocolError("container '" + full_name() +
                            "': pop while can_pop is low");
    } else {
      front_valid_ = false;
      --count_;
      if (lifo_discipline()) {
        --tail_;
      } else {
        head_ = (head_ + 1) % cfg_.capacity;
      }
    }
  }
  if (p_.push.read()) {
    if (!can_push_now()) {
      if (cfg_.strict)
        throw ProtocolError("container '" + full_name() +
                            "': push while can_push is low");
    } else {
      wreg_ = truncate(p_.push_data.read(), elem_bits());
      wpend_ = true;
    }
  }

  // 3. Launch the next memory operation when quiescent.  Writes win:
  //    draining the push latch re-opens can_push fastest.
  if (state_ == State::Idle) {
    if (wpend_) {
      mem_.req.write(true);
      mem_.we.write(true);
      mem_.addr.write(write_addr());
      mem_.wdata.write(wreg_);
      state_ = State::Write;
    } else if (!front_valid_ && count_ > 0) {
      mem_.req.write(true);
      mem_.we.write(false);
      mem_.addr.write(read_addr());
      state_ = State::Fetch;
    }
  }

  if (pre != std::make_tuple(state_, count_, front_, front_valid_, wpend_))
    seq_touch();
}

void SramStreamContainer::on_reset() {
  state_ = State::Idle;
  head_ = tail_ = count_ = 0;
  front_ = 0;
  front_valid_ = false;
  wpend_ = false;
  wreg_ = 0;
}

void SramStreamContainer::report(rtl::PrimitiveTally& t) const {
  // The "few registers to store the begin and end pointers of the
  // queue" (Fig. 5): the classic circular-buffer architecture keeps
  // the two pointers plus a wrap bit; occupancy is derived
  // combinationally from the pointer difference.
  const int pbits = std::max(1, clog2(static_cast<Word>(cfg_.capacity)));
  const int w = elem_bits();
  if (lifo_discipline()) {
    t.regs(pbits);   // stack pointer
    t.adder(pbits);
  } else {
    t.regs(2 * pbits + 1);  // begin/end pointers + wrap bit
    t.adder(2 * pbits);     // pointer increments
    if (cfg_.with_size) t.adder(pbits);  // occupancy subtractor
  }
  t.regs(2 * w + 2);          // front cache + write latch + valid/pend
  t.fsm(3, 6);                // the "little finite state machine"
  // Address forming: a region whose base is aligned to its size is
  // pure bit concatenation; only unaligned bases need an adder, and
  // the high address bits are constant so the read/write select mux
  // covers the pointer bits only.
  const Word align = (Word{1} << pbits) - 1;
  if ((cfg_.base_addr & align) != 0) t.adder(addr_bits());
  t.mux2(pbits);              // read/write pointer select
  t.comparator(2 * pbits);    // empty / full (pointer compare)
  t.depth(3);
}


void SramStreamContainer::save_state(rtl::StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(state_));
  w.i32(head_);
  w.i32(tail_);
  w.i32(count_);
  w.word(front_);
  w.boolean(front_valid_);
  w.boolean(wpend_);
  w.word(wreg_);
}

void SramStreamContainer::load_state(rtl::StateReader& r) {
  const int cap = cfg_.capacity;
  state_ = static_cast<State>(
      r.u32_in(0, static_cast<std::uint32_t>(State::Fetch), "state_"));
  head_ = r.i32_in(0, cap - 1, "head_");
  tail_ = r.i32_in(0, cap, "tail_");
  count_ = r.i32_in(0, cap, "count_");
  front_ = r.word();
  front_valid_ = r.boolean();
  wpend_ = r.boolean();
  wreg_ = r.word();
  // Invariants every run keeps (see on_clock()).
  const char* broken = nullptr;
  if (front_valid_ && count_ == 0)
    broken = "front_valid_ is set while count_ is 0";
  else if (wpend_ && count_ == cap)
    broken = "wpend_ is set while count_ is at capacity";
  else if (state_ == State::Write && !wpend_)
    broken = "state_ is Write while wpend_ is clear";
  else if (state_ == State::Fetch && (front_valid_ || count_ == 0))
    broken = "state_ is Fetch while front_valid_ is set or count_ is 0";
  else if (lifo_discipline() && tail_ != count_)
    broken = "a stack's tail_ differs from its count_";
  if (broken != nullptr)
    throw SnapshotError(
        std::string("snapshot: ") + broken + " (state_ = " +
        std::to_string(static_cast<int>(state_)) + ", tail_ = " +
        std::to_string(tail_) + ", count_ = " + std::to_string(count_) +
        ", front_valid_ = " + std::to_string(front_valid_) +
        ", wpend_ = " + std::to_string(wpend_) + ") — corrupted blob");
}

}  // namespace hwpat::core
