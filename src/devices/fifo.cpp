#include "devices/fifo.hpp"

namespace hwpat::devices {

FifoCore::FifoCore(Module* parent, std::string name, FifoConfig cfg,
                   FifoPorts p)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      p_(p),
      mem_(static_cast<std::size_t>(cfg.depth), 0) {
  HWPAT_ASSERT(cfg_.width >= 1 && cfg_.width <= kMaxBusBits);
  HWPAT_ASSERT(cfg_.depth >= 1);
  // Strict mode throws from the pre-edge validate phase, so an illegal
  // operation aborts the whole clock-edge event before ANY state moved.
  if (cfg_.strict) enable_clock_check();
}

void FifoCore::on_clock_check() const {
  // as_word_fast(): untraced reads — this hook runs on every edge of
  // the FIFO's domain, outside any eval trace, so skipping the tracer
  // hook keeps the validate phase off the step's critical path.
  const bool do_rd = p_.rd_en.as_word_fast() != 0;
  const bool do_wr = p_.wr_en.as_word_fast() != 0;
  // Mirrors on_clock() exactly: the read is checked first; a write can
  // only overflow when no read frees a slot in the same cycle.
  if (do_rd && count_ == 0)
    throw ProtocolError("FIFO '" + full_name() + "': read while empty");
  if (do_wr && !do_rd && count_ == cfg_.depth)
    throw ProtocolError("FIFO '" + full_name() + "': write while full");
}

void FifoCore::declare_state() {
  // on_clock() writes no signals; all effects are head_/count_/mem_
  // mutations, reported via seq_touch() below.
  declare_seq_state();
}

void FifoCore::eval_comb() {
  p_.empty.write(count_ == 0);
  p_.full.write(count_ == cfg_.depth);
  p_.level.write(static_cast<Word>(count_));
  // Show-ahead: present the front element whenever one exists.
  p_.rd_data.write(count_ > 0 ? mem_[static_cast<std::size_t>(head_)] : 0);
}

void FifoCore::on_clock() {
  const bool do_rd = p_.rd_en.read();
  const bool do_wr = p_.wr_en.read();
  if (do_rd) {
    if (count_ == 0) {
      if (cfg_.strict)
        throw ProtocolError("FIFO '" + full_name() + "': read while empty");
    } else {
      head_ = (head_ + 1) % cfg_.depth;
      --count_;
      seq_touch();
    }
  }
  if (do_wr) {
    if (count_ == cfg_.depth) {
      if (cfg_.strict)
        throw ProtocolError("FIFO '" + full_name() + "': write while full");
    } else {
      const int tail = (head_ + count_) % cfg_.depth;
      mem_[static_cast<std::size_t>(tail)] = p_.wr_data.read();
      ++count_;
      seq_touch();
    }
  }
}

void FifoCore::on_reset() {
  head_ = 0;
  count_ = 0;
}

void FifoCore::report(rtl::PrimitiveTally& t) const {
  // Modelled after the vendor FIFO macro of the paper's board
  // (Spartan-II FIFO generator): block RAM storage for deep FIFOs,
  // distributed RAM for shallow ones; control = read/write pointers
  // with gray-code clock-domain synchronisers (the decoder and display
  // sides of the board run on separate clocks), an occupancy counter,
  // the first-word-fall-through output register, and status flags.
  const int abits = std::max(1, clog2(static_cast<Word>(cfg_.depth)));
  const int cbits = bits_for(static_cast<Word>(cfg_.depth));
  const int bits = cfg_.width * cfg_.depth;
  if (bits <= 1024) {
    t.distram(bits);  // shallow FIFOs live in the LUT fabric
  } else {
    t.blockram(bram_macros_for(bits));
  }
  t.regs(2 * abits);      // read/write pointers
  t.regs(2 * abits);      // gray-code pointer synchronisers
  t.regs(cbits);          // occupancy counter
  t.regs(cfg_.width);     // FWFT show-ahead output register
  t.regs(2);              // empty/full flags
  t.adder(2 * abits + cbits);  // pointer/counter increments
  t.comparator(2 * cbits);     // empty, full
  t.lut(2 * abits);            // gray encode/decode
  t.lut(2);                    // enable gating
  t.depth(2);
}


void FifoCore::save_state(rtl::StateWriter& w) const {
  w.i32(head_);
  w.i32(count_);
  w.words(mem_);
}

void FifoCore::load_state(rtl::StateReader& r) {
  head_ = r.i32_in(0, cfg_.depth - 1, "head");
  count_ = r.i32_in(0, cfg_.depth, "count");
  r.fixed_words(mem_);
}

}  // namespace hwpat::devices
