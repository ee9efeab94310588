#include "devices/lifo.hpp"

namespace hwpat::devices {

LifoCore::LifoCore(Module* parent, std::string name, LifoConfig cfg,
                   LifoPorts p)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      p_(p),
      mem_(static_cast<std::size_t>(cfg.depth), 0) {
  HWPAT_ASSERT(cfg_.width >= 1 && cfg_.width <= kMaxBusBits);
  HWPAT_ASSERT(cfg_.depth >= 1);
  if (cfg_.strict) enable_clock_check();
}

void LifoCore::on_clock_check() const {
  // Untraced reads, as in FifoCore::on_clock_check().
  const bool do_rd = p_.rd_en.as_word_fast() != 0;
  const bool do_wr = p_.wr_en.as_word_fast() != 0;
  // Mirrors on_clock() exactly, including the replace-top special case.
  if (do_rd && do_wr) {
    if (count_ == 0)
      throw ProtocolError("LIFO '" + full_name() +
                          "': pop+push while empty");
    return;
  }
  if (do_rd && count_ == 0)
    throw ProtocolError("LIFO '" + full_name() + "': pop while empty");
  if (do_wr && count_ == cfg_.depth)
    throw ProtocolError("LIFO '" + full_name() + "': push while full");
}

void LifoCore::declare_state() {
  // All on_clock() effects are count_/mem_ mutations (seq_touch below).
  declare_seq_state();
}

void LifoCore::eval_comb() {
  p_.empty.write(count_ == 0);
  p_.full.write(count_ == cfg_.depth);
  p_.level.write(static_cast<Word>(count_));
  p_.rd_data.write(count_ > 0 ? mem_[static_cast<std::size_t>(count_ - 1)]
                              : 0);
}

void LifoCore::on_clock() {
  const bool do_rd = p_.rd_en.read();
  const bool do_wr = p_.wr_en.read();
  if (do_rd && do_wr) {
    // Replace top (pop then push), legal even when full; needs non-empty.
    if (count_ == 0) {
      if (cfg_.strict)
        throw ProtocolError("LIFO '" + full_name() +
                            "': pop+push while empty");
      mem_[0] = p_.wr_data.read();
      count_ = 1;
    } else {
      mem_[static_cast<std::size_t>(count_ - 1)] = p_.wr_data.read();
    }
    seq_touch();  // the show-ahead top element changed either way
    return;
  }
  if (do_rd) {
    if (count_ == 0) {
      if (cfg_.strict)
        throw ProtocolError("LIFO '" + full_name() + "': pop while empty");
    } else {
      --count_;
      seq_touch();
    }
  } else if (do_wr) {
    if (count_ == cfg_.depth) {
      if (cfg_.strict)
        throw ProtocolError("LIFO '" + full_name() + "': push while full");
    } else {
      mem_[static_cast<std::size_t>(count_)] = p_.wr_data.read();
      ++count_;
      seq_touch();
    }
  }
}

void LifoCore::on_reset() { count_ = 0; }

void LifoCore::report(rtl::PrimitiveTally& t) const {
  const int cbits = bits_for(static_cast<Word>(cfg_.depth));
  const int bits = cfg_.width * cfg_.depth;
  if (bits <= 1024) {
    t.distram(bits);
  } else {
    t.blockram(bram_macros_for(bits));
  }
  t.regs(cbits);           // stack pointer
  t.regs(cfg_.width);      // show-ahead top-of-stack register
  t.regs(2);               // empty/full flags
  t.adder(cbits);          // +/- 1
  t.comparator(2 * cbits); // empty, full
  t.lut(2);
  t.depth(2);
}


void LifoCore::save_state(rtl::StateWriter& w) const {
  w.i32(count_);
  w.words(mem_);
}

void LifoCore::load_state(rtl::StateReader& r) {
  count_ = r.i32_in(0, cfg_.depth, "count");
  r.fixed_words(mem_);
}

}  // namespace hwpat::devices
