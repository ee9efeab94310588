#include "devices/linebuffer.hpp"

#include <limits>

namespace hwpat::devices {

LineBuffer3::LineBuffer3(Module* parent, std::string name,
                         LineBuffer3Config cfg, LineBuffer3Ports p)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      p_(p),
      line1_(static_cast<std::size_t>(cfg.line_width), 0),
      line2_(static_cast<std::size_t>(cfg.line_width), 0),
      colq_(static_cast<std::size_t>(cfg.col_fifo_depth), 0) {
  HWPAT_ASSERT(cfg_.pixel_width >= 1 && 3 * cfg_.pixel_width <= kMaxBusBits);
  HWPAT_ASSERT(cfg_.line_width >= 3);
  HWPAT_ASSERT(cfg_.col_fifo_depth >= 1);
  // Strict mode throws from the pre-edge validate phase, so an illegal
  // operation aborts the whole clock-edge event before ANY state moved.
  if (cfg_.strict) enable_clock_check();
}

void LineBuffer3::on_clock_check() const {
  // Mirrors on_clock(): the read is taken first, and a column is pushed
  // only from the third row of a frame (sof restarts the row count).
  const bool do_rd = p_.rd_en.as_word_fast() != 0;
  if (do_rd && colq_count_ == 0)
    throw ProtocolError("LineBuffer3 '" + full_name() +
                        "': column read while empty");
  if (p_.wr_en.as_word_fast() == 0) return;
  const int row = p_.sof.as_word_fast() != 0 ? 0 : wr_y_;
  const int count = colq_count_ - (do_rd ? 1 : 0);
  if (row >= 2 && count == cfg_.col_fifo_depth)
    throw ProtocolError("LineBuffer3 '" + full_name() +
                        "': column FIFO overflow (consumer too slow)");
}

void LineBuffer3::declare_state() {
  // eval_comb() reads only the column FIFO (colq_*); the line memories
  // and write-side raster counters feed future on_clock() calls, so a
  // linebuffer between column bursts is sequential-idle.
  declare_seq_state();
}

void LineBuffer3::eval_comb() {
  const bool valid = colq_count_ > 0;
  const bool ready = colq_count_ < cfg_.col_fifo_depth;
  p_.col_valid.write(valid);
  p_.wr_ready.write(ready);
  if (p_.full != nullptr) p_.full->write(!ready);
  if (p_.empty != nullptr) p_.empty->write(!valid);
  p_.col_data.write(
      colq_count_ > 0 ? colq_[static_cast<std::size_t>(colq_head_)] : 0);
}

void LineBuffer3::push_column(Word col) {
  // A full column FIFO drops the column; in strict mode
  // on_clock_check() has already rejected the edge.
  if (colq_count_ == cfg_.col_fifo_depth) return;
  const int tail = (colq_head_ + colq_count_) % cfg_.col_fifo_depth;
  colq_[static_cast<std::size_t>(tail)] = col;
  ++colq_count_;
  seq_touch();
}

void LineBuffer3::on_clock() {
  // A read while empty is ignored (strict mode rejected it already).
  if (p_.rd_en.read() && colq_count_ > 0) {
    colq_head_ = (colq_head_ + 1) % cfg_.col_fifo_depth;
    --colq_count_;
    seq_touch();
  }
  if (p_.wr_en.read()) {
    if (p_.sof.read()) {
      wr_x_ = 0;
      wr_y_ = 0;
    }
    const auto x = static_cast<std::size_t>(wr_x_);
    const Word pix = truncate(p_.wr_data.read(), cfg_.pixel_width);
    if (wr_y_ >= 2) {
      const int w = cfg_.pixel_width;
      const Word col = pix | (line1_[x] << w) | (line2_[x] << (2 * w));
      push_column(col);
    }
    // Line-delay chain: this column's (y-1) becomes next frame-row's
    // (y-2); the new pixel becomes (y-1).
    line2_[x] = line1_[x];
    line1_[x] = pix;
    if (++wr_x_ == cfg_.line_width) {
      wr_x_ = 0;
      ++wr_y_;
    }
  }
}

void LineBuffer3::on_reset() {
  colq_head_ = 0;
  colq_count_ = 0;
  wr_x_ = 0;
  wr_y_ = 0;
}

void LineBuffer3::report(rtl::PrimitiveTally& t) const {
  const int w = cfg_.pixel_width;
  // Two line memories in block RAM.
  t.blockram(2 * bram_macros_for(w * cfg_.line_width));
  // Column FIFO in distributed RAM plus its pointers.
  t.distram(3 * w * cfg_.col_fifo_depth);
  const int qbits = bits_for(static_cast<Word>(cfg_.col_fifo_depth));
  t.regs(2 * qbits + qbits);
  t.adder(2 * qbits);
  t.comparator(2 * qbits);
  // Write-side x counter and line bookkeeping.
  const int xbits = bits_for(static_cast<Word>(cfg_.line_width));
  t.regs(xbits + 2);  // wr_x + 2-bit line phase
  t.adder(xbits);
  t.comparator(xbits);  // end-of-line
  t.lut(3);
  t.depth(2);
}


void LineBuffer3::save_state(rtl::StateWriter& w) const {
  w.words(line1_);
  w.words(line2_);
  w.words(colq_);
  w.i32(colq_head_);
  w.i32(colq_count_);
  w.i32(wr_x_);
  w.i32(wr_y_);
}

void LineBuffer3::load_state(rtl::StateReader& r) {
  r.fixed_words(line1_, cfg_.pixel_width);
  r.fixed_words(line2_, cfg_.pixel_width);
  r.fixed_words(colq_, 3 * cfg_.pixel_width);
  colq_head_ = r.i32_in(0, cfg_.col_fifo_depth - 1, "colq_head");
  colq_count_ = r.i32_in(0, cfg_.col_fifo_depth, "colq_count");
  wr_x_ = r.i32_in(0, cfg_.line_width - 1, "wr_x");
  wr_y_ = r.i32_in(0, std::numeric_limits<int>::max(), "wr_y");
}

}  // namespace hwpat::devices
