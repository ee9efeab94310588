#include "core/blur.hpp"

namespace hwpat::core {

BlurFsm::BlurFsm(Module* parent, std::string name, Config cfg,
                 IterClient in, IterClient out, AlgoControl ctl)
    : Algorithm(parent, std::move(name), ctl), cfg_(cfg), in_(in),
      out_(out) {
  HWPAT_ASSERT(cfg_.width >= 3 && cfg_.height >= 3);
  HWPAT_ASSERT(cfg_.pixel_bits >= 1 && 3 * cfg_.pixel_bits <= kMaxBusBits);
  if (in_.rdata.width() != 3 * cfg_.pixel_bits)
    throw SpecError("blur '" + this->name() +
                    "': input iterator must deliver 3-pixel columns");
  if (out_.wdata.width() < cfg_.pixel_bits)
    throw SpecError("blur '" + this->name() +
                    "': output iterator element too narrow");
}

Word BlurFsm::kernel3x3(Word left, Word centre, Word right,
                        int pixel_bits) {
  const int w = pixel_bits;
  const auto px = [w](Word col, int row) {
    return truncate(col >> ((2 - row) * w), w);  // row 0 = oldest (y-2)
  };
  //        1 2 1
  //  1/16  2 4 2
  //        1 2 1
  Word sum = 0;
  for (int r = 0; r < 3; ++r) {
    const Word l = px(left, r), c = px(centre, r), rr = px(right, r);
    const Word rowk = (r == 1) ? 2 : 1;
    sum += rowk * (l + 2 * c + rr);
  }
  return truncate(sum >> 4, w);
}

bool BlurFsm::consume_now() const {
  if (!running() || !in_.ready.read() || !in_.rvalid.read()) return false;
  // A column that completes an interior window also needs the output
  // side ready, because consumption and emission happen together.
  if (x_ >= 2 && !out_.ready.read()) return false;
  return true;
}

bool BlurFsm::output_now() const { return consume_now() && x_ >= 2; }

void BlurFsm::eval_comb() {
  Algorithm::eval_comb();
  const bool rd = consume_now();
  const bool wr = output_now();
  in_.read.write(rd);
  in_.inc.write(rd);
  out_.write.write(wr);
  out_.inc.write(wr);
  // Window = (x-2, x-1, incoming column x).
  out_.wdata.write(
      kernel3x3(win_[0], win_[1], in_.rdata.read(), cfg_.pixel_bits));
}

void BlurFsm::on_clock() {
  if (!clock_control()) return;
  if (!consume_now()) return;
  // Shift the window and advance the raster bookkeeping.  win_ and x_
  // are eval-visible (the kernel operand and the interior-window test).
  seq_touch();
  win_[0] = win_[1];
  win_[1] = truncate(in_.rdata.read(), 3 * cfg_.pixel_bits);
  if (++x_ == cfg_.width) {
    x_ = 0;
    if (++row_ == cfg_.height - 2) {
      row_ = 0;
      ++frames_done_;
      if (cfg_.frames != 0 && frames_done_ >= cfg_.frames) {
        // Reuse the base bookkeeping for the done pulse.
        count_transfer(1);
      }
    }
  }
}

void BlurFsm::on_reset() {
  Algorithm::on_reset();
  win_[0] = win_[1] = 0;
  x_ = 0;
  row_ = 0;
  frames_done_ = 0;
}

void BlurFsm::report(rtl::PrimitiveTally& t) const {
  const int w = cfg_.pixel_bits;
  // Window registers: two 3-pixel columns (the third is combinational).
  t.regs(6 * w);
  // Shift-add convolution tree: 3 row sums (2 adds each, w+2 bits) +
  // 2 combining adds (w+4 bits); the x2/x4 weights are wiring.
  t.adder(3 * 2 * (w + 2) + 2 * (w + 4));
  // Raster bookkeeping: the column counter and its wrap/interior
  // comparisons are always needed; the row and frame counters exist
  // only for bounded runs — in the endless streaming mode they are
  // dead logic a synthesiser strips.
  const int xb = bits_for(static_cast<Word>(cfg_.width));
  t.regs(xb + 1);        // x counter + run flag
  t.adder(xb);
  t.comparator(xb + 2);  // end-of-line, x>=2
  if (cfg_.frames != 0) {
    const int yb = bits_for(static_cast<Word>(cfg_.height));
    const int fb = bits_for(cfg_.frames);
    t.regs(yb + fb);
    t.adder(yb + fb);
    t.comparator(yb + fb);
  }
  t.lut(4);
  t.depth(5);  // the adder tree dominates the combinational path
}


void BlurFsm::save_state(rtl::StateWriter& w) const {
  Algorithm::save_state(w);
  w.word(win_[0]);
  w.word(win_[1]);
  w.i32(x_);
  w.i32(row_);
  w.u64(frames_done_);
}

void BlurFsm::load_state(rtl::StateReader& r) {
  Algorithm::load_state(r);
  win_[0] = r.word();
  win_[1] = r.word();
  x_ = r.i32();
  row_ = r.i32();
  frames_done_ = r.u64();
}

}  // namespace hwpat::core
