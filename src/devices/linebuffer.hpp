// LineBuffer3: the "special" 3-line buffer of the paper's blur example,
// "structured to provide 3 pixels in a column for each access".
//
// Classic video line-delay chain: two on-chip line memories hold the two
// previous scan lines; the third row of every column is the pixel being
// written right now.  From line 2 of a frame onwards, each written pixel
// (x, y) produces the column ((x,y-2), (x,y-1), (x,y)), which is pushed
// into a small show-ahead column FIFO so a consumer can read columns
// with the same handshake as any other buffer device.
//
// The column bus packs three pixels: bits [w-1:0] = newest row (y),
// [2w-1:w] = middle row (y-1), [3w-1:2w] = oldest row (y-2).
//
// Only the two line memories consume block RAM — with 8-bit pixels and
// lines up to 512 pixels this is the 2-block-RAM figure of the paper's
// blur row in Table 3.  The column FIFO is tiny and lives in
// distributed RAM.
#pragma once

#include <vector>

#include "devices/device.hpp"
#include "rtl/module.hpp"

namespace hwpat::devices {

using rtl::Bit;
using rtl::Bus;

struct LineBuffer3Config {
  int pixel_width = 8;
  int line_width = 64;    ///< pixels per scan line (W)
  int col_fifo_depth = 4; ///< slack between producer and consumer
  bool strict = true;
};

struct LineBuffer3Ports {
  // Write side (pixel stream in, raster order).
  const Bit& wr_en;
  const Bus& wr_data;
  const Bit& sof;  ///< assert together with wr_en on the first pixel of a frame
  Bit& wr_ready;   ///< low = column FIFO full, writing would overflow
  // Read side (columns out, show-ahead).
  const Bit& rd_en;
  Bus& col_data;  ///< 3 * pixel_width bits, packed as documented above
  Bit& col_valid;
  // wr_ready and col_valid are a stream container's can_push and
  // can_pop (core/ports.hpp); a read buffer bound to this device also
  // has the inverse flags, which the device drives when they are
  // connected (nullptr = open).
  Bit* full = nullptr;   ///< !wr_ready
  Bit* empty = nullptr;  ///< !col_valid
};

class LineBuffer3 : public rtl::Module {
 public:
  LineBuffer3(Module* parent, std::string name, LineBuffer3Config cfg,
              LineBuffer3Ports p);

  void eval_comb() override;
  void on_clock_check() const override;
  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const LineBuffer3Config& config() const { return cfg_; }

 private:
  LineBuffer3Config cfg_;
  LineBuffer3Ports p_;
  std::vector<Word> line1_;  // previous line (y-1)
  std::vector<Word> line2_;  // line before that (y-2)
  std::vector<Word> colq_;   // pending columns (small FIFO)
  int colq_head_ = 0;
  int colq_count_ = 0;
  int wr_x_ = 0;
  int wr_y_ = 0;

  void push_column(Word col);
};

}  // namespace hwpat::devices
