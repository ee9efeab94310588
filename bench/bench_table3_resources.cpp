// Regenerates Table 3 of the paper: FFs / LUTs / block RAMs / clock for
// the three design examples, pattern-based vs custom implementation.
//
//   Design      FFs        LUTs       blockRAM  clk MHz
//   saa2vga 1   147/147    169/168    2/2       98/98     (paper)
//   saa2vga 2    69/69     127/127    0/0       96/96     (paper)
//   blur       3145/3145  4170/4169   2/2       98/98     (paper)
//
// Our numbers come from the synthesis-cost estimator over the RTL
// module trees (see DESIGN.md for the substitution rationale); the
// paper's rows are printed alongside.  The *shape* to check: pattern
// and custom nearly identical in every cell, FIFO point uses block RAM
// at 98 MHz, SRAM point uses none at 96 MHz, blur is by far the
// largest design.
#include <cstdio>
#include <string>

#include "common/text.hpp"
#include "designs/design.hpp"
#include "estimate/tech.hpp"

namespace {

using hwpat::TextTable;
using hwpat::designs::BlurConfig;
using hwpat::designs::Saa2VgaConfig;
using hwpat::estimate::ResourceReport;

std::string cell(int a, int b) {
  return std::to_string(a) + "/" + std::to_string(b);
}

std::string clk_cell(double a, double b) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f/%.0f", a, b);
  return buf;
}

struct Row {
  std::string name;
  ResourceReport pattern;
  ResourceReport custom;
  std::string paper_ff, paper_lut, paper_bram, paper_clk;
};

}  // namespace

int main() {
  using namespace hwpat;

  // The evaluation configuration: a VGA-class line length (the paper's
  // board drives a real monitor; we keep 512-deep line buffers and
  // 640x480 geometry so the storage matches the board's usage).
  const Saa2VgaConfig fifo_cfg{.width = 640, .height = 480,
                               .buffer_depth = 512,
                               .device = devices::DeviceKind::FifoCore};
  Saa2VgaConfig sram_cfg = fifo_cfg;
  sram_cfg.device = devices::DeviceKind::Sram;
  // Blur line width 256 keeps the two line memories at one block RAM
  // each (2 total, as in the paper); the small output FIFO lives in
  // distributed RAM.
  const BlurConfig blur_cfg{.width = 256, .height = 192,
                            .out_fifo_depth = 64};

  const Row rows[] = {
      {"saa2vga 1",
       estimate::estimate(*designs::make_saa2vga_pattern(fifo_cfg)),
       estimate::estimate(*designs::make_saa2vga_custom(fifo_cfg)),
       "147/147", "169/168", "2/2", "98/98"},
      {"saa2vga 2",
       estimate::estimate(*designs::make_saa2vga_pattern(sram_cfg)),
       estimate::estimate(*designs::make_saa2vga_custom(sram_cfg)),
       "69/69", "127/127", "0/0", "96/96"},
      {"blur",
       estimate::estimate(*designs::make_blur_pattern(blur_cfg)),
       estimate::estimate(*designs::make_blur_custom(blur_cfg)),
       "3145/3145", "4170/4169", "2/2", "98/98"},
  };

  std::printf("Table 3: design experiments — pattern/custom per cell\n");
  std::printf("(measured by the synthesis-cost estimator; paper values "
              "from the DATE'05 text)\n\n");

  TextTable t;
  t.header({"Design", "FFs", "LUTs", "blockRAM", "clk MHz", "|", "paper FFs",
            "paper LUTs", "paper bRAM", "paper clk"});
  for (const Row& r : rows) {
    t.row({r.name, cell(r.pattern.ff, r.custom.ff),
           cell(r.pattern.lut, r.custom.lut),
           cell(r.pattern.bram, r.custom.bram),
           clk_cell(r.pattern.fmax_mhz, r.custom.fmax_mhz), "|",
           r.paper_ff, r.paper_lut, r.paper_bram, r.paper_clk});
  }
  std::printf("%s\n", t.str().c_str());

  // The headline claim, checked mechanically.
  bool ok = true;
  for (const Row& r : rows) {
    const int dff = std::abs(r.pattern.ff - r.custom.ff);
    const int dlut = std::abs(r.pattern.lut - r.custom.lut);
    std::printf("%-10s pattern overhead: %+d FF, %+d LUT, %+d BRAM\n",
                r.name.c_str(), r.pattern.ff - r.custom.ff,
                r.pattern.lut - r.custom.lut,
                r.pattern.bram - r.custom.bram);
    ok = ok && dff <= 8 && dlut <= 16 && r.pattern.bram == r.custom.bram;
  }
  std::printf("\nshape check: %s — %s\n", ok ? "PASS" : "FAIL",
              "pattern-based implementation has negligible overhead "
              "(iterators dissolve at synthesis)");
  return ok ? 0 : 1;
}
