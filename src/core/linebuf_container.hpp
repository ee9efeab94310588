// LineBufferContainer: the "special" read-buffer binding of the paper's
// blur example — a read buffer mapped over a 3-line buffer device, so
// that each pop delivers a whole 3-pixel column.
//
// The push side accepts single pixels (raster order, with a
// start-of-frame strobe); the pop side delivers packed columns of
// 3 * pixel_bits bits.  Like the FIFO binding, the container only wires
// the method interface to the device: the device's wr_ready and
// col_valid are can_push and can_pop, and the device drives full and
// empty as their inverses.  The column count is internal to the device,
// so `size` is left undriven and reads 0.  The container evaluates
// nothing after reset, and the device child reports the storage.
#pragma once

#include <memory>

#include "core/container.hpp"
#include "devices/linebuffer.hpp"

namespace hwpat::core {

class LineBufferContainer : public Container {
 public:
  struct Config {
    int pixel_bits = 8;
    int line_width = 64;
    int col_fifo_depth = 4;
    bool strict = true;
  };

  /// `p.push_data` must be pixel_bits wide and `p.front` 3*pixel_bits
  /// wide; `sof` is asserted together with push on a frame's first
  /// pixel.
  LineBufferContainer(Module* parent, std::string name, Config cfg,
                      StreamImpl p, const Bit& sof);

  // Wiring only: no process at all — pruned from the activation list.
  void declare_state() override { declare_comb_only(); }
  void report(rtl::PrimitiveTally&) const override {}  // pure wrapper

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] int column_bits() const { return 3 * cfg_.pixel_bits; }

 private:
  Config cfg_;
  std::unique_ptr<devices::LineBuffer3> dev_;
};

}  // namespace hwpat::core
