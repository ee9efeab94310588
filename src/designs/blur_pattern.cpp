#include "designs/blur_pattern.hpp"

namespace hwpat::designs {

BlurPattern::BlurPattern(const BlurConfig& cfg)
    : VideoDesign(nullptr, "blur_pattern"),
      cfg_(cfg),
      sof_(*this, "sof"),
      rb_w_(*this, "rb", 8, 24, 16),
      wb_w_(*this, "wb", 8, 16),
      ctl_(*this, "ctl"),
      rbuf_(this, "rbuffer",
            {.pixel_bits = 8, .line_width = cfg.width,
             .col_fifo_depth = 4},
            rb_w_.impl(), sof_),
      wbuf_(this, "wbuffer",
            {.kind = core::ContainerKind::WriteBuffer, .elem_bits = 8,
             .depth = cfg.out_fifo_depth},
            wb_w_.impl()),
      it_in_(this, "rbuffer_it",
             {.traversal = core::Traversal::Forward,
              .role = core::IterRole::Input},
             core::ContainerKind::ReadBuffer, rb_w_.consumer()),
      it_out_(this, "wbuffer_it",
              {.traversal = core::Traversal::Forward,
               .role = core::IterRole::Output},
              core::ContainerKind::WriteBuffer, wb_w_.producer()),
      blur_(this, "blur",
            {.width = cfg.width, .height = cfg.height, .pixel_bits = 8,
             .frames = 0},
            it_in_.client(), it_out_.client(), ctl_.control()),
      src_(this, "decoder",
           {.pixel_interval = 1, .frame_blanking = 8,
            .respect_backpressure = true},
           rb_w_.producer(), sof_,
           camera_frames(cfg.width, cfg.height, cfg.frames,
                         cfg.pattern_seed)),
      vga_(this, "vga",
           {.width = cfg.width - 2, .height = cfg.height - 2,
            .channels = 1},
           wb_w_.consumer()) {}

void BlurPattern::eval_comb() { ctl_.start.write(true); }

bool BlurPattern::finished() const {
  return src_.done() &&
         vga_.frames().size() == static_cast<std::size_t>(cfg_.frames);
}

}  // namespace hwpat::designs
