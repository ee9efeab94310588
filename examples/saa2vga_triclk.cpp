// saa2vga across three clock domains: camera/decoder on its own clock,
// the copy loop on the memory clock, the VGA coder on the pixel clock,
// chained through two async FIFOs (camera→memory and memory→pixel).
//
// The model is the same CopyFsm + iterator pair as the single-clock
// pattern design; only the buffer specs were rebound and the domains
// assigned — two clock-domain crossings back to back for free.  The
// default ratio 5:2:3 is pairwise coprime, so edges almost never
// align: the run prints the per-domain edge counts, the skipped
// on_clock() visits and the quiet settles, and dumps a time-correct VCD —
// with the memory clock at 100 MHz (period 2 ticks, 1 tick = 5 ns)
// the camera lands at 40 MHz and the pixel clock at 66.7 MHz.
#include <cstdio>

#include "designs/design.hpp"
#include "rtl/simulator.hpp"
#include "video/frame.hpp"

using namespace hwpat;

int main() {
  const designs::Saa2VgaTriClkConfig cfg{
      .width = 64, .height = 48, .cdc_depth = 16, .frames = 2};

  std::printf("camera -> decoder [cam] -> rbuffer(CDC) =it=> copy [mem] "
              "=it=> wbuffer(CDC) -> vga [pix]  (%dx%d, %lld:%lld:%lld)\n\n",
              cfg.width, cfg.height,
              static_cast<long long>(cfg.cam_period),
              static_cast<long long>(cfg.mem_period),
              static_cast<long long>(cfg.pix_period));

  auto d = designs::make_saa2vga_triclk(cfg);
  rtl::Simulator sim(*d, {.tick_ps = 5'000});  // 1 tick = 5 ns
  sim.open_vcd("saa2vga_triclk.vcd");
  sim.reset();
  if (!sim.run([&] { return d->finished(); }, 10'000'000))
    throw hwpat::Error("saa2vga_triclk: timeout (" + sim.progress_report() +
                       ")");

  std::printf("finished after %llu edge events (%llu ticks = %.1f us)\n",
              static_cast<unsigned long long>(sim.cycle()),
              static_cast<unsigned long long>(sim.now()),
              static_cast<double>(sim.now()) * 5e-3);
  for (std::size_t i = 0; i < sim.domain_count(); ++i) {
    const auto info = sim.domain_info(i);
    std::printf("  domain %-4s period %llu tick(s), %zu module(s), %llu "
                "edges\n",
                info.name.c_str(),
                static_cast<unsigned long long>(info.period), info.modules,
                static_cast<unsigned long long>(
                    sim.stats().domain_edges[i]));
  }
  std::printf("  activation lists skipped %llu on_clock() visits "
              "(%.1f/edge)\n",
              static_cast<unsigned long long>(sim.stats().act_skips),
              static_cast<double>(sim.stats().act_skips) /
                  static_cast<double>(sim.stats().edges));
  std::printf("  %llu of %llu settles were quiet (nothing to evaluate)\n",
              static_cast<unsigned long long>(sim.stats().partition_skips),
              static_cast<unsigned long long>(sim.stats().settles));

  const auto input = designs::camera_frames(cfg.width, cfg.height,
                                            cfg.frames, cfg.pattern_seed);
  const bool exact = d->sink().frames() == input;
  std::printf("\npixel-exact across both clock-domain crossings: %s\n",
              exact ? "yes" : "NO");
  std::printf("waveform: saa2vga_triclk.vcd (1 tick = 5 ns)\n");
  return exact ? 0 : 1;
}
