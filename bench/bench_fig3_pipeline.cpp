// Regenerates the behaviour behind Figures 1 and 3 of the paper: the
// video pipeline, modelled with the Iterator pattern, run cycle-
// accurately over both device bindings and compared against the ad hoc
// implementations.  The blur design (row 3 of Table 3) runs the same
// comparison over its 3-line buffer.
//
// Printed per design: pixel-exactness of the output (copy must be an
// identity, blur must equal video::blur_reference), cycles per frame,
// the pattern-vs-custom cycle overhead — the dynamic counterpart of
// Table 3's claim that pattern machinery costs nothing — and the
// simulator's work per step (module evaluations and delta cycles), so
// the same comparison covers simulated work: with the iterators
// dissolved, a pattern design evaluates about what its custom twin does.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/text.hpp"
#include "designs/design.hpp"
#include "rtl/simulator.hpp"
#include "video/frame.hpp"

namespace {

using namespace hwpat;
using designs::Saa2VgaConfig;
using designs::VideoDesign;

struct RunResult {
  bool exact = false;
  std::uint64_t cycles = 0;
  double cycles_per_pixel = 0.0;
  double evals_per_step = 0.0;
  double deltas_per_step = 0.0;
};

RunResult run(VideoDesign& d, const std::vector<video::Frame>& expect) {
  rtl::Simulator sim(d);
  sim.reset();
  RunResult r;
  r.cycles = 0;
  if (!sim.run([&] { return d.finished(); }, 50'000'000))
    throw Error("bench_fig3_pipeline: timeout (" + sim.progress_report() +
                ")");
  r.cycles = sim.cycle();
  r.exact = d.sink().frames() == expect;
  std::size_t pixels = 0;
  for (const auto& f : expect) pixels += f.pixel_count();
  r.cycles_per_pixel =
      static_cast<double>(r.cycles) / static_cast<double>(pixels);
  const auto steps = static_cast<double>(sim.stats().steps);
  r.evals_per_step = static_cast<double>(sim.stats().evals) / steps;
  r.deltas_per_step = static_cast<double>(sim.stats().deltas) / steps;
  return r;
}

/// Runs the pattern and custom builds of one design on the same input,
/// adds both rows to `t`, and returns the pattern/custom cycle ratio
/// (1.0 = no overhead).  `all_exact` drops to false on any mismatch.
double compare(TextTable& t, const char* design, const char* binding,
               VideoDesign& pattern, VideoDesign& custom,
               const std::vector<video::Frame>& expect, bool& all_exact) {
  const RunResult rp = run(pattern, expect);
  const RunResult rc = run(custom, expect);
  const std::pair<const char*, RunResult> rows[] = {{"pattern", rp},
                                                    {"custom", rc}};
  const auto fixed2 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return std::string(buf);
  };
  for (const auto& [kind, r] : rows) {
    t.row({std::string(design) + " " + kind, binding,
           r.exact ? "yes" : "NO", std::to_string(r.cycles),
           fixed2(r.cycles_per_pixel), fixed2(r.evals_per_step),
           fixed2(r.deltas_per_step)});
  }
  all_exact = all_exact && rp.exact && rc.exact;
  return rp.cycles_per_pixel / rc.cycles_per_pixel;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace = benchutil::take_trace_flag_or_exit(argc, argv);
  constexpr int kW = 64, kH = 48, kFrames = 3;
  std::printf("Fig. 1/3 pipeline: decoder -> rbuffer =it=> copy =it=> "
              "wbuffer -> vga  (%dx%d, %d frames)\n\n",
              kW, kH, kFrames);

  const auto input = designs::camera_frames(kW, kH, kFrames, 1);
  std::vector<video::Frame> blurred;
  for (const auto& f : input) blurred.push_back(video::blur_reference(f));

  TextTable t;
  t.header({"Design", "binding", "pixel-exact", "cycles", "cyc/pixel",
            "evals/step", "deltas/step"});

  bool all_exact = true;
  const auto saa2vga = [&](devices::DeviceKind device, const char* binding) {
    const Saa2VgaConfig cfg{.width = kW, .height = kH,
                            .buffer_depth = 128, .device = device,
                            .frames = kFrames};
    return compare(t, "saa2vga", binding,
                   *designs::make_saa2vga_pattern(cfg),
                   *designs::make_saa2vga_custom(cfg), input, all_exact);
  };
  const double ratio_fifo = saa2vga(devices::DeviceKind::FifoCore, "fifo");
  const double ratio_sram = saa2vga(devices::DeviceKind::Sram, "sram");
  const designs::BlurConfig bcfg{.width = kW, .height = kH,
                                 .frames = kFrames};
  const double ratio_blur =
      compare(t, "blur", "linebuf", *designs::make_blur_pattern(bcfg),
              *designs::make_blur_custom(bcfg), blurred, all_exact);
  std::printf("%s\n", t.str().c_str());

  std::printf("observations:\n");
  std::printf("  * FIFO binding streams at ~1 cycle/pixel; the SRAM "
              "binding is bound by the 2-cycle memory handshake —\n"
              "    \"performance will depend on memory access times\" "
              "(§4).\n");
  std::printf("  * pattern vs custom cycle ratio: fifo %.3f, sram %.3f, "
              "blur %.3f (1.0 = no overhead).\n",
              ratio_fifo, ratio_sram, ratio_blur);
  std::printf("  * §3.3: retargeting FIFO->SRAM changed no model code — "
              "only the binding in the spec.\n");

  const bool ok = all_exact && ratio_fifo < 1.1 && ratio_blur < 1.1;
  std::printf("\nshape check: %s\n", ok ? "PASS" : "FAIL");
  if (!trace.empty()) {
    auto d = designs::make_saa2vga_pattern({.width = kW, .height = kH,
                                            .buffer_depth = 128,
                                            .frames = 1});
    const int rc = benchutil::run_traced(*d, {}, 10'000, trace);
    if (rc != 0) return rc;
  }
  return ok ? 0 : 1;
}
