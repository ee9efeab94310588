// Regenerates the §3.3 pixel-format scenario: changing 8-bit grayscale
// pixels into 24-bit RGB over device buses of different widths.  For a
// 24-bit bus only the element type changes; for an 8-bit bus the
// generator emits width-adapting iterators performing 3 consecutive
// accesses per pixel.  The bench sweeps element/bus width combinations
// and reports accesses per element, measured throughput, and the
// resource cost of the adaptation machinery (the one iterator that
// does NOT dissolve).
#include <cstdio>

#include "bench_util.hpp"
#include "common/text.hpp"
#include "core/algorithm.hpp"
#include "estimate/tech.hpp"
#include "meta/factory.hpp"
#include "rtl/simulator.hpp"

namespace {

using namespace hwpat;

/// rbuffer -> copy -> wbuffer with spec-driven iterators, elem over bus.
struct PipeTb : rtl::Module {
  core::StreamWires rb_w, wb_w;
  core::AlgoWires ctl;
  std::unique_ptr<core::Container> rbuf, wbuf;
  std::unique_ptr<core::Iterator> it_in, it_out;
  std::unique_ptr<core::CopyFsm> copy;
  std::size_t fed = 0, drained = 0, total;
  int lanes;  ///< bus transfers per element

  PipeTb(int elem_bits, int bus_bits, std::size_t n)
      : Module(nullptr, "tb"),
        rb_w(*this, "rb", bus_bits, 16),
        wb_w(*this, "wb", bus_bits, 16),
        ctl(*this, "ctl"),
        total(n),
        lanes(ceil_div(elem_bits, bus_bits)) {
    meta::ContainerSpec rb{.name = "rbuffer",
                           .kind = core::ContainerKind::ReadBuffer,
                           .device = devices::DeviceKind::FifoCore,
                           .elem_bits = elem_bits,
                           .depth = 64,
                           .bus_bits = bus_bits,
                           .addr_bits = 16,
                           .base_addr = 0,
                           .used_methods = {},
                           .shared_device = false};
    meta::ContainerSpec wb = rb;
    wb.name = "wbuffer";
    wb.kind = core::ContainerKind::WriteBuffer;
    rbuf = meta::build_stream_container(
        this, rb, meta::StreamBuildPorts{.method = rb_w.impl()});
    wbuf = meta::build_stream_container(
        this, wb, meta::StreamBuildPorts{.method = wb_w.impl()});
    it_in = meta::build_input_iterator(
        this,
        {.name = "rit", .traversal = core::Traversal::Forward,
         .role = core::IterRole::Input, .used_ops = {}, .container = rb},
        rb_w.consumer());
    it_out = meta::build_output_iterator(
        this,
        {.name = "wit", .traversal = core::Traversal::Forward,
         .role = core::IterRole::Output, .used_ops = {}, .container = wb},
        wb_w.producer());
    copy = std::make_unique<core::CopyFsm>(this, "copy",
                                           core::CopyFsm::Config{},
                                           it_in->client(), it_out->client(),
                                           ctl.control());
  }

  void eval_comb() override {
    ctl.start.write(true);
    // Feed lanes (the decoder side) and drain lanes (the display side).
    const std::size_t lane_total = total * static_cast<std::size_t>(lanes);
    rb_w.push.write(fed < lane_total && rb_w.can_push.read());
    rb_w.push_data.write(static_cast<Word>(fed * 37 + 11));
    wb_w.pop.write(wb_w.can_pop.read());
  }

  void on_clock() override {
    const std::size_t lane_total = total * static_cast<std::size_t>(lanes);
    if (fed < lane_total && rb_w.can_push.read()) ++fed;
    if (wb_w.can_pop.read()) ++drained;
  }

  [[nodiscard]] bool finished() const {
    return drained >= total * static_cast<std::size_t>(lanes);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::string trace = benchutil::take_trace_flag_or_exit(argc, argv);
  std::printf("§3.3 width adaptation sweep: element width over device "
              "bus width\n\n");
  TextTable t;
  t.header({"element", "bus", "accesses/elem", "cycles/elem",
            "iter FF", "iter LUT", "note"});

  constexpr std::size_t kN = 256;
  struct Case {
    int elem, bus;
    const char* note;
  };
  const Case cases[] = {
      {8, 8, "grayscale baseline"},
      {16, 16, "16-bit 1:1"},
      {24, 24, "RGB over 24-bit bus (regenerate only)"},
      {24, 8, "RGB over 8-bit bus (3 accesses, the paper's case)"},
      {24, 12, "RGB over 12-bit bus"},
      {32, 8, "RGBA over 8-bit bus"},
      {48, 16, "deep-colour over 16-bit bus"},
  };

  bool ok = true;
  for (const Case& c : cases) {
    PipeTb tb(c.elem, c.bus, kN);
    rtl::Simulator sim(tb);
    sim.reset();
    if (!sim.run([&] { return tb.finished(); }, 10'000'000))
      throw Error("bench_width_adaptation: timeout (" +
                  sim.progress_report() + ")");
    const double cpe =
        static_cast<double>(sim.cycle()) / static_cast<double>(kN);
    rtl::PrimitiveTally ti, to;
    tb.it_in->report(ti);
    tb.it_out->report(to);
    const auto ri = estimate::fold(ti, false);
    const auto ro = estimate::fold(to, false);
    const int k = ceil_div(c.elem, c.bus);
    char cpe_s[32];
    std::snprintf(cpe_s, sizeof cpe_s, "%.2f", cpe);
    t.row({std::to_string(c.elem), std::to_string(c.bus),
           std::to_string(k), cpe_s, std::to_string(ri.ff + ro.ff),
           std::to_string(ri.lut + ro.lut), c.note});
    // Shape: throughput scales with the access count; 1:1 bindings
    // keep the dissolved-wrapper property (zero iterator resources).
    if (k == 1) ok = ok && ri.ff == 0 && ro.ff == 0 && cpe < 2.5;
    if (k > 1) ok = ok && cpe >= k && ri.ff > 0;
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("shape check: %s — 1:1 iterators dissolve (0 FF); width-"
              "adapted iterators cost an assembly register and run at "
              ">= k cycles/element\n",
              ok ? "PASS" : "FAIL");
  if (!trace.empty()) {
    PipeTb tb(24, 8, kN);
    const int rc = benchutil::run_traced(tb, {}, 2'000, trace);
    if (rc != 0) return rc;
  }
  return ok ? 0 : 1;
}
