// Blur algorithm tests: the full §4 pipeline — pixels stream into a
// read buffer mapped over the special 3-line buffer, the BlurFsm
// consumes columns through an input iterator and emits filtered pixels
// through an output iterator into a write buffer — checked pixel-exact
// against the software model.
#include <gtest/gtest.h>

#include <random>

#include "core/blur.hpp"
#include "core/iterator.hpp"
#include "core/linebuf_container.hpp"
#include "core/model/model.hpp"
#include "core/stream_core.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat::core {
namespace {

using rtl::Module;
using rtl::Simulator;
using tb::FrameFeeder;
using tb::StreamDrainer;

struct BlurTb : Module {
  int width, height;
  Bit sof{*this, "sof"};
  StreamWires rb_w;  // pixel in, column out
  StreamWires wb_w;
  AlgoWires ctl;
  LineBufferContainer rbuf;
  CoreStreamContainer wbuf;
  StreamInputIterator it_in;
  StreamOutputIterator it_out;
  BlurFsm blur;
  FrameFeeder feeder;
  StreamDrainer drainer;

  BlurTb(int w, int h, std::vector<Word> pixels, std::uint64_t frames = 0)
      : Module(nullptr, "tb"),
        width(w),
        height(h),
        rb_w(*this, "rb", 8, 24, 16),
        wb_w(*this, "wb", 8, 16),
        ctl(*this, "ctl"),
        rbuf(this, "rbuffer",
             {.pixel_bits = 8, .line_width = w, .col_fifo_depth = 4},
             rb_w.impl(), sof),
        wbuf(this, "wbuffer",
             {.kind = ContainerKind::WriteBuffer, .elem_bits = 8,
              .depth = 512},
             wb_w.impl()),
        it_in(this, "rbuffer_it",
              {.traversal = Traversal::Forward, .role = IterRole::Input},
              ContainerKind::ReadBuffer, rb_w.consumer()),
        it_out(this, "wbuffer_it",
               {.traversal = Traversal::Forward, .role = IterRole::Output},
               ContainerKind::WriteBuffer, wb_w.producer()),
        blur(this, "blur",
             {.width = w, .height = h, .pixel_bits = 8, .frames = frames},
             it_in.client(), it_out.client(), ctl.control()),
        feeder(this, "feeder", rb_w.producer(), sof, std::move(pixels),
               static_cast<std::size_t>(w) * static_cast<std::size_t>(h)),
        drainer(this, "drainer", wb_w.consumer()) {}
};

std::vector<Word> random_image(int w, int h, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<Word> img(static_cast<std::size_t>(w) *
                        static_cast<std::size_t>(h));
  for (auto& p : img) p = rng() % 256;
  return img;
}

TEST(Blur, MatchesModelOnRandomImage) {
  constexpr int kW = 12, kH = 9;
  const auto img = random_image(kW, kH, 21);
  const auto expect = model::blur3x3(img, kW, kH, 8);
  BlurTb tb(kW, kH, img);
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == expect.size(); },
      20000);
  EXPECT_EQ(tb.drainer.got(), expect);
}

TEST(Blur, FlatImageStaysFlat) {
  constexpr int kW = 8, kH = 6;
  std::vector<Word> img(kW * kH, 100);
  BlurTb tb(kW, kH, img);
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  const std::size_t n = static_cast<std::size_t>((kW - 2) * (kH - 2));
  tb::step_until(sim, [&] { return tb.drainer.got().size() == n; }, 20000);
  for (Word p : tb.drainer.got()) EXPECT_EQ(p, 100u);
}

TEST(Blur, ImpulseSpreadsTheKernel) {
  // A single bright pixel must spread as the kernel [1 2 1;2 4 2;1 2 1].
  constexpr int kW = 7, kH = 7;
  std::vector<Word> img(kW * kH, 0);
  img[3 * kW + 3] = 160;  // centre
  const auto expect = model::blur3x3(img, kW, kH, 8);
  BlurTb tb(kW, kH, img);
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == expect.size(); },
      20000);
  EXPECT_EQ(tb.drainer.got(), expect);
  // Spot-check the exact kernel weights: 160/16 = 10.
  const int ow = kW - 2;
  EXPECT_EQ(tb.drainer.got()[static_cast<std::size_t>(2 * ow + 2)], 40u);
  EXPECT_EQ(tb.drainer.got()[static_cast<std::size_t>(1 * ow + 2)], 20u);
  EXPECT_EQ(tb.drainer.got()[static_cast<std::size_t>(1 * ow + 1)], 10u);
}

TEST(Blur, MultipleFramesBackToBack) {
  constexpr int kW = 6, kH = 5;
  auto f1 = random_image(kW, kH, 31);
  auto f2 = random_image(kW, kH, 32);
  auto e1 = model::blur3x3(f1, kW, kH, 8);
  auto e2 = model::blur3x3(f2, kW, kH, 8);
  std::vector<Word> pixels = f1;
  pixels.insert(pixels.end(), f2.begin(), f2.end());
  BlurTb tb(kW, kH, pixels, 2);
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  sim.step();
  tb.ctl.start.write(false);
  tb::step_until(sim,
                 [&] {
                   return tb.drainer.got().size() == e1.size() + e2.size();
                 },
                 50000);
  std::vector<Word> expect = e1;
  expect.insert(expect.end(), e2.begin(), e2.end());
  EXPECT_EQ(tb.drainer.got(), expect);
  tb::step_until(sim, [&] { return !tb.ctl.busy.read(); }, 1000);
}

TEST(Blur, KernelFunctionIsExact) {
  // kernel3x3 on a uniform window returns the input value.
  const Word col = 0x50 | (0x50 << 8) | (Word{0x50} << 16);
  EXPECT_EQ(BlurFsm::kernel3x3(col, col, col, 8), 0x50u);
  // Weighted centre: only centre pixel set -> 4/16 = 1/4.
  const Word centre_only = Word{0x80} << 8;  // row y-1 (the centre row)
  EXPECT_EQ(BlurFsm::kernel3x3(0, centre_only, 0, 8), 0x20u);
}

TEST(Blur, RejectsMismatchedIteratorWidths) {
  Module top(nullptr, "top");
  IterWires in_iw(top, "in", 16, 8);  // not 3*8
  IterWires out_iw(top, "out", 8, 8);
  AlgoWires ctl(top, "ctl");
  EXPECT_THROW(
      BlurFsm(&top, "blur", {.width = 8, .height = 8, .pixel_bits = 8},
              in_iw.client(), out_iw.client(), ctl.control()),
      SpecError);
}

}  // namespace
}  // namespace hwpat::core
