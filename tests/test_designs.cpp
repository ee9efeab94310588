// End-to-end tests of the Table 3 designs: every pattern/custom pair
// must produce pixel-identical output (they implement the same
// function), and that output must match the software reference.  This
// is the functional backbone under the resource comparison of Table 3.
#include <gtest/gtest.h>

#include "designs/design.hpp"
#include "designs/saa2vga_shared.hpp"
#include "estimate/tech.hpp"
#include "rtl/simulator.hpp"
#include "video/frame.hpp"

namespace hwpat::designs {
namespace {

using rtl::Simulator;

constexpr std::uint64_t kMaxCycles = 2'000'000;

std::vector<video::Frame> run_design(VideoDesign& d) {
  Simulator sim(d);
  sim.reset();
  EXPECT_TRUE(sim.run([&] { return d.finished(); }, kMaxCycles).ok())
      << sim.progress_report();
  return d.sink().frames();
}

// --------------------------------------------------------- saa2vga

class Saa2VgaBindings
    : public ::testing::TestWithParam<devices::DeviceKind> {};

TEST_P(Saa2VgaBindings, PatternReproducesTheInputExactly) {
  Saa2VgaConfig cfg{.width = 24, .height = 18, .buffer_depth = 64,
                    .device = GetParam(), .frames = 2};
  auto d = make_saa2vga_pattern(cfg);
  const auto out = run_design(*d);
  const auto in = camera_frames(cfg.width, cfg.height, cfg.frames,
                                cfg.pattern_seed);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(out[i], in[i]) << "frame " << i;
}

TEST_P(Saa2VgaBindings, CustomReproducesTheInputExactly) {
  Saa2VgaConfig cfg{.width = 24, .height = 18, .buffer_depth = 64,
                    .device = GetParam(), .frames = 2};
  auto d = make_saa2vga_custom(cfg);
  const auto out = run_design(*d);
  const auto in = camera_frames(cfg.width, cfg.height, cfg.frames,
                                cfg.pattern_seed);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(out[i], in[i]) << "frame " << i;
}

TEST_P(Saa2VgaBindings, PatternAndCustomAreBitIdentical) {
  Saa2VgaConfig cfg{.width = 16, .height = 12, .buffer_depth = 32,
                    .device = GetParam(), .frames = 3,
                    .pattern_seed = 7};
  auto p = make_saa2vga_pattern(cfg);
  auto c = make_saa2vga_custom(cfg);
  EXPECT_EQ(run_design(*p), run_design(*c));
}

INSTANTIATE_TEST_SUITE_P(Devices, Saa2VgaBindings,
                         ::testing::Values(devices::DeviceKind::FifoCore,
                                           devices::DeviceKind::Sram));

TEST(Saa2Vga, RetargetIsAModelNoOp) {
  // §3.3: the FIFO->SRAM retarget must not change observable output.
  Saa2VgaConfig fifo_cfg{.width = 20, .height = 15, .buffer_depth = 32,
                         .device = devices::DeviceKind::FifoCore,
                         .frames = 1};
  Saa2VgaConfig sram_cfg = fifo_cfg;
  sram_cfg.device = devices::DeviceKind::Sram;
  auto f = make_saa2vga_pattern(fifo_cfg);
  auto s = make_saa2vga_pattern(sram_cfg);
  EXPECT_EQ(run_design(*f), run_design(*s));
}

TEST(Saa2Vga, CustomHasNoImplementationForOtherDevices) {
  Saa2VgaConfig cfg;
  cfg.device = devices::DeviceKind::LineBuffer3;
  EXPECT_THROW(make_saa2vga_custom(cfg), SpecError);
}

// ------------------------------------------------------------- blur

TEST(Blur, PatternMatchesReference) {
  BlurConfig cfg{.width = 20, .height = 16, .frames = 2};
  auto d = make_blur_pattern(cfg);
  const auto out = run_design(*d);
  const auto in = camera_frames(cfg.width, cfg.height, cfg.frames,
                                cfg.pattern_seed);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(out[i], video::blur_reference(in[i])) << "frame " << i;
}

TEST(Blur, PatternAndCustomAreBitIdentical) {
  BlurConfig cfg{.width = 18, .height = 14, .frames = 2,
                 .pattern_seed = 9};
  auto p = make_blur_pattern(cfg);
  auto c = make_blur_custom(cfg);
  EXPECT_EQ(run_design(*p), run_design(*c));
}

// ---------------------------------------------------- shared SRAM

class SharedPolicies
    : public ::testing::TestWithParam<devices::ArbPolicy> {};

TEST_P(SharedPolicies, SingleSharedSramStillPixelExact) {
  // Both buffers in one SRAM behind the generated arbiter: the model
  // is identical to the two-SRAM version; only the binding differs.
  Saa2VgaConfig cfg{.width = 16, .height = 12, .buffer_depth = 32,
                    .device = devices::DeviceKind::Sram, .frames = 2};
  auto d = make_saa2vga_shared(cfg, GetParam());
  const auto out = run_design(*d);
  const auto in = camera_frames(cfg.width, cfg.height, cfg.frames,
                                cfg.pattern_seed);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(out[i], in[i]) << "frame " << i;
}

INSTANTIATE_TEST_SUITE_P(Policies, SharedPolicies,
                         ::testing::Values(devices::ArbPolicy::RoundRobin,
                                           devices::ArbPolicy::FixedPriority));

TEST(SharedSram, ArbiterActuallyMultiplexes) {
  Saa2VgaConfig cfg{.width = 12, .height = 8, .buffer_depth = 32,
                    .device = devices::DeviceKind::Sram, .frames = 1};
  Saa2VgaPatternShared d(cfg);
  Simulator sim(d);
  sim.reset();
  ASSERT_TRUE(sim.run([&] { return d.finished(); }, kMaxCycles).ok())
      << sim.progress_report();
  const auto& g = d.arbiter().grant_counts();
  EXPECT_GT(g[0], 50u);  // rbuffer writes + fetches
  EXPECT_GT(g[1], 50u);  // wbuffer writes + fetches
}

TEST(SharedSram, SharingCostsThroughputButNoExtraMemory) {
  // The design-space trade: one SRAM instead of two, slower pipeline.
  Saa2VgaConfig cfg{.width = 16, .height = 12, .buffer_depth = 32,
                    .device = devices::DeviceKind::Sram, .frames = 1};
  auto two = make_saa2vga_pattern(cfg);
  auto one = make_saa2vga_shared(cfg);
  Simulator s2(*two), s1(*one);
  s2.reset();
  s1.reset();
  ASSERT_TRUE(s2.run([&] { return two->finished(); }, kMaxCycles).ok());
  ASSERT_TRUE(s1.run([&] { return one->finished(); }, kMaxCycles).ok());
  EXPECT_GT(s1.cycle(), s2.cycle());  // arbitration slows the pipe
  // Both stay BRAM-free (external memory either way).
  EXPECT_EQ(estimate::estimate(*one).bram, 0);
}

// ------------------------------------------------- resource shape

TEST(Table3Shape, PatternOverheadIsNegligible) {
  // The paper's headline: pattern vs custom within a couple of LUTs
  // and FFs on every row.
  const Saa2VgaConfig f{.width = 64, .height = 48, .buffer_depth = 512,
                        .device = devices::DeviceKind::FifoCore};
  Saa2VgaConfig s = f;
  s.device = devices::DeviceKind::Sram;
  const BlurConfig b{.width = 64, .height = 48};

  const auto rp1 = estimate::estimate(*make_saa2vga_pattern(f));
  const auto rc1 = estimate::estimate(*make_saa2vga_custom(f));
  const auto rp2 = estimate::estimate(*make_saa2vga_pattern(s));
  const auto rc2 = estimate::estimate(*make_saa2vga_custom(s));
  const auto rp3 = estimate::estimate(*make_blur_pattern(b));
  const auto rc3 = estimate::estimate(*make_blur_custom(b));

  const auto near = [](int a, int b2, int tol) {
    return std::abs(a - b2) <= tol;
  };
  EXPECT_TRUE(near(rp1.ff, rc1.ff, 4)) << rp1.ff << " vs " << rc1.ff;
  EXPECT_TRUE(near(rp1.lut, rc1.lut, 8)) << rp1.lut << " vs " << rc1.lut;
  EXPECT_EQ(rp1.bram, rc1.bram);
  EXPECT_TRUE(near(rp2.ff, rc2.ff, 8)) << rp2.ff << " vs " << rc2.ff;
  EXPECT_TRUE(near(rp2.lut, rc2.lut, 16)) << rp2.lut << " vs " << rc2.lut;
  EXPECT_EQ(rp2.bram, rc2.bram);
  EXPECT_TRUE(near(rp3.ff, rc3.ff, 8)) << rp3.ff << " vs " << rc3.ff;
  EXPECT_TRUE(near(rp3.lut, rc3.lut, 16)) << rp3.lut << " vs " << rc3.lut;
  EXPECT_EQ(rp3.bram, rc3.bram);
}

// The same claim, run: at the bench_stats_gate configurations
// (bench/baselines.json) a pattern design takes exactly the cycles of
// its custom twin and at most 0.1% more evaluations, because its
// containers and iterators are wiring, as their synthesized wrappers
// are.
TEST(Table3Shape, PatternDesignsDoTheCustomDesignsWork) {
  struct Work {
    std::uint64_t cycles, evals;
  };
  const auto work = [](VideoDesign& d) {
    Simulator sim(d);
    sim.reset();
    EXPECT_TRUE(sim.run([&] { return d.finished(); }, kMaxCycles).ok());
    return Work{sim.cycle(), sim.stats().evals};
  };
  const Saa2VgaConfig s{.width = 24, .height = 18, .buffer_depth = 64,
                        .frames = 2};
  const BlurConfig b{.width = 24, .height = 18, .frames = 2};
  const std::pair<const char*, std::pair<Work, Work>> rows[] = {
      {"saa2vga fifo", {work(*make_saa2vga_pattern(s)),
                        work(*make_saa2vga_custom(s))}},
      {"blur", {work(*make_blur_pattern(b)), work(*make_blur_custom(b))}},
  };
  for (const auto& [name, pc] : rows) {
    const auto& [pattern, custom] = pc;
    EXPECT_EQ(pattern.cycles, custom.cycles) << name;
    EXPECT_LE(pattern.evals * 1000, custom.evals * 1001)
        << name << ": pattern " << pattern.evals << " evaluations, custom "
        << custom.evals;
  }
}

TEST(Table3Shape, DesignSpacePointsOrderAsInThePaper) {
  // saa2vga 1 (FIFO): block RAM, faster clock.
  // saa2vga 2 (SRAM): no block RAM, smaller, slightly slower clock.
  const Saa2VgaConfig f{.width = 64, .height = 48, .buffer_depth = 512,
                        .device = devices::DeviceKind::FifoCore};
  Saa2VgaConfig s = f;
  s.device = devices::DeviceKind::Sram;
  const auto r1 = estimate::estimate(*make_saa2vga_pattern(f));
  const auto r2 = estimate::estimate(*make_saa2vga_pattern(s));
  EXPECT_GT(r1.bram, 0);
  EXPECT_EQ(r2.bram, 0);
  EXPECT_GT(r1.fmax_mhz, r2.fmax_mhz);
  // blur is by far the largest design.
  const auto r3 = estimate::estimate(*make_blur_pattern(BlurConfig{
      .width = 64, .height = 48}));
  EXPECT_GT(r3.lut, r1.lut);
  EXPECT_GT(r3.ff, r1.ff);
}

}  // namespace
}  // namespace hwpat::designs
