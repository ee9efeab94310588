// Property-style sweeps and failure-injection tests across the whole
// stack: parameterised geometry/latency/capacity sweeps on the pattern
// designs, protocol-violation injection on every interface layer, and
// invariants of the generated artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>

#include "core/algorithm.hpp"
#include "core/blur.hpp"
#include "designs/design.hpp"
#include "devices/async_fifo.hpp"
#include "estimate/tech.hpp"
#include "meta/codegen.hpp"
#include "meta/factory.hpp"
#include "rtl/clock.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"
#include "video/frame.hpp"

namespace hwpat {
namespace {

using rtl::Simulator;

// ------------------------------------------------------------------
// Blur geometry sweep: the algorithm must match the model for every
// frame shape, including degenerate minimum sizes.
// ------------------------------------------------------------------

class BlurGeometry
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BlurGeometry, MatchesReferenceAtEveryShape) {
  const auto [w, h] = GetParam();
  designs::BlurConfig cfg{.width = w, .height = h, .frames = 1,
                          .pattern_seed = 77};
  auto d = designs::make_blur_pattern(cfg);
  Simulator sim(*d);
  sim.reset();
  ASSERT_TRUE(sim.run([&] { return d->finished(); }, 5'000'000).ok())
      << sim.progress_report();
  const auto in = designs::camera_frames(w, h, 1, 77);
  ASSERT_EQ(d->sink().frames().size(), 1u);
  EXPECT_EQ(d->sink().frames().front(), video::blur_reference(in.front()))
      << w << "x" << h;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlurGeometry,
    ::testing::Values(std::pair{3, 3}, std::pair{4, 3}, std::pair{3, 4},
                      std::pair{5, 17}, std::pair{17, 5},
                      std::pair{32, 8}, std::pair{31, 9}));

// ------------------------------------------------------------------
// SRAM latency sweep: the pattern pipeline tolerates any memory speed.
// ------------------------------------------------------------------

class SramLatency : public ::testing::TestWithParam<int> {};

TEST_P(SramLatency, QueueSurvivesSlowMemories) {
  struct Tb : rtl::Module {
    core::StreamWires w;
    core::SramMasterWires mw;
    core::SramStreamContainer cont;
    devices::ExternalSram sram;
    tb::StreamFeeder feeder;
    tb::StreamDrainer drainer;
    Tb(int latency, std::vector<Word> data)
        : Module(nullptr, "tb"),
          w(*this, "q", 8, 16),
          mw(*this, "m", 8, 16),
          cont(this, "q0",
               {.kind = core::ContainerKind::Queue, .elem_bits = 8,
                .capacity = 8},
               w.impl(), mw.master()),
          sram(this, "sram",
               {.data_width = 8, .addr_width = 16, .latency = latency},
               mw.device()),
          feeder(this, "f", w.producer(), std::move(data)),
          drainer(this, "d", w.consumer()) {}
  };
  std::vector<Word> data(25);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = truncate(i * 7 + 1, 8);
  Tb tb(GetParam(), data);
  Simulator sim(tb);
  sim.reset();
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); },
      200000);
  EXPECT_EQ(tb.drainer.got(), data);
}

INSTANTIATE_TEST_SUITE_P(Latencies, SramLatency,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------------------------------
// Design-level geometry sweep: saa2vga transports any frame shape.
// ------------------------------------------------------------------

class Saa2VgaGeometry
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Saa2VgaGeometry, IdentityAtEveryShape) {
  const auto [w, h] = GetParam();
  designs::Saa2VgaConfig cfg{.width = w, .height = h,
                             .buffer_depth = 16,
                             .device = devices::DeviceKind::FifoCore,
                             .frames = 1};
  auto d = designs::make_saa2vga_pattern(cfg);
  Simulator sim(*d);
  sim.reset();
  ASSERT_TRUE(sim.run([&] { return d->finished(); }, 5'000'000).ok())
      << sim.progress_report();
  const auto in = designs::camera_frames(w, h, 1, cfg.pattern_seed);
  ASSERT_EQ(d->sink().frames().size(), 1u);
  EXPECT_EQ(d->sink().frames().front(), in.front());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Saa2VgaGeometry,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{1, 7},
                      std::pair{9, 7}, std::pair{64, 2}));

// ------------------------------------------------------------------
// Codegen invariants across ALL legal iterator specs.
// ------------------------------------------------------------------

struct IterSpecCase {
  core::ContainerKind kind;
  core::Traversal traversal;
  core::IterRole role;
};

class IteratorCodegenSweep
    : public ::testing::TestWithParam<IterSpecCase> {};

TEST_P(IteratorCodegenSweep, PortsMirrorTheOperationSet) {
  const auto& c = GetParam();
  meta::IteratorSpec is;
  is.container.name = core::to_string(c.kind);
  is.container.kind = c.kind;
  is.container.device = core::legal_devices(c.kind).front();
  is.container.elem_bits = 8;
  is.container.depth = 64;
  is.traversal = c.traversal;
  is.role = c.role;
  const auto unit = meta::generate_iterator(is);
  const auto ops = is.effective_ops();
  // Invariant: exactly the used operations appear as op_* ports.
  for (core::Op op : {core::Op::Inc, core::Op::Dec, core::Op::Read,
                      core::Op::Write, core::Op::Index}) {
    const auto* port = unit.entity.find_port("op_" + core::to_string(op));
    EXPECT_EQ(port != nullptr, ops.contains(op))
        << core::to_string(op) << " on " << core::to_string(c.kind);
  }
  // Invariant: data width follows the element type and the role.
  if (ops.contains(core::Op::Read)) {
    EXPECT_EQ(unit.entity.find_port("data")->type.width(), 8);
  }
  if (ops.contains(core::Op::Write)) {
    EXPECT_EQ(unit.entity.find_port("data_in")->type.width(), 8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LegalSpecs, IteratorCodegenSweep,
    ::testing::Values(
        IterSpecCase{core::ContainerKind::ReadBuffer,
                     core::Traversal::Forward, core::IterRole::Input},
        IterSpecCase{core::ContainerKind::WriteBuffer,
                     core::Traversal::Forward, core::IterRole::Output},
        IterSpecCase{core::ContainerKind::Queue, core::Traversal::Forward,
                     core::IterRole::Input},
        IterSpecCase{core::ContainerKind::Stack,
                     core::Traversal::Backward, core::IterRole::Input},
        IterSpecCase{core::ContainerKind::Stack, core::Traversal::Forward,
                     core::IterRole::Output},
        IterSpecCase{core::ContainerKind::Vector,
                     core::Traversal::Bidirectional,
                     core::IterRole::InputOutput},
        IterSpecCase{core::ContainerKind::Vector, core::Traversal::Random,
                     core::IterRole::InputOutput}));

// ------------------------------------------------------------------
// Failure injection
// ------------------------------------------------------------------

TEST(FailureInjection, UnthrottledSourceOverflowsStrictBuffer) {
  // A camera that ignores backpressure into a tiny buffer: the strict
  // container reports the overflow instead of silently dropping.
  struct Tb : rtl::Module {
    rtl::Bit sof{*this, "sof"};
    core::StreamWires w;
    core::CoreStreamContainer q;
    video::VideoSource src;
    Tb()
        : Module(nullptr, "tb"),
          w(*this, "q", 8, 16),
          q(this, "q0",
            {.kind = core::ContainerKind::Queue, .elem_bits = 8,
             .depth = 2},
            w.impl()),
          src(this, "cam",
              {.pixel_interval = 1, .respect_backpressure = false},
              w.producer(), sof, {video::gradient(8, 8)}) {}
  };
  Tb tb;
  Simulator sim(tb);
  sim.reset();
  EXPECT_THROW(sim.step(50), ProtocolError);
}

TEST(FailureInjection, WidthAdaptWriteWhileDrainingThrows) {
  struct Tb : rtl::Module {
    core::StreamWires w;
    std::unique_ptr<core::Container> q;
    std::unique_ptr<core::Iterator> it;
    Tb() : Module(nullptr, "tb"), w(*this, "q", 8, 16) {
      meta::ContainerSpec cs;
      cs.name = "q";
      cs.kind = core::ContainerKind::Queue;
      cs.device = devices::DeviceKind::FifoCore;
      cs.elem_bits = 24;
      cs.bus_bits = 8;
      cs.depth = 8;
      q = meta::build_stream_container(
          this, cs, meta::StreamBuildPorts{.method = w.impl()});
      it = meta::build_output_iterator(
          this,
          {.name = "wit", .traversal = core::Traversal::Forward,
           .role = core::IterRole::Output, .used_ops = {},
           .container = cs},
          w.producer());
    }
  };
  Tb tb;
  Simulator sim(tb);
  sim.reset();
  const core::IterClient c = tb.it->client();
  c.write.write(true);
  c.wdata.write(0xABCDEF);
  sim.step();
  // Still draining lanes: a second write is a protocol violation.
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(FailureInjection, BlurNeverStartedStaysQuiet) {
  // No start strobe: the algorithm must not touch its iterators.
  designs::BlurConfig cfg{.width = 8, .height = 6, .frames = 1};
  struct Quiet : rtl::Module {
    core::IterWires in_iw, out_iw;
    core::AlgoWires ctl;
    core::BlurFsm blur;
    explicit Quiet(const designs::BlurConfig& c)
        : Module(nullptr, "tb"),
          in_iw(*this, "in", 24, 16),
          out_iw(*this, "out", 8, 16),
          ctl(*this, "ctl"),
          blur(this, "blur",
               {.width = c.width, .height = c.height, .pixel_bits = 8,
                .frames = static_cast<std::uint64_t>(c.frames)},
               in_iw.client(), out_iw.client(), ctl.control()) {}
  };
  Quiet tb(cfg);
  Simulator sim(tb);
  sim.reset();
  sim.step(20);
  EXPECT_FALSE(tb.in_iw.inc.read());
  EXPECT_FALSE(tb.out_iw.write.read());
  EXPECT_FALSE(tb.ctl.busy.read());
}

TEST(FailureInjection, GeneratorRejectsNonsenseSpecs) {
  meta::ContainerSpec s;
  s.name = "x";
  s.kind = core::ContainerKind::Vector;
  s.device = devices::DeviceKind::LineBuffer3;  // illegal binding
  EXPECT_THROW(meta::generate_container(s), SpecError);

  meta::ContainerSpec ok;
  ok.name = "";
  EXPECT_THROW(meta::validate(ok), SpecError);  // empty name

  meta::ContainerSpec deep;
  deep.name = "d";
  deep.kind = core::ContainerKind::Queue;
  deep.device = devices::DeviceKind::FifoCore;
  deep.depth = 0;  // no storage
  EXPECT_THROW(meta::validate(deep), SpecError);
}

// ------------------------------------------------------------------
// Async-FIFO flag invariants under random push/pop pressure
//
// The dual-clock FIFO's full/empty flags are *conservative* (each side
// sees the other's pointer through a 2-flop synchronizer), and that
// conservatism is exactly what makes a CDC transfer safe.  The
// properties, checked against the model occupancy (AsyncFifo::size(),
// the testbench-only wbin-rbin ground truth) at every settled instant
// of a randomized run:
//
//   * never-overflow:  0 <= size <= depth, always;
//   * safe push:   !full  =>  size <  depth (>= 1 slot of margin, so a
//                  push decided on the flag can never overflow);
//   * safe pop:    !empty =>  size >= 1 (a pop decided on the flag can
//                  never underflow);
//   * losslessness: the popped sequence is exactly the pushed sequence
//                  (strict mode doubles as the overflow/underflow trap:
//                  a lying flag would raise ProtocolError).
//
// Swept over all four PR-3 clock ratios with seeded random pressure
// patterns on both sides.
// ------------------------------------------------------------------

/// Producer/consumer around one AsyncFifo, throttled by pre-drawn
/// random patterns so construction is deterministic per seed.
struct RandomCdcTb : rtl::Module {
  rtl::ClockDomain wr_dom, rd_dom;
  rtl::Bit wr_en{*this, "wr_en"}, rd_en{*this, "rd_en"};
  rtl::Bit full{*this, "full"}, empty{*this, "empty"};
  rtl::Bus wr_data{*this, "wr_data", 8}, rd_data{*this, "rd_data", 8};
  devices::AsyncFifo fifo;

  struct Producer : rtl::Module {
    RandomCdcTb& tb;
    std::vector<bool> pattern;
    std::size_t t = 0;
    std::vector<Word> pushed;
    Producer(RandomCdcTb* parent, std::vector<bool> pat)
        : Module(parent, "producer"), tb(*parent), pattern(std::move(pat)) {}
    void eval_comb() override {
      const bool want = t < pattern.size() && pattern[t];
      tb.wr_en.write(want && !tb.full.read());
      tb.wr_data.write(truncate(0x11 * (pushed.size() + 1), 8));
    }
    void on_clock() override {
      ++t;
      if (tb.wr_en.read()) pushed.push_back(tb.wr_data.read());
      seq_touch();
    }
    void on_reset() override {
      t = 0;
      pushed.clear();
    }
    void declare_state() override { declare_seq_state(); }
  } producer;

  struct Consumer : rtl::Module {
    RandomCdcTb& tb;
    std::vector<bool> pattern;
    std::size_t t = 0;
    std::vector<Word> popped;
    Consumer(RandomCdcTb* parent, std::vector<bool> pat)
        : Module(parent, "consumer"), tb(*parent), pattern(std::move(pat)) {}
    void eval_comb() override {
      const bool want = t < pattern.size() && pattern[t];
      tb.rd_en.write(want && !tb.empty.read());
    }
    void on_clock() override {
      ++t;
      if (tb.rd_en.read()) popped.push_back(tb.rd_data.read());
      seq_touch();
    }
    void on_reset() override {
      t = 0;
      popped.clear();
    }
    void declare_state() override { declare_seq_state(); }
  } consumer;

  RandomCdcTb(std::int64_t wr_period, std::int64_t rd_period, int depth,
              unsigned seed, double push_density, double pop_density)
      : Module(nullptr, "rand_cdc_tb"),
        wr_dom("wr", wr_period),
        rd_dom("rd", rd_period),
        fifo(this, "fifo", {.width = 8, .depth = depth},
             devices::AsyncFifoPorts{wr_en, wr_data, full, rd_en, rd_data,
                                     empty},
             &wr_dom, &rd_dom),
        producer(this, draw(seed, push_density)),
        consumer(this, draw(seed + 0x9e3779b9u, pop_density)) {
    set_clock_domain(&rd_dom);
    producer.set_clock_domain(&wr_dom);
    consumer.set_clock_domain(&rd_dom);
  }
  void declare_state() override { declare_seq_state(); }

  static std::vector<bool> draw(unsigned seed, double density) {
    std::mt19937 rng(seed);
    std::bernoulli_distribution bit(density);
    std::vector<bool> p(4000);
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = bit(rng);
    return p;
  }
};

class AsyncFifoFlagInvariants
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AsyncFifoFlagInvariants, ConservativeUnderRandomPressure) {
  const auto [wr_period, rd_period] = GetParam();
  // Three pressure profiles per ratio: balanced, writer-heavy (tests
  // the full flag) and reader-heavy (tests the empty flag).
  const struct {
    unsigned seed;
    double push, pop;
  } profiles[] = {{11, 0.5, 0.5}, {22, 0.95, 0.25}, {33, 0.25, 0.95}};
  for (const auto& pr : profiles) {
    RandomCdcTb tb(wr_period, rd_period, 8, pr.seed, pr.push, pr.pop);
    Simulator sim(tb);
    sim.reset();
    const std::string label = std::to_string(wr_period) + ":" +
                              std::to_string(rd_period) + " seed " +
                              std::to_string(pr.seed);
    for (int step = 0; step < 3000; ++step) {
      sim.step();  // strict mode: a lying flag throws ProtocolError here
      const int size = tb.fifo.size();
      const int depth = tb.fifo.config().depth;
      ASSERT_GE(size, 0) << label << " step " << step << ": underflow";
      ASSERT_LE(size, depth) << label << " step " << step << ": overflow";
      if (!tb.full.read()) {
        ASSERT_LT(size, depth)
            << label << " step " << step
            << ": full deasserted without a slot of margin";
      }
      if (!tb.empty.read()) {
        ASSERT_GE(size, 1)
            << label << " step " << step
            << ": empty deasserted with nothing to pop";
      }
    }
    // Lossless, in order, no duplication — and the run moved real data.
    ASSERT_GT(tb.consumer.popped.size(), 100u) << label;
    // A duplicating FIFO would pop more than was pushed: catch that as
    // a clean failure, not an out-of-range iterator below.
    ASSERT_LE(tb.consumer.popped.size(), tb.producer.pushed.size())
        << label;
    const std::vector<Word> expect(
        tb.producer.pushed.begin(),
        tb.producer.pushed.begin() +
            static_cast<std::ptrdiff_t>(tb.consumer.popped.size()));
    EXPECT_EQ(tb.consumer.popped, expect) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClockRatios, AsyncFifoFlagInvariants,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 3}, std::pair{3, 1},
                      std::pair{3, 7}));

// ------------------------------------------------------------------
// Estimator invariants over real designs
// ------------------------------------------------------------------

TEST(EstimatorProperties, DeeperBuffersNeverShrinkResources) {
  int last_ff = 0, last_bram = 0;
  for (int depth : {64, 256, 1024, 4096}) {
    designs::Saa2VgaConfig cfg{.width = 32, .height = 24,
                               .buffer_depth = depth,
                               .device = devices::DeviceKind::FifoCore};
    const auto r = estimate::estimate(*designs::make_saa2vga_pattern(cfg));
    EXPECT_GE(r.ff, last_ff) << depth;
    EXPECT_GE(r.bram, last_bram) << depth;
    last_ff = r.ff;
    last_bram = r.bram;
  }
}

TEST(EstimatorProperties, PatternCustomDeltaIsStableAcrossDepths) {
  // The +1 FF overhead must not scale with design size.
  for (int depth : {64, 512, 2048}) {
    designs::Saa2VgaConfig cfg{.width = 32, .height = 24,
                               .buffer_depth = depth,
                               .device = devices::DeviceKind::FifoCore};
    const auto p = estimate::estimate(*designs::make_saa2vga_pattern(cfg));
    const auto c = estimate::estimate(*designs::make_saa2vga_custom(cfg));
    EXPECT_LE(std::abs(p.ff - c.ff), 2) << depth;
    EXPECT_LE(std::abs(p.lut - c.lut), 4) << depth;
  }
}

// ------------------------------------------------------------------
// Waveform smoke test over a full design
// ------------------------------------------------------------------

TEST(Waveform, FullDesignDumpsVcd) {
  designs::Saa2VgaConfig cfg{.width = 8, .height = 6, .buffer_depth = 16,
                             .device = devices::DeviceKind::FifoCore,
                             .frames = 1};
  auto d = designs::make_saa2vga_pattern(cfg);
  const std::string path = "test_properties_design.vcd";
  {
    Simulator sim(*d);
    sim.open_vcd(path);
    sim.reset();
    ASSERT_TRUE(sim.run([&] { return d->finished(); }, 100000).ok())
        << sim.progress_report();
  }  // destroying the simulator flushes and closes the VCD stream
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("$scope module saa2vga_pattern"), std::string::npos);
  EXPECT_NE(all.find("$scope module rbuffer"), std::string::npos);
  EXPECT_NE(all.find("$scope module copy"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hwpat
