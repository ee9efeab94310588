// Stream-container tests: queue / read buffer / write buffer / stack
// over FIFO/LIFO cores and over external SRAM, all checked against the
// software golden models — the same data must come out of every
// binding, which is precisely the paper's retargeting claim.
#include <gtest/gtest.h>

#include <random>

#include "core/model/model.hpp"
#include "core/stream_core.hpp"
#include "core/stream_sram.hpp"
#include "devices/sram.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat::core {
namespace {

using rtl::Module;
using rtl::Simulator;
using tb::StreamDrainer;
using tb::StreamFeeder;

std::vector<Word> random_words(std::size_t n, int bits, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Word> v(n);
  for (auto& x : v) x = truncate(rng(), bits);
  return v;
}

// --------------------------------------------------------- core-backed

struct CoreStreamTb : Module {
  StreamWires w;
  CoreStreamContainer cont;
  StreamFeeder feeder;
  StreamDrainer drainer;

  CoreStreamTb(CoreStreamContainer::Config cfg, std::vector<Word> data,
               std::size_t drain_limit = SIZE_MAX)
      : Module(nullptr, "tb"),
        w(*this, "s", cfg.elem_bits, 16),
        cont(this, "cont", cfg, w.impl()),
        feeder(this, "feeder", w.producer(), std::move(data)),
        drainer(this, "drainer", w.consumer(), drain_limit) {}
};

TEST(CoreStream, QueuePassesDataInOrder) {
  const auto data = random_words(50, 8, 1);
  CoreStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = 8,
                   .depth = 16},
                  data);
  Simulator sim(tb);
  sim.reset();
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 5000);
  EXPECT_EQ(tb.drainer.got(), data);
}

TEST(CoreStream, StackReversesOrderWhenDrainedAfterFill) {
  // Fill completely, then drain: LIFO order.
  std::vector<Word> data{1, 2, 3, 4, 5};
  CoreStreamTb tb({.kind = ContainerKind::Stack, .elem_bits = 8,
                   .depth = 5},
                  data, 0);  // drain_limit 0: drainer does nothing yet
  Simulator sim(tb);
  sim.reset();
  tb::step_until(sim, [&] { return tb.cont.config().depth ==
                                   static_cast<int>(tb.w.size.read()); },
                 1000);
  // Now drain manually.
  std::vector<Word> got;
  while (!tb.w.empty.read()) {
    got.push_back(tb.w.front.read());
    tb.w.pop.write(true);
    sim.step();
    tb.w.pop.write(false);
    sim.settle();
  }
  EXPECT_EQ(got, (std::vector<Word>{5, 4, 3, 2, 1}));
}

TEST(CoreStream, WrapperReportsNothingItself) {
  CoreStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = 8,
                   .depth = 16},
                  {});
  rtl::PrimitiveTally t;
  tb.cont.report(t);  // the container itself: dissolved wrapper
  EXPECT_TRUE(t.empty());
  // ... but the whole subtree contains the FIFO core's storage
  // (distributed RAM at this shallow depth).
  rtl::PrimitiveTally sub;
  tb.cont.visit([&](const Module& m) { m.report(sub); });
  EXPECT_GT(sub.dist_ram_bits + sub.bram, 0);
}

TEST(CoreStream, AllStreamKindsConstructOverTheirCores) {
  Module top(nullptr, "top");
  StreamWires wq(top, "q", 8, 16), ws(top, "s", 8, 16),
      wr(top, "r", 8, 16), ww(top, "w", 8, 16);
  EXPECT_NO_THROW(CoreStreamContainer(
      &top, "q0", {.kind = ContainerKind::Queue, .elem_bits = 8,
                   .depth = 4},
      wq.impl()));
  EXPECT_NO_THROW(CoreStreamContainer(
      &top, "s0", {.kind = ContainerKind::Stack, .elem_bits = 8,
                   .depth = 4},
      ws.impl()));
  EXPECT_NO_THROW(CoreStreamContainer(
      &top, "r0", {.kind = ContainerKind::ReadBuffer, .elem_bits = 8,
                   .depth = 4},
      wr.impl()));
  EXPECT_NO_THROW(CoreStreamContainer(
      &top, "w0", {.kind = ContainerKind::WriteBuffer, .elem_bits = 8,
                   .depth = 4},
      ww.impl()));
}

// --------------------------------------------------------- SRAM-backed

struct SramStreamTb : Module {
  StreamWires w;
  SramMasterWires mw;
  SramStreamContainer cont;
  devices::ExternalSram sram;
  StreamFeeder feeder;
  StreamDrainer drainer;

  SramStreamTb(SramStreamContainer::Config cfg, std::vector<Word> data,
               std::size_t drain_limit = SIZE_MAX, int latency = 1)
      : Module(nullptr, "tb"),
        w(*this, "s", cfg.elem_bits, 16),
        mw(*this, "m", cfg.elem_bits, 16),
        cont(this, "cont", cfg, w.impl(), mw.master()),
        sram(this, "sram",
             devices::SramConfig{.data_width = cfg.elem_bits,
                                 .addr_width = 16,
                                 .latency = latency},
             mw.device()),
        feeder(this, "feeder", w.producer(), std::move(data)),
        drainer(this, "drainer", w.consumer(), drain_limit) {}
};

TEST(SramStream, QueuePassesDataInOrder) {
  const auto data = random_words(40, 8, 2);
  SramStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = 8,
                   .capacity = 8, .base_addr = 0x100},
                  data);
  Simulator sim(tb);
  sim.reset();
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 20000);
  EXPECT_EQ(tb.drainer.got(), data);
}

TEST(SramStream, WorksAcrossSramLatencies) {
  for (int latency : {1, 2, 4}) {
    const auto data = random_words(20, 8, 3);
    SramStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = 8,
                     .capacity = 4},
                    data, SIZE_MAX, latency);
    Simulator sim(tb);
    sim.reset();
    tb::step_until(
        sim, [&] { return tb.drainer.got().size() == data.size(); },
        40000);
    EXPECT_EQ(tb.drainer.got(), data) << "latency " << latency;
  }
}

TEST(SramStream, StackDrainsInReverse) {
  SramStreamTb tb({.kind = ContainerKind::Stack, .elem_bits = 8,
                   .capacity = 8},
                  {10, 20, 30, 40}, 0);
  Simulator sim(tb);
  sim.reset();
  tb::step_until(sim, [&] { return tb.w.size.read() == 4; }, 2000);
  std::vector<Word> got;
  while (got.size() < 4) {
    if (tb.w.can_pop.read()) {
      got.push_back(tb.w.front.read());
      tb.w.pop.write(true);
      sim.step();
      tb.w.pop.write(false);
    } else {
      sim.step();
    }
  }
  EXPECT_EQ(got, (std::vector<Word>{40, 30, 20, 10}));
}

TEST(SramStream, CircularBufferWrapsManyTimes) {
  // 100 elements through a capacity-4 circular buffer: the begin/end
  // pointers wrap repeatedly over the SRAM region.
  const auto data = random_words(100, 8, 4);
  SramStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = 8,
                   .capacity = 4},
                  data);
  Simulator sim(tb);
  sim.reset();
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 50000);
  EXPECT_EQ(tb.drainer.got(), data);
}

TEST(SramStream, UsesOnlyItsAddressRegion) {
  const auto data = random_words(16, 8, 5);
  SramStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = 8,
                   .capacity = 8, .base_addr = 0x40},
                  data);
  Simulator sim(tb);
  sim.reset();
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 20000);
  const std::vector<Word> mem = tb.sram.mem();
  for (std::size_t a = 0; a < mem.size(); ++a) {
    if (a < 0x40 || a >= 0x48) {
      EXPECT_EQ(mem[a], 0u) << "stray write at 0x" << std::hex << a;
    }
  }
}

TEST(SramStream, PopWhileNotReadyThrowsStrict) {
  SramStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = 8,
                   .capacity = 4},
                  {}, 0);
  Simulator sim(tb);
  sim.reset();
  tb.w.pop.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(SramStream, ReportsTheLittleFsmAndPointers) {
  SramStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = 8,
                   .capacity = 1024},
                  {});
  rtl::PrimitiveTally t;
  tb.cont.report(t);
  EXPECT_GT(t.reg_bits, 20);  // begin/end pointers + front cache + FSM
  EXPECT_EQ(t.bram, 0);       // storage is off-chip
}

// --------------------------------------------- cross-binding agreement

TEST(CrossBinding, FifoAndSramQueuesAgreeWithModel) {
  const auto data = random_words(60, 8, 6);

  model::BoundedQueue<Word> mq(1024);
  std::vector<Word> expect;
  for (Word v : data) mq.push(v);
  while (!mq.empty()) expect.push_back(mq.pop());

  CoreStreamTb tb1({.kind = ContainerKind::Queue, .elem_bits = 8,
                    .depth = 64},
                   data);
  Simulator s1(tb1);
  s1.reset();
  tb::step_until(
      s1, [&] { return tb1.drainer.got().size() == data.size(); }, 10000);

  SramStreamTb tb2({.kind = ContainerKind::Queue, .elem_bits = 8,
                    .capacity = 64},
                   data);
  Simulator s2(tb2);
  s2.reset();
  tb::step_until(
      s2, [&] { return tb2.drainer.got().size() == data.size(); }, 50000);

  EXPECT_EQ(tb1.drainer.got(), expect);
  EXPECT_EQ(tb2.drainer.got(), expect);
}

class StreamWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(StreamWidthSweep, QueueAtEveryElementWidth) {
  const int bits = GetParam();
  const auto data = random_words(30, bits, 7);
  CoreStreamTb tb({.kind = ContainerKind::Queue, .elem_bits = bits,
                   .depth = 8},
                  data);
  Simulator sim(tb);
  sim.reset();
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 5000);
  EXPECT_EQ(tb.drainer.got(), data);
}

INSTANTIATE_TEST_SUITE_P(Widths, StreamWidthSweep,
                         ::testing::Values(1, 4, 8, 16, 24, 32, 64));

}  // namespace
}  // namespace hwpat::core
