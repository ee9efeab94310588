// Integration tests of the Iterator pattern proper: algorithms driving
// iterators driving containers, across device bindings.  These tests
// are the executable version of the paper's §3.3 "example revisited":
// the same CopyFsm model works unchanged over FIFO-backed and
// SRAM-backed buffers, and the blur algorithm works over the special
// line-buffer container.
#include <gtest/gtest.h>

#include <random>

#include "core/algorithm.hpp"
#include "core/blur.hpp"
#include "core/iterator.hpp"
#include "core/linebuf_container.hpp"
#include "core/model/model.hpp"
#include "core/stream_core.hpp"
#include "core/stream_sram.hpp"
#include "core/vector.hpp"
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

// ------------------------------------------------------------------
// Copy through FIFO-backed buffers (Fig. 3 of the paper)
// ------------------------------------------------------------------

struct FifoCopyTb : Module {
  StreamWires rb_w, wb_w;
  AlgoWires ctl;
  CoreStreamContainer rbuf, wbuf;
  StreamInputIterator it_in;
  StreamOutputIterator it_out;
  TransformFsm alg;
  StreamFeeder feeder;
  StreamDrainer drainer;

  FifoCopyTb(std::vector<Word> data, UnaryOpSpec op,
             std::uint64_t count = 0)
      : Module(nullptr, "tb"),
        rb_w(*this, "rb", 8, 16),
        wb_w(*this, "wb", 8, 16),
        ctl(*this, "ctl"),
        rbuf(this, "rbuffer",
             {.kind = ContainerKind::ReadBuffer, .elem_bits = 8,
              .depth = 16},
             rb_w.impl()),
        wbuf(this, "wbuffer",
             {.kind = ContainerKind::WriteBuffer, .elem_bits = 8,
              .depth = 16},
             wb_w.impl()),
        it_in(this, "rbuffer_it",
              {.traversal = Traversal::Forward, .role = IterRole::Input},
              ContainerKind::ReadBuffer, rb_w.consumer()),
        it_out(this, "wbuffer_it",
               {.traversal = Traversal::Forward, .role = IterRole::Output},
               ContainerKind::WriteBuffer, wb_w.producer()),
        alg(this, "copy",
            {.count = count, .op = std::move(op)}, it_in.client(),
            it_out.client(), ctl.control()),
        feeder(this, "feeder", rb_w.producer(), std::move(data)),
        drainer(this, "drainer", wb_w.consumer()) {}
};

TEST(Pattern, EndlessCopyMovesEveryElement) {
  const auto data = random_words(100, 8, 1);
  FifoCopyTb tb(data, ops_lib::identity(8));
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 5000);
  EXPECT_EQ(tb.drainer.got(), data);
  EXPECT_TRUE(tb.ctl.busy.read());  // endless loop never finishes
}

TEST(Pattern, BoundedCopyStopsAndPulsesDone) {
  const auto data = random_words(50, 8, 2);
  FifoCopyTb tb(data, ops_lib::identity(8), 20);
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  sim.step();
  tb.ctl.start.write(false);
  bool saw_done = false;
  for (int i = 0; i < 1000 && !saw_done; ++i) {
    sim.step();
    saw_done = tb.ctl.done.read();
  }
  EXPECT_TRUE(saw_done);
  // Give it slack: no further elements move after done.
  sim.step(50);
  EXPECT_EQ(tb.drainer.got().size(), 20u);
  EXPECT_FALSE(tb.ctl.busy.read());
}

TEST(Pattern, CopyIsThroughputOnePerCycleWhenStreaming) {
  // With both FIFOs ready, the copy moves one element per cycle —
  // "ideally a new pixel can be generated at each clock cycle".
  const auto data = random_words(64, 8, 3);
  FifoCopyTb tb(data, ops_lib::identity(8));
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  const rtl::RunStatus st = sim.run(
      [&] { return tb.drainer.got().size() == data.size(); }, 5000);
  ASSERT_TRUE(st.ok()) << sim.progress_report();
  // Feeding, copying and draining pipeline: total should be close to
  // N + small constant latency.
  EXPECT_LE(st.steps, data.size() + 10);
}

TEST(Pattern, TransformAppliesTheOperation) {
  const auto data = random_words(40, 8, 4);
  FifoCopyTb tb(data, ops_lib::invert(8));
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 5000);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(tb.drainer.got()[i], truncate(~data[i], 8)) << i;
}

TEST(Pattern, ThresholdTransform) {
  std::vector<Word> data{10, 200, 127, 128, 0, 255};
  FifoCopyTb tb(data, ops_lib::threshold(8, 128));
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 1000);
  EXPECT_EQ(tb.drainer.got(),
            (std::vector<Word>{0, 255, 0, 255, 0, 255}));
}

TEST(Pattern, IteratorsAreDissolvedWrappers) {
  FifoCopyTb tb({}, ops_lib::identity(8));
  rtl::PrimitiveTally t_in, t_out;
  tb.it_in.report(t_in);
  tb.it_out.report(t_out);
  EXPECT_TRUE(t_in.empty());   // §4: "only wrappers ... dissolved"
  EXPECT_TRUE(t_out.empty());
}

TEST(Pattern, StreamIteratorClientIsTheContainersWires) {
  // The renaming dissolves at elaboration: the algorithm's ports ARE
  // the buffers' method wires, with no gate and no copy in between.
  FifoCopyTb tb({}, ops_lib::identity(8));
  const IterClient in = tb.it_in.client();
  EXPECT_EQ(&in.ready, &tb.rb_w.can_pop);
  EXPECT_EQ(&in.rvalid, &tb.rb_w.can_pop);
  EXPECT_EQ(&in.rdata, &tb.rb_w.front);
  EXPECT_EQ(&in.inc, &tb.rb_w.pop);
  const IterClient out = tb.it_out.client();
  EXPECT_EQ(&out.ready, &tb.wb_w.can_push);
  EXPECT_EQ(&out.write, &tb.wb_w.push);
  EXPECT_EQ(&out.wdata, &tb.wb_w.push_data);
  // The strobes a stream container has no wire for are the iterator's
  // own tie-offs.
  EXPECT_EQ(&in.read.owner(), &tb.it_in);
  EXPECT_EQ(&out.inc.owner(), &tb.it_out);
}

// ------------------------------------------------------------------
// The §3.3 retarget: same model, SRAM-backed containers
// ------------------------------------------------------------------

struct SramCopyTb : Module {
  StreamWires rb_w, wb_w;
  SramMasterWires rm, wm;
  AlgoWires ctl;
  SramStreamContainer rbuf, wbuf;
  devices::ExternalSram sram_in, sram_out;
  StreamInputIterator it_in;
  StreamOutputIterator it_out;
  CopyFsm alg;
  StreamFeeder feeder;
  StreamDrainer drainer;

  explicit SramCopyTb(std::vector<Word> data)
      : Module(nullptr, "tb"),
        rb_w(*this, "rb", 8, 16),
        wb_w(*this, "wb", 8, 16),
        rm(*this, "rm", 8, 16),
        wm(*this, "wm", 8, 16),
        ctl(*this, "ctl"),
        rbuf(this, "rbuffer",
             {.kind = ContainerKind::ReadBuffer, .elem_bits = 8,
              .capacity = 16},
             rb_w.impl(), rm.master()),
        wbuf(this, "wbuffer",
             {.kind = ContainerKind::WriteBuffer, .elem_bits = 8,
              .capacity = 16},
             wb_w.impl(), wm.master()),
        sram_in(this, "sram_in",
                devices::SramConfig{.data_width = 8, .addr_width = 16},
                rm.device()),
        sram_out(this, "sram_out",
                 devices::SramConfig{.data_width = 8, .addr_width = 16},
                 wm.device()),
        it_in(this, "rbuffer_it",
              {.traversal = Traversal::Forward, .role = IterRole::Input},
              ContainerKind::ReadBuffer, rb_w.consumer()),
        it_out(this, "wbuffer_it",
               {.traversal = Traversal::Forward, .role = IterRole::Output},
               ContainerKind::WriteBuffer, wb_w.producer()),
        alg(this, "copy", {}, it_in.client(), it_out.client(),
            ctl.control()),
        feeder(this, "feeder", rb_w.producer(), std::move(data)),
        drainer(this, "drainer", wb_w.consumer()) {}
};

TEST(Pattern, RetargetToSramPreservesBehaviour) {
  const auto data = random_words(60, 8, 5);
  SramCopyTb tb(data);
  Simulator sim(tb);
  sim.reset();
  tb.ctl.start.write(true);
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 100000);
  EXPECT_EQ(tb.drainer.got(), data);
}

// ------------------------------------------------------------------
// Backward input: draining a stack with a Dec-advancing iterator
// ------------------------------------------------------------------

struct StackCopyTb : Module {
  StreamWires st_w, wb_w;
  AlgoWires ctl;
  CoreStreamContainer stack, wbuf;
  StreamInputIterator it_in;
  StreamOutputIterator it_out;
  CopyFsm alg;
  StreamFeeder feeder;
  StreamDrainer drainer;

  StackCopyTb(std::vector<Word> data, std::uint64_t count)
      : Module(nullptr, "tb"),
        st_w(*this, "st", 8, 16),
        wb_w(*this, "wb", 8, 16),
        ctl(*this, "ctl"),
        stack(this, "stack",
              {.kind = ContainerKind::Stack, .elem_bits = 8, .depth = 64},
              st_w.impl()),
        wbuf(this, "wbuffer",
             {.kind = ContainerKind::WriteBuffer, .elem_bits = 8,
              .depth = 64},
             wb_w.impl()),
        it_in(this, "stack_it",
              {.traversal = Traversal::Backward, .role = IterRole::Input},
              ContainerKind::Stack, st_w.consumer()),
        it_out(this, "wbuffer_it",
               {.traversal = Traversal::Forward, .role = IterRole::Output},
               ContainerKind::WriteBuffer, wb_w.producer()),
        alg(this, "copy",
            {.count = count, .in_advance = Op::Dec}, it_in.client(),
            it_out.client(), ctl.control()),
        feeder(this, "feeder", st_w.producer(), std::move(data)),
        drainer(this, "drainer", wb_w.consumer()) {}
};

TEST(Pattern, StackDrainsBackwards) {
  // Fill the stack fully first (count-bounded copy started later).
  std::vector<Word> data{1, 2, 3, 4, 5, 6};
  StackCopyTb tb(data, data.size());
  Simulator sim(tb);
  sim.reset();
  tb::step_until(sim, [&] { return tb.feeder.done(); }, 1000);
  sim.step(2);
  tb.ctl.start.write(true);
  sim.step();
  tb.ctl.start.write(false);
  tb::step_until(
      sim, [&] { return tb.drainer.got().size() == data.size(); }, 2000);
  EXPECT_EQ(tb.drainer.got(), (std::vector<Word>{6, 5, 4, 3, 2, 1}));
  // A backward traversal advances with dec, which is the stack's pop.
  EXPECT_EQ(&tb.it_in.client().dec, &tb.st_w.pop);
}

// ------------------------------------------------------------------
// Fill and Reduce
// ------------------------------------------------------------------

struct FillReduceTb : Module {
  StreamWires q_w;
  AlgoWires fill_ctl, red_ctl;
  Bus result;
  CoreStreamContainer queue;
  StreamOutputIterator it_out;
  StreamInputIterator it_in;
  FillFsm fill;
  ReduceFsm reduce;

  FillReduceTb(Word value, std::uint64_t n, BinaryOpSpec op)
      : Module(nullptr, "tb"),
        q_w(*this, "q", 8, 16),
        fill_ctl(*this, "fill"),
        red_ctl(*this, "red"),
        result(*this, "result", 16),
        queue(this, "queue",
              {.kind = ContainerKind::Queue, .elem_bits = 8, .depth = 64},
              q_w.impl()),
        it_out(this, "q_out_it",
               {.traversal = Traversal::Forward, .role = IterRole::Output},
               ContainerKind::Queue, q_w.producer()),
        it_in(this, "q_in_it",
              {.traversal = Traversal::Forward, .role = IterRole::Input},
              ContainerKind::Queue, q_w.consumer()),
        fill(this, "fill", {.count = n, .value = value}, it_out.client(),
             fill_ctl.control()),
        reduce(this, "reduce", {.count = n, .op = std::move(op)},
               it_in.client(), result, red_ctl.control()) {}
};

TEST(Pattern, FillThenSumReduce) {
  FillReduceTb tb(7, 10, ops_lib::sum(16));
  Simulator sim(tb);
  sim.reset();
  tb.fill_ctl.start.write(true);
  sim.step();
  tb.fill_ctl.start.write(false);
  tb::step_until(sim, [&] { return tb.fill_ctl.done.read(); }, 1000);
  tb.red_ctl.start.write(true);
  sim.step();
  tb.red_ctl.start.write(false);
  tb::step_until(sim, [&] { return tb.red_ctl.done.read(); }, 1000);
  EXPECT_EQ(tb.result.read(), 70u);
}

/// Reduce-only bench: a feeder fills the queue, the ReduceFsm folds it.
struct ReduceTb : Module {
  StreamWires q_w;
  AlgoWires red_ctl;
  Bus result;
  CoreStreamContainer queue;
  StreamInputIterator it_in;
  ReduceFsm reduce;
  StreamFeeder feeder;

  ReduceTb(std::vector<Word> data, BinaryOpSpec op)
      : Module(nullptr, "tb"),
        q_w(*this, "q", 8, 16),
        red_ctl(*this, "red"),
        result(*this, "result", 16),
        queue(this, "queue",
              {.kind = ContainerKind::Queue, .elem_bits = 8, .depth = 64},
              q_w.impl()),
        it_in(this, "q_in_it",
              {.traversal = Traversal::Forward, .role = IterRole::Input},
              ContainerKind::Queue, q_w.consumer()),
        reduce(this, "reduce", {.count = data.size(), .op = std::move(op)},
               it_in.client(), result, red_ctl.control()),
        feeder(this, "feeder", q_w.producer(), std::move(data)) {}
};

TEST(Pattern, ReduceMaxAndMinAgreeWithModel) {
  for (bool use_max : {true, false}) {
    const auto data = random_words(20, 8, 7);
    model::BoundedQueue<Word> mq(64);
    for (Word v : data) mq.push(v);
    const Word expect = model::reduce_n(
        mq, data.size(), use_max ? Word{0} : mask_of(16),
        [&](Word a, Word b) {
          return use_max ? std::max(a, b) : std::min(a, b);
        });

    ReduceTb tb(data,
                use_max ? ops_lib::max_op(16) : ops_lib::min_op(16));
    Simulator sim(tb);
    sim.reset();
    tb::step_until(sim, [&] { return tb.feeder.done(); }, 1000);
    tb.red_ctl.start.write(true);
    sim.step();
    tb.red_ctl.start.write(false);
    tb::step_until(sim, [&] { return tb.red_ctl.done.read(); }, 2000);
    EXPECT_EQ(tb.result.read(), expect);
  }
}

// ------------------------------------------------------------------
// Protocol guards / dead-operation elimination
// ------------------------------------------------------------------

struct GuardTb : Module {
  StreamWires rb_w;
  // Elaborated before the container, so the iterator's validate-phase
  // check runs (and throws) before the FIFO's own.
  StreamInputIterator it;
  CoreStreamContainer rbuf;

  explicit GuardTb(Iterator::Spec spec)
      : Module(nullptr, "tb"),
        rb_w(*this, "rb", 8, 16),
        it(this, "it", spec, ContainerKind::ReadBuffer, rb_w.consumer()),
        rbuf(this, "rbuffer",
             {.kind = ContainerKind::ReadBuffer, .elem_bits = 8,
              .depth = 4},
             rb_w.impl()) {}
};

TEST(Guards, WriteOnInputIteratorThrows) {
  GuardTb tb({.traversal = Traversal::Forward, .role = IterRole::Input});
  Simulator sim(tb);
  sim.reset();
  tb.it.client().write.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(Guards, DecOnForwardIteratorThrows) {
  GuardTb tb({.traversal = Traversal::Forward, .role = IterRole::Input});
  Simulator sim(tb);
  sim.reset();
  tb.it.client().dec.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(Guards, IncWhileEmptyThrows) {
  GuardTb tb({.traversal = Traversal::Forward, .role = IterRole::Input});
  Simulator sim(tb);
  sim.reset();
  tb.it.client().inc.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(Guards, DeadOpEliminationRejectsUnusedStrobe) {
  // Iterator generated with only {read}: even the admissible `inc` now
  // traps, because its logic was never generated.
  GuardTb tb({.traversal = Traversal::Forward, .role = IterRole::Input,
              .used_ops = OpSet{Op::Read}});
  Simulator sim(tb);
  sim.reset();
  tb.it.client().inc.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(Guards, SpecValidationRejectsBadTraversal) {
  Module top(nullptr, "top");
  StreamWires w(top, "rb", 8, 16);
  EXPECT_THROW(
      StreamInputIterator(&top, "it",
                          {.traversal = Traversal::Backward,
                           .role = IterRole::Input},
                          ContainerKind::ReadBuffer, w.consumer()),
      SpecError);
}

TEST(Guards, SpecValidationRejectsExcessOps) {
  Module top(nullptr, "top");
  StreamWires w(top, "rb", 8, 16);
  EXPECT_THROW(
      StreamInputIterator(&top, "it",
                          {.traversal = Traversal::Forward,
                           .role = IterRole::Input,
                           .used_ops = OpSet{Op::Read, Op::Write}},
                          ContainerKind::ReadBuffer, w.consumer()),
      SpecError);
}

}  // namespace
}  // namespace hwpat::core
