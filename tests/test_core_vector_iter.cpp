// Vector iterator tests: sequential (forward/backward/bidirectional)
// and random iterators over the vector container, including the
// dead-operation-elimination resource effects, and the algorithms run
// over vector and width-adapting iterators.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/iterator.hpp"
#include "core/stream_core.hpp"
#include "core/vector.hpp"
#include "meta/factory.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat::core {
namespace {

using rtl::Module;
using rtl::Simulator;
using ::testing::HasSubstr;

struct VecIterTb : Module {
  static constexpr int kLen = 8;
  RandomWires rw;
  IterWires iw;
  VectorContainer vec;
  std::unique_ptr<Iterator> it;

  VecIterTb() : VecIterTb(Iterator::Spec{.traversal = Traversal::Forward,
                                         .role = IterRole::InputOutput}) {}

  explicit VecIterTb(Iterator::Spec spec, bool random = false)
      : Module(nullptr, "tb"),
        rw(*this, "v", 8, 3),
        iw(*this, "it", 8, 8),
        vec(this, "vec",
            {.elem_bits = 8, .length = kLen,
             .device = devices::DeviceKind::BlockRam},
            rw.impl()) {
    if (random) {
      it = std::make_unique<VectorRandomIterator>(this, "rit", spec,
                                                  rw.client(), iw,
                                                  kLen);
    } else {
      it = std::make_unique<VectorSeqIterator>(
          this, "sit", spec,
          VectorSeqIterator::Config{.length = kLen, .start_pos = 0},
          rw.client(), iw);
    }
  }

  void preload(std::initializer_list<Word> vals) {
    vec.bram()->preload(0, std::vector<Word>(vals));
  }

  Word iter_read(Simulator& sim, bool advance_inc = false,
                 bool advance_dec = false) {
    tb::step_until(sim, [&] { return iw.ready.read(); }, 100);
    iw.read.write(true);
    iw.inc.write(advance_inc);
    iw.dec.write(advance_dec);
    sim.step();
    iw.read.write(false);
    iw.inc.write(false);
    iw.dec.write(false);
    tb::step_until(sim, [&] { return iw.rvalid.read(); }, 100);
    return iw.rdata.read();
  }

  void iter_write(Simulator& sim, Word v, bool advance_inc = false) {
    tb::step_until(sim, [&] { return iw.ready.read(); }, 100);
    iw.write.write(true);
    iw.wdata.write(v);
    iw.inc.write(advance_inc);
    sim.step();
    iw.write.write(false);
    iw.inc.write(false);
    tb::step_until(sim, [&] { return iw.ready.read(); }, 100);
  }

  void iter_index(Simulator& sim, Word pos) {
    tb::step_until(sim, [&] { return iw.ready.read(); }, 100);
    iw.index_op.write(true);
    iw.index_pos.write(pos);
    sim.step();
    iw.index_op.write(false);
    sim.settle();
  }
};

TEST(VectorSeqIter, ForwardWalkReadsInOrder) {
  VecIterTb tb({.traversal = Traversal::Forward,
                .role = IterRole::Input});
  Simulator sim(tb);
  sim.reset();
  tb.preload({10, 11, 12, 13, 14, 15, 16, 17});
  for (Word i = 0; i < 8; ++i)
    EXPECT_EQ(tb.iter_read(sim, /*inc=*/true), 10 + i) << i;
  // Wraps modulo length.
  EXPECT_EQ(tb.iter_read(sim, true), 10u);
}

TEST(VectorSeqIter, BackwardWalkFromEnd) {
  VecIterTb tb({.traversal = Traversal::Backward, .role = IterRole::Input});
  Simulator sim(tb);
  sim.reset();
  tb.preload({10, 11, 12, 13, 14, 15, 16, 17});
  // Start at 0, first dec wraps to 7 after reading 0's element.
  EXPECT_EQ(tb.iter_read(sim, false, /*dec=*/true), 10u);
  EXPECT_EQ(tb.iter_read(sim, false, true), 17u);
  EXPECT_EQ(tb.iter_read(sim, false, true), 16u);
}

TEST(VectorSeqIter, BidirectionalWritesThenReadsBack) {
  VecIterTb tb({.traversal = Traversal::Bidirectional,
                .role = IterRole::InputOutput});
  Simulator sim(tb);
  sim.reset();
  tb.iter_write(sim, 0xA1, true);
  tb.iter_write(sim, 0xB2, true);
  // Walk back down and verify.
  auto* sit = dynamic_cast<VectorSeqIterator*>(tb.it.get());
  ASSERT_NE(sit, nullptr);
  EXPECT_EQ(sit->position(), 2u);
  tb.iw.dec.write(true);
  sim.step();
  sim.step();
  tb.iw.dec.write(false);
  sim.settle();
  EXPECT_EQ(sit->position(), 0u);
  EXPECT_EQ(tb.iter_read(sim, true), 0xA1u);
  EXPECT_EQ(tb.iter_read(sim, true), 0xB2u);
}

TEST(VectorRandomIter, IndexThenAccess) {
  VecIterTb tb({.traversal = Traversal::Random,
                .role = IterRole::InputOutput},
               /*random=*/true);
  Simulator sim(tb);
  sim.reset();
  tb.preload({0, 0, 0, 33, 0, 55, 0, 0});
  tb.iter_index(sim, 5);
  EXPECT_EQ(tb.iter_read(sim), 55u);
  tb.iter_index(sim, 3);
  EXPECT_EQ(tb.iter_read(sim), 33u);
  tb.iter_write(sim, 0x77);
  EXPECT_EQ(tb.iter_read(sim), 0x77u);
}

TEST(VectorRandomIter, IndexOutOfRangeThrows) {
  VecIterTb tb({.traversal = Traversal::Random, .role = IterRole::Input},
               true);
  Simulator sim(tb);
  sim.reset();
  tb.iw.index_op.write(true);
  tb.iw.index_pos.write(200);
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(VectorRandomIter, IncIsNotAnOperationOfRandomIterators) {
  // Table 2: random iterators move with `index`, not inc/dec.
  VecIterTb tb({.traversal = Traversal::Random, .role = IterRole::Input},
               true);
  Simulator sim(tb);
  sim.reset();
  tb.iw.inc.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
}

/// Saves `tb` after one write through its iterator with `len`
/// little-endian bytes at offset `at` of module `m`'s payload patched to
/// `v`, and expects the restore to be refused naming `m` and `field`.
void expect_field_rejected(VecIterTb& tb, const Module& m, std::size_t at,
                           int len, std::uint64_t v,
                           const std::string& field) {
  Simulator sim(tb);
  sim.reset();
  tb.iter_write(sim, 0x5A);
  sim.settle();
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();
  const std::optional<std::size_t> payload =
      tb::payload_offset(tb, m, bytes.size());
  ASSERT_TRUE(payload) << "no " << m.full_name() << " payload in the blob";
  const std::size_t pos = *payload + at;
  ASSERT_LE(pos + static_cast<std::size_t>(len), bytes.size());
  for (int i = 0; i < len; ++i)
    bytes[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << m.full_name() << " restored " << field << " = " << v;
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("module '" + m.full_name() + "'"));
    EXPECT_THAT(e.what(), HasSubstr(field + " = " + std::to_string(v)));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
}

// A vector iterator's position payload is one i64 below the length.
TEST(VectorSeqIter, RestoredPositionAtTheLengthIsRejected) {
  VecIterTb tb;
  expect_field_rejected(tb, *tb.it, 0, 8, VecIterTb::kLen, "pos_");
}

TEST(VectorRandomIter, RestoredPositionPastTheLengthIsRejected) {
  VecIterTb tb({.traversal = Traversal::Random,
                .role = IterRole::InputOutput},
               /*random=*/true);
  expect_field_rejected(tb, *tb.it, 0, 8, 1000, "pos_");
}

// The container's payload is its state as a u32: Idle, BramRead,
// SramRead, SramWrite.  A BRAM binding never reaches an SRAM state.
TEST(VectorContainer, RestoredUnknownStateIsRejected) {
  for (const std::uint64_t state : {77, 2}) {
    VecIterTb tb;
    expect_field_rejected(tb, tb.vec, 0, 4, state, "state_");
  }
}

TEST(VectorSeqIter, DeadOpEliminationShrinksDatapath) {
  // A forward-only iterator carries one adder; a bidirectional one
  // carries two plus a select mux.  The unused-op variant is smaller —
  // the resource effect of the generator's operation pruning.
  VecIterTb fwd({.traversal = Traversal::Forward, .role = IterRole::Input});
  VecIterTb bidir({.traversal = Traversal::Bidirectional,
                   .role = IterRole::InputOutput});
  rtl::PrimitiveTally tf, tb2;
  fwd.it->report(tf);
  bidir.it->report(tb2);
  EXPECT_LT(tf.add_bits, tb2.add_bits);
  EXPECT_EQ(tf.reg_bits, tb2.reg_bits);  // same position register
}

TEST(VectorSeqIter, ReadOnlySpecReportsNoAdder) {
  VecIterTb ro({.traversal = Traversal::Forward,
                .role = IterRole::Input,
                .used_ops = OpSet{Op::Read}});
  rtl::PrimitiveTally t;
  ro.it->report(t);
  EXPECT_EQ(t.add_bits, 0);
}

// ------------------------------------------------------------------
// Algorithms over the iterators no bench_stats_gate scenario places
// ------------------------------------------------------------------

/// FillFsm through a forward vector output iterator, CopyFsm from a FIFO
/// through a backward vector output iterator, and ReduceFsm over a
/// forward vector input iterator.  The reduce never transfers: a vector
/// raises rvalid only for the cycle after a read, and the algorithm
/// raises read only once rvalid is high.
struct VectorAlgoTb : Module {
  static constexpr int kLen = 8;
  AlgoWires fill_ctl, copy_ctl, reduce_ctl;
  RandomWires fill_rw, copy_rw, reduce_rw;
  IterWires fill_iw, copy_iw, reduce_iw;
  StreamWires src_w;
  Bus sum;
  VectorContainer fill_vec, copy_vec, reduce_vec;
  VectorSeqIterator fill_it, copy_it, reduce_it;
  CoreStreamContainer src;
  StreamInputIterator src_it;
  tb::StreamFeeder feeder;
  FillFsm fill;
  CopyFsm copy;
  ReduceFsm reduce;

  VectorAlgoTb()
      : Module(nullptr, "tb"),
        fill_ctl(*this, "fill"),
        copy_ctl(*this, "copy"),
        reduce_ctl(*this, "reduce"),
        fill_rw(*this, "fv", 8, 3),
        copy_rw(*this, "cv", 8, 3),
        reduce_rw(*this, "rv", 8, 3),
        fill_iw(*this, "fit", 8, 3),
        copy_iw(*this, "cit", 8, 3),
        reduce_iw(*this, "rit", 8, 3),
        src_w(*this, "src", 8, 4),
        sum(*this, "sum", 8),
        fill_vec(this, "fill_vec", {.elem_bits = 8, .length = kLen},
                 fill_rw.impl()),
        copy_vec(this, "copy_vec", {.elem_bits = 8, .length = kLen},
                 copy_rw.impl()),
        reduce_vec(this, "reduce_vec", {.elem_bits = 8, .length = kLen},
                   reduce_rw.impl()),
        fill_it(this, "fill_it",
                {.traversal = Traversal::Forward, .role = IterRole::Output},
                {.length = kLen}, fill_rw.client(), fill_iw),
        copy_it(this, "copy_it",
                {.traversal = Traversal::Backward, .role = IterRole::Output},
                {.length = kLen, .start_pos = kLen - 1}, copy_rw.client(),
                copy_iw),
        reduce_it(this, "reduce_it",
                  {.traversal = Traversal::Forward, .role = IterRole::Input},
                  {.length = kLen}, reduce_rw.client(), reduce_iw),
        src(this, "src",
            {.kind = ContainerKind::ReadBuffer, .elem_bits = 8, .depth = 4},
            src_w.impl()),
        src_it(this, "src_it",
               {.traversal = Traversal::Forward, .role = IterRole::Input},
               ContainerKind::ReadBuffer, src_w.consumer()),
        feeder(this, "feeder", src_w.producer(),
               {11, 22, 33, 44, 55, 66, 77, 88}),
        fill(this, "fill_alg", {.count = kLen, .value = 0x5a},
             fill_it.client(), fill_ctl.control()),
        copy(this, "copy_alg", {.count = kLen, .out_advance = Op::Dec},
             src_it.client(), copy_it.client(), copy_ctl.control()),
        reduce(this, "reduce_alg",
               {.count = kLen, .op = ops_lib::sum(8)}, reduce_it.client(),
               sum, reduce_ctl.control()) {}

  void start(bool v) {
    fill_ctl.start.write(v);
    copy_ctl.start.write(v);
    reduce_ctl.start.write(v);
  }
};

/// rbuffer -> copy -> wbuffer of 24-bit elements over 8-bit FIFO lanes,
/// through the width-adapting iterators.
struct WidthCopyTb : Module {
  static constexpr int kElems = 6, kLanes = 3;
  StreamWires rb_w, wb_w;
  AlgoWires ctl;
  std::unique_ptr<Container> rbuf, wbuf;
  std::unique_ptr<Iterator> it_in, it_out;
  std::unique_ptr<CopyFsm> copy;
  tb::StreamFeeder feeder;
  tb::StreamDrainer drainer;

  static std::vector<Word> lanes() {
    std::vector<Word> v;
    for (int i = 0; i < kElems * kLanes; ++i)
      v.push_back(static_cast<Word>(i * 37 + 11) & 0xff);
    return v;
  }

  WidthCopyTb()
      : Module(nullptr, "tb"),
        rb_w(*this, "rb", 8, 16),
        wb_w(*this, "wb", 8, 16),
        ctl(*this, "ctl"),
        feeder(this, "feeder", rb_w.producer(), lanes()),
        drainer(this, "drainer", wb_w.consumer()) {
    meta::ContainerSpec rb{.name = "rbuffer",
                           .kind = ContainerKind::ReadBuffer,
                           .device = devices::DeviceKind::FifoCore,
                           .elem_bits = 24,
                           .depth = 8,
                           .bus_bits = 8,
                           .addr_bits = 16,
                           .base_addr = 0,
                           .used_methods = {},
                           .shared_device = false};
    meta::ContainerSpec wb = rb;
    wb.name = "wbuffer";
    wb.kind = ContainerKind::WriteBuffer;
    rbuf = meta::build_stream_container(
        this, rb, meta::StreamBuildPorts{.method = rb_w.impl()});
    wbuf = meta::build_stream_container(
        this, wb, meta::StreamBuildPorts{.method = wb_w.impl()});
    it_in = meta::build_input_iterator(
        this,
        {.name = "rit", .traversal = Traversal::Forward,
         .role = IterRole::Input, .used_ops = {}, .container = rb},
        rb_w.consumer());
    it_out = meta::build_output_iterator(
        this,
        {.name = "wit", .traversal = Traversal::Forward,
         .role = IterRole::Output, .used_ops = {}, .container = wb},
        wb_w.producer());
    copy = std::make_unique<CopyFsm>(this, "copy", CopyFsm::Config{},
                                     it_in->client(), it_out->client(),
                                     ctl.control());
  }

  void start(bool v) { ctl.start.write(v); }
};

/// What a run of a testbench leaves behind: the two work counters and
/// the waveform's size and FNV-1a hash.
struct PathRun {
  std::uint64_t evals, commits;
  std::size_t vcd_size;
  std::uint64_t vcd_hash;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs `bench` for `steps` edges with its algorithms started on the
/// first, on the event or the full-sweep kernel, then calls `check()`.
template <typename Tb, typename Check>
PathRun run_path(Tb& bench, bool full_sweep, int steps, Check&& check) {
  const std::string path = "test_core_vector_iter_paths.vcd";
  PathRun out{};
  {
    Simulator::Options opt;
    opt.full_sweep = full_sweep;
    Simulator sim(bench, opt);
    sim.open_vcd(path);
    sim.reset();
    bench.start(true);
    sim.step();
    bench.start(false);
    sim.step(steps - 1);
    check();
    out.evals = sim.stats().evals;
    out.commits = sim.stats().commits;
  }
  const std::string bytes = tb::slurp_and_remove(path);
  out.vcd_size = bytes.size();
  out.vcd_hash = fnv1a(bytes);
  return out;
}

void expect_run(const PathRun& got, const PathRun& want, const char* what) {
  EXPECT_EQ(got.evals, want.evals) << what;
  EXPECT_EQ(got.commits, want.commits) << what;
  EXPECT_EQ(got.vcd_size, want.vcd_size) << what;
  EXPECT_EQ(got.vcd_hash, want.vcd_hash)
      << what << ": 0x" << std::hex << got.vcd_hash;
}

// No bench_stats_gate scenario runs an algorithm over a vector or a
// width-adapting iterator, so these pin such runs on both kernels: the
// work counters and the waveform bytes.  The two kernels' waveforms are
// the same bytes.
TEST(AlgorithmPaths, VectorIteratorRunsNeverMove) {
  const PathRun want[2] = {{150, 137, 5'132, 0x2111afc25a79d938},
                           {1'530, 11'500, 5'132, 0x2111afc25a79d938}};
  for (const bool full_sweep : {false, true}) {
    VectorAlgoTb tb;
    const PathRun got = run_path(tb, full_sweep, 24, [&] {
      EXPECT_EQ(tb.fill.transfers(), 8u);
      EXPECT_EQ(tb.fill_vec.bram()->mem(), std::vector<Word>(8, 0x5a));
      EXPECT_EQ(tb.copy.transfers(), 8u);
      EXPECT_EQ(tb.copy_vec.bram()->mem(),
                (std::vector<Word>{88, 77, 66, 55, 44, 33, 22, 11}));
      EXPECT_EQ(tb.reduce.transfers(), 0u);
    });
    expect_run(got, want[full_sweep], full_sweep ? "full sweep" : "event");
  }
}

TEST(AlgorithmPaths, WidthAdaptingCopyRunsNeverMove) {
  const PathRun want[2] = {{266, 314, 5'196, 0xece34d732d0a84c8},
                           {1'410, 7'462, 5'196, 0xece34d732d0a84c8}};
  for (const bool full_sweep : {false, true}) {
    WidthCopyTb tb;
    const PathRun got = run_path(tb, full_sweep, 40, [&] {
      EXPECT_EQ(tb.drainer.got(), WidthCopyTb::lanes());
    });
    expect_run(got, want[full_sweep], full_sweep ? "full sweep" : "event");
  }
}

}  // namespace
}  // namespace hwpat::core
