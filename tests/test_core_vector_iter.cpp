// Vector iterator tests: sequential (forward/backward/bidirectional)
// and random iterators over the vector container, including the
// dead-operation-elimination resource effects.
#include <gtest/gtest.h>

#include "core/algorithm.hpp"
#include "core/iterator.hpp"
#include "core/vector.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat::core {
namespace {

using rtl::Module;
using rtl::Simulator;

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

}  // namespace
}  // namespace hwpat::core
