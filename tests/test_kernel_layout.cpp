// Regression tests for the data-oriented kernel memory layout (ISSUE
// 9): the int16 partition-id truncation guard, the CSR fanout's
// dedup-under-alternation behaviour, the monotone ever-read re-eval
// contract, the per-signal reader marks, the arena footprint
// accounting, and signals without a vtable.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "designs/design.hpp"
#include "rtl/clock.hpp"
#include "rtl/simulator.hpp"
#include "rtl/snapshot.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using rtl::Bit;
using rtl::Bus;
using rtl::ClockDomain;
using rtl::Module;
using rtl::Simulator;

// ------------------------------------------------------------------
// Partition-id truncation guard (satellite bugfix)
// ------------------------------------------------------------------

struct Leaf : Module {
  using Module::Module;
};

/// A top module with `n` children, each in its own clock domain, so the
/// design resolves to exactly `n` clock domains.
struct ManyDomainTop : Module {
  std::deque<ClockDomain> domains;
  std::vector<std::unique_ptr<Leaf>> leaves;

  explicit ManyDomainTop(std::size_t n) : Module(nullptr, "top") {
    for (std::size_t i = 0; i < n; ++i) {
      // Built with append() — `"d" + std::to_string(i)` trips a bogus
      // gcc-12 -Werror=restrict in the inlined string concatenation.
      std::string dn("d");
      dn.append(std::to_string(i));
      std::string mn("m");
      mn.append(std::to_string(i));
      domains.emplace_back(std::move(dn), 1);
      leaves.push_back(std::make_unique<Leaf>(this, std::move(mn)));
      leaves.back()->set_clock_domain(&domains.back());
    }
  }
};

TEST(PartitionIdGuard, ManyDomainsWithinRangeElaborate) {
  // Comfortably many domains bind fine and keep distinct partitions.
  ManyDomainTop top(300);
  Simulator sim(top);
  EXPECT_EQ(sim.domain_count(), 301u);  // top's default domain + 300
}

TEST(PartitionIdGuard, TooManyDomainsThrowAtElaboration) {
  // Partition ids live in std::int16_t (Module::part_ /
  // SignalBase::part_): domain index 32768 would wrap negative and
  // corrupt the topology hash.  Before the guard this truncated
  // silently; now elaboration must refuse, loudly and by field name.
  // 32768 child domains + the top's inherited default domain = 32769
  // partitions, one past the last addressable id.
  ManyDomainTop top(32768);
  try {
    Simulator sim(top);
    FAIL() << "expected Error for 32769 clock domains";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("32768"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Module::part_"), std::string::npos) << msg;
    EXPECT_NE(msg.find("SignalBase::part_"), std::string::npos) << msg;
    EXPECT_NE(msg.find("int16_t"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------------------
// CSR fanout: alternating readers never duplicate entries
// ------------------------------------------------------------------

/// Reads `data` only on the cycles where `sel` matches `want` — so two
/// instances with opposite `want` alternate A,B,A,B,... as `sel`
/// toggles, re-merging their read sets into `data`'s fanout over and
/// over again.
struct AlternatingReader : Module {
  Bus out{*this, "out", 16};
  Bit* sel = nullptr;
  Bus* data = nullptr;
  bool want = false;
  int evals = 0;

  AlternatingReader(Module* parent, std::string name)
      : Module(parent, std::move(name)) {}
  void eval_comb() override {
    ++evals;
    if (sel->read() == want) out.write(data->read() + (want ? 1u : 2u));
  }
};

struct AlternatingTop : Module {
  Bit sel{*this, "sel"};
  Bus data{*this, "data", 16};
  AlternatingReader a{this, "a"};
  AlternatingReader b{this, "b"};

  AlternatingTop() : Module(nullptr, "top") {
    a.sel = &sel;
    a.data = &data;
    a.want = true;
    b.sel = &sel;
    b.data = &data;
    b.want = false;
  }
  void on_clock() override {
    sel.write(!sel.read());
    data.write(data.read() + 1);
  }
  void on_reset() override {
    sel.write(false);
    data.write(0);
  }
  void declare_state() override {
    register_seq(sel);
    register_seq(data);
  }
};

TEST(CsrFanout, AlternatingReadersNeverDuplicateEntries) {
  AlternatingTop top;
  Simulator sim(top);
  sim.reset();
  sim.step(2);  // both readers have taken the data-reading branch once
  ASSERT_EQ(sim.fanout_size(top.data), 2u);
  ASSERT_EQ(sim.fanout_size(top.sel), 2u);
  // Every further toggle re-merges a read set that is already fully
  // contained in the fanout; the seen-stamp dedup must keep the spans
  // at exactly {a, b} forever.
  for (int i = 0; i < 40; ++i) {
    sim.step();
    EXPECT_EQ(sim.fanout_size(top.data), 2u) << "after step " << i;
    EXPECT_EQ(sim.fanout_size(top.sel), 2u) << "after step " << i;
  }
}

TEST(CsrFanout, DedupSurvivesSnapshotRoundTrip) {
  // The snapshot saves fanout lists verbatim and the restore path
  // rejects duplicate entries loudly — a successful round-trip after
  // heavy alternation is an end-to-end witness that the CSR never
  // accumulated one.
  AlternatingTop top;
  Simulator sim(top);
  sim.reset();
  sim.step(17);
  const rtl::Snapshot snap = sim.save_snapshot();
  AlternatingTop fresh_top;
  Simulator fresh(fresh_top);
  ASSERT_NO_THROW(fresh.restore_snapshot(snap));
  EXPECT_EQ(fresh.fanout_size(fresh_top.data), 2u);
  EXPECT_EQ(fresh.fanout_size(fresh_top.sel), 2u);
}

// ------------------------------------------------------------------
// Monotone ever-read re-eval contract
// ------------------------------------------------------------------

/// Reads `data` only while `mode` is high.  Once `mode` drops, the
/// *current* evaluation path no longer touches `data` — but the kernel
/// contract is monotone: having ever read a signal keeps you in its
/// fanout, so changes to `data` must keep re-evaluating this module.
struct ModalReader : Module {
  Bus out{*this, "out", 16};
  Bit* mode = nullptr;
  Bus* data = nullptr;
  int evals = 0;

  ModalReader(Module* parent, std::string name)
      : Module(parent, std::move(name)) {}
  void eval_comb() override {
    ++evals;
    out.write(mode->read() ? data->read() : 0u);
  }
};

struct ModalTop : Module {
  Bit mode{*this, "mode"};
  Bus data{*this, "data", 16};
  ModalReader r{this, "r"};
  bool drive_mode = true;

  ModalTop() : Module(nullptr, "top") {
    r.mode = &mode;
    r.data = &data;
  }
  void on_clock() override {
    mode.write(drive_mode);
    data.write(data.read() + 1);
  }
  void on_reset() override {
    mode.write(true);
    data.write(0);
  }
  void declare_state() override {
    register_seq(mode);
    register_seq(data);
  }
};

TEST(CsrFanout, EverReadSignalKeepsReevaluatingItsReader) {
  ModalTop top;
  Simulator sim(top);
  sim.reset();
  sim.step(3);  // reader has read `data` while mode was high
  ASSERT_EQ(sim.fanout_size(top.data), 1u);

  top.drive_mode = false;
  sim.step();  // mode falls; reader's live path stops touching `data`
  sim.step();  // flush: mode is now stably low
  const int before = top.r.evals;
  const std::size_t fan_before = sim.fanout_size(top.data);

  // Only `data` changes from here on.  The reader must be re-evaluated
  // on every change even though its current branch ignores `data` —
  // dropping it from the fanout (a non-monotone "optimisation") would
  // wedge `out` at a stale value the moment `mode` rose again.
  constexpr int kSteps = 25;
  sim.step(kSteps);
  EXPECT_GE(top.r.evals, before + kSteps);
  EXPECT_EQ(sim.fanout_size(top.data), fan_before);
}

// ------------------------------------------------------------------
// Known-edge read filter: a late first read still joins the fanout
// ------------------------------------------------------------------

/// Reader `a` reads `data` on every evaluation; reader `b` reads it
/// only once `gate` rises, at cycle kGateCycle — when `data`'s last
/// merged reader has been `a` for a thousand cycles.  The tracer skips
/// reads of known (signal, reader) edges, so this pins that the skip is
/// keyed on the evaluating module and never hides b's first read.
struct LateReadTop : Module {
  static constexpr Word kGateCycle = 1000;

  struct DataReader : Module {
    Bus out{*this, "out", 32};
    const Bit* gate = nullptr;  // nullptr: read `data` unconditionally
    const Bus* data = nullptr;
    DataReader(Module* parent, std::string name)
        : Module(parent, std::move(name)) {}
    void eval_comb() override {
      out.write(gate == nullptr || gate->read() ? data->read() * 2 + 1 : 0);
    }
    void declare_state() override { declare_comb_only(); }
  };

  Bit gate{*this, "gate"};
  Bus data{*this, "data", 16};
  Bus cnt{*this, "cnt", 16};
  DataReader a{this, "a"};
  DataReader b{this, "b"};

  LateReadTop() : Module(nullptr, "top") {
    a.data = &data;
    b.gate = &gate;
    b.data = &data;
  }
  void on_clock() override {
    const Word c = cnt.read() + 1;
    cnt.write(c);
    data.write(data.read() + 3);
    gate.write(c >= kGateCycle);
  }
  void declare_state() override {
    register_seq(gate);
    register_seq(data);
    register_seq(cnt);
  }
};

TEST(CsrFanout, LateFirstReadJoinsTheFanout) {
  constexpr int kAfter = 50;
  LateReadTop top;
  Simulator sim(top);
  sim.reset();
  sim.step(static_cast<int>(LateReadTop::kGateCycle) - 1);
  ASSERT_FALSE(top.gate.read());
  EXPECT_EQ(sim.fanout_size(top.data), 1u);
  EXPECT_EQ(top.b.out.read(), 0u);

  sim.step();  // gate rises: b takes its data-reading branch
  ASSERT_TRUE(top.gate.read());
  EXPECT_EQ(sim.fanout_size(top.data), 2u);
  EXPECT_EQ(top.b.out.read(), top.data.read() * 2 + 1);
  for (int i = 0; i < kAfter; ++i) {
    sim.step();
    EXPECT_EQ(top.b.out.read(), top.data.read() * 2 + 1) << "step " << i;
    EXPECT_EQ(sim.fanout_size(top.data), 2u) << "step " << i;
  }

  LateReadTop ref;
  Simulator rsim(ref, {.full_sweep = true});
  rsim.reset();
  rsim.step(static_cast<int>(LateReadTop::kGateCycle) + kAfter);
  EXPECT_EQ(top.data.read(), ref.data.read());
  EXPECT_EQ(top.a.out.read(), ref.a.out.read());
  EXPECT_EQ(top.b.out.read(), ref.b.out.read());
  EXPECT_EQ(sim.stats().steps, rsim.stats().steps);
}

// ------------------------------------------------------------------
// Reader marks: foreign reads, throwing evaluations, interleaving
// ------------------------------------------------------------------

/// A design of 200 buses that none of its own modules reads.
struct BigTop : Module {
  std::vector<std::unique_ptr<Bus>> buses;
  BigTop() : Module(nullptr, "big") {
    for (int i = 0; i < 200; ++i) {
      std::string n("b");
      n.append(std::to_string(i));
      buses.push_back(std::make_unique<Bus>(*this, std::move(n), 8));
    }
  }
};

/// A two-signal design whose eval_comb() copies a signal of another.
struct ForeignReader : Module {
  Bus out{*this, "out", 8};
  Bit spare{*this, "spare"};
  const Bus* src = nullptr;
  explicit ForeignReader(const Bus* s) : Module(nullptr, "reader"), src(s) {}
  void eval_comb() override { out.write(src->read()); }
};

TEST(ReaderMark, ReadOfAnotherSimulatorsSignalThrowsNamingBoth) {
  BigTop big;
  Simulator big_sim(big);
  // b199's id indexes past the reader's arrays; b1's id lands on the
  // reader's own `spare` signal.  Neither may be taken for a signal of
  // the reader's design.
  for (const int which : {199, 1}) {
    const Bus& src = *big.buses[static_cast<std::size_t>(which)];
    ForeignReader reader(&src);
    Simulator sim(reader);
    try {
      sim.reset();
      FAIL() << "reading " << src.full_name() << " did not throw";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "module 'reader' read signal '" + src.full_name() +
                    "', which is bound to another simulator's design");
    }
    EXPECT_EQ(sim.fanout_size(reader.spare), 0u);
    EXPECT_EQ(big_sim.fanout_size(src), 0u);
  }
}

/// Reads `gate`, and `data` only while `gate` is high.  While `arm` is
/// set, the first read of `data` is followed by a throw.
struct ThrowingReader : Module {
  Bus out{*this, "out", 16};
  const Bit* gate = nullptr;
  const Bus* data = nullptr;
  bool arm = false;
  explicit ThrowingReader(Module* parent) : Module(parent, "r") {}
  void eval_comb() override {
    Word v = 0;
    if (gate->read()) {
      v = data->read();
      if (arm) {
        arm = false;
        throw std::runtime_error("eval_comb() failed after reading data");
      }
    }
    out.write(v * 2 + 1);
  }
  void declare_state() override { declare_comb_only(); }
};

struct ThrowTop : Module {
  Bit gate{*this, "gate"};
  Bus data{*this, "data", 16};
  ThrowingReader r{this};
  ThrowTop() : Module(nullptr, "top") {
    r.gate = &gate;
    r.data = &data;
  }
  void on_clock() override {
    gate.write(true);
    data.write(data.read() + 3);
  }
  void declare_state() override {
    register_seq(gate);
    register_seq(data);
  }
};

TEST(ReaderMark, EvalThrowAfterAFirstReadStillLearnsTheEdgeAfterReset) {
  ThrowTop top;
  Simulator sim(top);
  sim.reset();  // gate is low: r reads only gate
  ASSERT_EQ(sim.fanout_size(top.data), 0u);
  top.r.arm = true;
  EXPECT_THROW(sim.step(), std::runtime_error);  // first read, then throw
  sim.reset();
  sim.step();  // gate rises again: r reads data and finishes this time
  EXPECT_EQ(sim.fanout_size(top.data), 1u);
  EXPECT_EQ(top.r.out.read(), top.data.read() * 2 + 1);
  for (int i = 0; i < 10; ++i) {
    sim.step();  // only data changes from here on
    EXPECT_EQ(top.r.out.read(), top.data.read() * 2 + 1) << "step " << i;
  }
}

// The reader marks live on the signals and the evaluating module's id
// in a thread-local: two simulators stepped turn about on one thread
// must not see each other's marks or reads.
TEST(ReaderMark, AlternatingSimulatorsOnOneThreadMatchTheirSoloRuns) {
  const designs::Saa2VgaTriClkConfig cfg{.width = 16, .height = 12,
                                         .lanes = 2};
  Simulator::Stats solo_stats;
  std::string solo_vcd;
  {
    auto d = designs::make_saa2vga_triclk(cfg);
    {
      Simulator sim(*d);
      sim.open_vcd("kernel_layout_solo.vcd");
      sim.reset();
      while (!d->finished()) sim.step();
      solo_stats = sim.stats();
    }
    solo_vcd = tb::slurp_and_remove("kernel_layout_solo.vcd");
  }
  ASSERT_GT(solo_stats.steps, 100u);
  auto a = designs::make_saa2vga_triclk(cfg);
  auto b = designs::make_saa2vga_triclk(cfg);
  {
    Simulator sa(*a);
    Simulator sb(*b);
    sa.open_vcd("kernel_layout_a.vcd");
    sb.open_vcd("kernel_layout_b.vcd");
    sa.reset();
    sb.reset();
    // b lags a by one step, so every step of one runs between two of
    // the other.
    sa.step();
    while (!a->finished() || !b->finished()) {
      if (!b->finished()) sb.step();
      if (!a->finished()) sa.step();
    }
    tb::expect_stats_eq(sa.stats(), solo_stats, "a");
    tb::expect_stats_eq(sb.stats(), solo_stats, "b");
  }
  EXPECT_TRUE(tb::slurp_and_remove("kernel_layout_a.vcd") == solo_vcd);
  EXPECT_TRUE(tb::slurp_and_remove("kernel_layout_b.vcd") == solo_vcd);
}

// ------------------------------------------------------------------
// Arena accounting
// ------------------------------------------------------------------

TEST(ArenaFootprint, ElaborationChargesTheArena) {
  AlternatingTop top;
  Simulator sim(top);
  const Simulator::MemoryStats ms = sim.memory_stats();
  EXPECT_GT(ms.arena_bytes_used, 0u);
  EXPECT_GE(ms.arena_bytes_reserved, ms.arena_bytes_used);
  EXPECT_GE(ms.arena_chunks, 1u);

  // Learned fanout grows inside the arena, not on the global heap.
  sim.reset();
  sim.step(4);
  EXPECT_GE(sim.memory_stats().arena_bytes_used, ms.arena_bytes_used);
}

TEST(ArenaFootprint, FanoutSizeRejectsForeignSignals) {
  AlternatingTop top;
  Simulator sim(top);
  AlternatingTop other;
  EXPECT_THROW((void)sim.fanout_size(other.data), Error);
}

// ------------------------------------------------------------------
// Signals are Bits and Buses
// ------------------------------------------------------------------

// Every signal stores Words, so the kernel treats all alike and a signal
// has no virtual function to carry a vtable for; only Bit and Bus
// construct a Signal<T>.
static_assert(!std::is_polymorphic_v<rtl::SignalBase>);
static_assert(!std::is_polymorphic_v<Bit>);
static_assert(!std::is_polymorphic_v<Bus>);
static_assert(!std::is_constructible_v<rtl::Signal<Word>, Module&,
                                       std::string, int, Word>);

}  // namespace
}  // namespace hwpat
