// Unit tests of the RTL simulation kernel: two-phase signal semantics,
// delta-cycle settling, clocking, reset, hierarchy, VCD output and
// failure modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "designs/design.hpp"
#include "rtl/simulator.hpp"
#include "rtl/vcd.hpp"

namespace hwpat::rtl {
namespace {

/// A registered counter with combinational "is-max" flag.
class Counter : public Module {
 public:
  Counter(Module* parent, std::string name, int width, Word max)
      : Module(parent, std::move(name)),
        max_(max),
        value(*this, "value", width),
        at_max(*this, "at_max") {}

  void eval_comb() override { at_max.write(value.read() == max_); }
  void on_clock() override {
    value.write(value.read() == max_ ? 0 : value.read() + 1);
  }

  Word max_;
  Bus value;
  Bit at_max;
};

/// A 3-stage combinational chain: c = b+1, b = a+1.
class CombChain : public Module {
 public:
  CombChain(Module* parent)
      : Module(parent, "chain"),
        a(*this, "a", 8),
        b(*this, "b", 8),
        c(*this, "c", 8) {}

  void eval_comb() override {
    b.write(a.read() + 1);
    c.write(b.read() + 1);
  }

  Bus a, b, c;
};

/// Intentional combinational feedback: x = x + 1.
class CombLoop : public Module {
 public:
  explicit CombLoop(Module* parent)
      : Module(parent, "loop"), x(*this, "x", 8) {}
  void eval_comb() override { x.write(x.read() + 1); }
  Bus x;
};

TEST(Signal, TwoPhaseWriteIsInvisibleUntilCommit) {
  Module top(nullptr, "top");
  Bus s(top, "s", 8, 5);
  EXPECT_EQ(s.read(), 5u);
  s.write(9);
  EXPECT_EQ(s.read(), 5u);  // not yet committed
  EXPECT_TRUE(s.commit());
  EXPECT_EQ(s.read(), 9u);
  EXPECT_FALSE(s.commit());  // unchanged
}

TEST(Signal, BusTruncatesToWidth) {
  Module top(nullptr, "top");
  Bus s(top, "s", 4);
  s.write(0xFF);
  s.commit();
  EXPECT_EQ(s.read(), 0xFu);
}

TEST(Signal, ResetValueRestoresInit) {
  Module top(nullptr, "top");
  Bus s(top, "s", 8, 42);
  s.write(7);
  s.commit();
  s.reset_value();
  EXPECT_EQ(s.read(), 42u);
}

TEST(Signal, FullNameIsHierarchical) {
  Module top(nullptr, "top");
  Module sub(&top, "sub");
  Bit b(sub, "flag");
  EXPECT_EQ(b.full_name(), "top.sub.flag");
}

TEST(Module, HierarchyAndVisit) {
  Module top(nullptr, "top");
  Module a(&top, "a");
  Module b(&top, "b");
  Module aa(&a, "aa");
  EXPECT_EQ(aa.full_name(), "top.a.aa");
  int count = 0;
  top.visit([&](Module&) { ++count; });
  EXPECT_EQ(count, 4);
  EXPECT_EQ(top.children().size(), 2u);
}

TEST(Simulator, CounterCounts) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  EXPECT_EQ(top.value.read(), 0u);
  sim.step(5);
  EXPECT_EQ(top.value.read(), 5u);
  EXPECT_EQ(sim.cycle(), 5u);
}

TEST(Simulator, CounterWrapsAtMax) {
  Counter top(nullptr, "cnt", 4, 3);
  Simulator sim(top);
  sim.reset();
  sim.step(3);
  EXPECT_TRUE(top.at_max.read());
  sim.step();
  EXPECT_EQ(top.value.read(), 0u);
}

TEST(Simulator, CombChainSettlesAcrossDeltas) {
  CombChain top(nullptr);
  Simulator sim(top);
  sim.reset();
  top.a.write(10);
  sim.settle();
  EXPECT_EQ(top.b.read(), 11u);
  EXPECT_EQ(top.c.read(), 12u);
}

TEST(Simulator, CombLoopRaises) {
  CombLoop top(nullptr);
  Simulator sim(top);
  EXPECT_THROW(sim.settle(), CombLoopError);
}

TEST(Simulator, DeltaLimitIsConfigurable) {
  CombLoop top(nullptr);
  Simulator sim(top);
  sim.set_delta_limit(7);
  try {
    sim.settle();
    FAIL() << "expected CombLoopError";
  } catch (const CombLoopError& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos);
  }
}

TEST(Simulator, ResetRestoresState) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  sim.step(42);
  sim.reset();
  EXPECT_EQ(top.value.read(), 0u);
  EXPECT_EQ(sim.cycle(), 0u);
}

TEST(Simulator, RunStopsOnCondition) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  const RunStatus st =
      sim.run([&] { return top.value.read() == 17; }, 1000);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.steps, 17u);
}

TEST(Simulator, RunReportsTimeoutAsValue) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  const RunStatus st = sim.run([] { return false; }, 10);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.result, RunResult::Timeout);
  EXPECT_EQ(st.steps, 10u);
  // The diagnostic string names the stall point.
  EXPECT_NE(sim.progress_report().find("cycle 10"), std::string::npos);
}

TEST(Vcd, ProducesHeaderAndChanges) {
  const std::string path = "test_rtl_wave.vcd";
  {
    Counter top(nullptr, "cnt", 8, 255);
    Simulator sim(top);
    sim.open_vcd(path);
    sim.reset();
    sim.step(3);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("$scope module cnt"), std::string::npos);
  EXPECT_NE(all.find("$var wire 8"), std::string::npos);
  EXPECT_NE(all.find("#3"), std::string::npos);
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// run() returns with the whole waveform on disk: the file read while
// the simulator is still alive equals the file after destruction, for
// both run() overloads.  The waveform (about 16 KiB) is more than one
// stream buffer holds.
TEST(Vcd, RunReturnsWithTheWholeFileOnDisk) {
  const std::string path = "test_rtl_run_flush.vcd";
  for (const bool filtered : {false, true}) {
    std::string during;
    {
      auto d = designs::make_saa2vga_pattern(
          {.width = 16, .height = 12,
           .device = devices::DeviceKind::FifoCore});
      Simulator sim(*d);
      sim.open_vcd(path);
      sim.reset();
      const auto done = [&] { return d->finished(); };
      const RunStatus st =
          filtered ? sim.run(done, 100'000, 0) : sim.run(done, 100'000);
      ASSERT_TRUE(st.ok());
      during = read_file(path);
    }
    const std::string after = read_file(path);
    std::remove(path.c_str());
    const char* overload = filtered ? "domain-filtered run()" : "run()";
    EXPECT_GT(after.size(), 16'384u);
    ASSERT_EQ(during.size(), after.size()) << overload;
    EXPECT_TRUE(during == after) << overload;
  }
}

TEST(PrimitiveTally, AccumulatesAndMaxFoldsDepth) {
  PrimitiveTally a, b;
  a.regs(8).adder(4).depth(3);
  b.regs(2).lut(5).depth(5);
  a.add(b);
  EXPECT_EQ(a.reg_bits, 10);
  EXPECT_EQ(a.add_bits, 4);
  EXPECT_EQ(a.lut_raw, 5);
  EXPECT_EQ(a.logic_levels, 5);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(PrimitiveTally{}.empty());
}

TEST(PrimitiveTally, FsmAddsStateRegsAndLogic) {
  PrimitiveTally t;
  t.fsm(5, 10);
  EXPECT_EQ(t.reg_bits, 3);  // clog2(5)
  EXPECT_GT(t.lut_raw, 0);
}

}  // namespace
}  // namespace hwpat::rtl
