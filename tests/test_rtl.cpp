// Unit tests of the RTL simulation kernel: two-phase signal semantics,
// delta-cycle settling, clocking, reset, hierarchy, VCD output and
// failure modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "designs/design.hpp"
#include "designs/saa2vga_shared.hpp"
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

// The signal tests run each case on both kernels: a signal commits,
// rolls back and resets only inside a bound Simulator.
TEST(Signal, TwoPhaseWriteIsInvisibleUntilCommit) {
  for (const bool full_sweep : {false, true}) {
    SCOPED_TRACE(full_sweep ? "full_sweep" : "event");
    Module top(nullptr, "top");
    Bus s(top, "s", 8, 5);
    Simulator sim(top, {.full_sweep = full_sweep});
    sim.reset();
    EXPECT_EQ(s.read(), 5u);
    s.write(9);
    EXPECT_EQ(s.read(), 5u);  // not yet committed
    const std::uint64_t changes = sim.stats().commit_changes;
    sim.settle();
    EXPECT_EQ(s.read(), 9u);
    EXPECT_EQ(sim.stats().commit_changes, changes + 1);
    s.write(9);  // the current value: nothing to commit
    sim.settle();
    EXPECT_EQ(s.read(), 9u);
    EXPECT_EQ(sim.stats().commit_changes, changes + 1);
  }
}

TEST(Signal, BusTruncatesToWidth) {
  for (const bool full_sweep : {false, true}) {
    SCOPED_TRACE(full_sweep ? "full_sweep" : "event");
    Module top(nullptr, "top");
    Bus s(top, "s", 4);
    Bus t(top, "t", 4, 0x1F);
    Simulator sim(top, {.full_sweep = full_sweep});
    sim.reset();
    EXPECT_EQ(t.read(), 0xFu);  // the initial value, too
    s.write(0xFF);
    sim.settle();
    EXPECT_EQ(s.read(), 0xFu);
  }
}

TEST(Signal, ResetValueRestoresInit) {
  for (const bool full_sweep : {false, true}) {
    SCOPED_TRACE(full_sweep ? "full_sweep" : "event");
    Module top(nullptr, "top");
    Bus s(top, "s", 8, 42);
    Simulator sim(top, {.full_sweep = full_sweep});
    sim.reset();
    s.write(7);
    sim.settle();
    EXPECT_EQ(s.read(), 7u);
    sim.reset();
    EXPECT_EQ(s.read(), 42u);
    // An unsettled write does not survive a reset either.
    s.write(9);
    sim.reset();
    sim.settle();
    EXPECT_EQ(s.read(), 42u);
  }
}

TEST(Signal, WidthOutsideOneTo64IsRejected) {
  Module top(nullptr, "top");
  EXPECT_THROW(Bus(top, "none", 0), InternalError);
  EXPECT_THROW(Bus(top, "wide", kMaxBusBits + 1), InternalError);
  EXPECT_TRUE(top.signals().empty());  // neither stayed registered
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
// both run() overloads.  The waveform (about 23 KiB) is more than one
// stream buffer holds.
TEST(Vcd, RunReturnsWithTheWholeFileOnDisk) {
  const std::string path = "test_rtl_run_flush.vcd";
  for (const bool filtered : {false, true}) {
    std::string during;
    {
      auto d = designs::make_saa2vga_pattern(
          {.width = 16, .height = 12,
           .device = devices::DeviceKind::FifoCore, .frames = 2});
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

/// The waveform of one run of `d` to finished(), read back once the
/// simulator is gone.
std::string waveform_of(designs::VideoDesign& d, const std::string& path) {
  {
    Simulator sim(d);
    sim.open_vcd(path);
    sim.reset();
    EXPECT_TRUE(sim.run([&] { return d.finished(); }, 1'000'000).ok());
  }
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The other byte-identity tests compare two runs of one build (two
// kernels, traced and untraced), so a change that moves both sides
// passes them.  This one pins the bytes themselves: the size and FNV-1a
// hash of one waveform per saa2vga binding (FIFO, SRAM, dual-clock,
// shared SRAM and a two-lane tri-clock farm), so a refactor of the
// pattern designs that moves their elaboration order is caught here.
// The first three were last re-pinned when the stream iterators
// dissolved: the designs lost the iterators' renaming wires and gained
// their tie-off wires under the iterator scopes, so the header and the
// id numbering moved.  Every signal both versions have changes at the
// same ticks to the same values (test_dissolution.cpp checks that
// against recordings of the earlier designs).
TEST(Vcd, WaveformBytesNeverMove) {
  struct Pin {
    const char* name;
    std::unique_ptr<designs::VideoDesign> design;
    std::size_t size;
    std::uint64_t hash;
  };
  Pin pins[] = {
      {"fifo_16x12",
       designs::make_saa2vga_pattern(
           {.width = 16, .height = 12,
            .device = devices::DeviceKind::FifoCore}),
       11'807, 0x17d37a9bd92e35c9},
      {"sram_16x12",
       designs::make_saa2vga_pattern(
           {.width = 16, .height = 12, .device = devices::DeviceKind::Sram}),
       47'066, 0x90e628189d837d5a},
      {"triclk_2lane_16x12_5to2to3",
       designs::make_saa2vga_triclk({.width = 16, .height = 12, .lanes = 2}),
       98'385, 0xc454fbba6ed96502},
      {"dualclk_16x12",
       designs::make_saa2vga_dualclk({.width = 16, .height = 12}),
       46'494, 0xe3dda80cabcbab3b},
      {"shared_16x12",
       designs::make_saa2vga_shared({.width = 16, .height = 12}),
       91'686, 0xdcc4c832c774b4c5},
  };
  for (Pin& p : pins) {
    const std::string bytes =
        waveform_of(*p.design, std::string("test_rtl_pin_") + p.name + ".vcd");
    EXPECT_EQ(bytes.size(), p.size) << p.name;
    EXPECT_EQ(fnv1a(bytes), p.hash)
        << p.name << ": 0x" << std::hex << fnv1a(bytes);
  }
}

// A waveform that cannot be written is an error, not a silent loss:
// run() throws from its closing flush, naming the file.
TEST(Vcd, FailedWriteThrowsNamingThePath) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "this host has no /dev/full";
  auto d = designs::make_saa2vga_pattern(
      {.width = 32, .height = 24, .device = devices::DeviceKind::FifoCore});
  Simulator sim(*d);
  sim.open_vcd("/dev/full");
  sim.reset();
  try {
    (void)sim.run([&] { return d->finished(); }, 100'000);
    FAIL() << "run() returned although no VCD byte could be written";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

// Replacing an open VCD ends its waveform, so a write that failed on it
// is reported there, by open_vcd(), naming the old file — the replaced
// writer's destructor could not.  The failed writer is dropped: a
// second call opens the new file.
TEST(Vcd, ReplacingAFailedWriterThrowsNamingItsPath) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "this host has no /dev/full";
  auto d = designs::make_saa2vga_pattern(
      {.width = 32, .height = 24, .device = devices::DeviceKind::FifoCore});
  Simulator sim(*d);
  sim.open_vcd("/dev/full");
  sim.reset();
  sim.step(500);
  const std::string path = "test_rtl_replacement.vcd";
  try {
    sim.open_vcd(path);
    FAIL() << "open_vcd() replaced a writer whose bytes never reached "
              "/dev/full without a word";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
  sim.open_vcd(path);
  EXPECT_TRUE(sim.run([&] { return d->finished(); }, 100'000).ok());
  EXPECT_NE(read_file(path).find("$enddefinitions"), std::string::npos);
  std::remove(path.c_str());
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
