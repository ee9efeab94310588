// Stream iterators and stream containers dissolve at elaboration: an
// algorithm drives and reads its containers' own wires, the iterator
// modules only check the protocol in the validate phase of each edge,
// and a FIFO, LIFO, async-FIFO or line-buffer container is wiring to
// its storage core, which drives the method interface's flags.
//
// The waveforms in tests/data/waveform_*.vcd were recorded, with the
// configurations below, at commit 524e234, when each stream iterator
// was an evaluated module over wires of its own (the designs' `it_in_*`
// and `it_out_*` wires) and each container derived can_pop/can_push
// from its core's flags.  Every rewired design must still produce the
// same waveform on every signal it kept; each signal it dropped is
// listed here, either as dissolved into the wire it renamed (and must
// have carried exactly that wire's values) or as renamed to a tie-off
// wire of the iterator module (and must carry the same values under
// its new path).
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/iterator.hpp"
#include "core/linebuf_container.hpp"
#include "core/stream_cdc.hpp"
#include "core/stream_core.hpp"
#include "designs/design.hpp"
#include "designs/saa2vga_shared.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using rtl::Simulator;
using ::testing::HasSubstr;

#include "data/snapshot_predissolution_saa2vga.inc"

/// tests/data, next to the goldens' directory.
std::string data_path(const std::string& file) {
  return std::string(HWPAT_GOLDEN_DIR) + "/../data/" + file;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The waveform of one run of `d` to finished().
std::string waveform_of(designs::VideoDesign& d, const std::string& path) {
  {
    Simulator sim(d);
    sim.open_vcd(path);
    sim.reset();
    EXPECT_TRUE(sim.run([&] { return d.finished(); }, 1'000'000).ok());
  }
  return tb::slurp_and_remove(path);
}

/// One copy pipeline's iterator pair: the old wire prefixes, the new
/// iterator modules and the buffers' wire prefixes, all under `scope`.
struct IterPair {
  std::string in_old, out_old;  ///< e.g. "it_in", "it_out"
  std::string in_new, out_new;  ///< e.g. "rbuffer_it", "wbuffer_it"
  std::string rb, wb;           ///< e.g. "rb", "wb"
};

/// Old wire -> the wire it was a pure renaming of.
struct Dissolved {
  std::string old_path, wire_path;
};
/// Old wire -> the iterator's tie-off wire that replaced it.
struct Renamed {
  std::string old_path, new_path;
};

struct Case {
  const char* name;
  const char* file;
  std::function<std::unique_ptr<designs::VideoDesign>()> make;
  std::string scope;
  std::vector<IterPair> pairs;
  /// Container wires that dissolved (besides the iterators' wires).
  std::vector<Dissolved> wires = {};
};

std::vector<Case> cases() {
  using devices::DeviceKind;
  const IterPair one{"it_in",      "it_out", "rbuffer_it",
                     "wbuffer_it", "rb",     "wb"};
  return {
      {"saa2vga_pattern_fifo", "waveform_saa2vga_pattern_fifo_8x6.vcd",
       [] {
         return designs::make_saa2vga_pattern(
             {.width = 8, .height = 6, .device = DeviceKind::FifoCore});
       },
       "saa2vga_pattern", {one}},
      {"saa2vga_pattern_sram", "waveform_saa2vga_pattern_sram_8x6.vcd",
       [] {
         return designs::make_saa2vga_pattern(
             {.width = 8, .height = 6, .device = DeviceKind::Sram});
       },
       "saa2vga_pattern", {one}},
      {"saa2vga_dualclk", "waveform_saa2vga_dualclk_8x6.vcd",
       [] { return designs::make_saa2vga_dualclk({.width = 8, .height = 6}); },
       "saa2vga_dualclk", {one}},
      {"saa2vga_shared", "waveform_saa2vga_shared_8x6.vcd",
       [] { return designs::make_saa2vga_shared({.width = 8, .height = 6}); },
       "saa2vga_shared", {one}},
      {"saa2vga_triclk_2lane", "waveform_saa2vga_triclk_2lane_8x6.vcd",
       [] {
         return designs::make_saa2vga_triclk(
             {.width = 8, .height = 6, .lanes = 2});
       },
       "saa2vga_triclk",
       {one,
        {"it_in1", "it_out1", "rbuffer_it1", "wbuffer_it1", "rb1", "wb1"}}},
      {"blur_pattern", "waveform_blur_pattern_8x6.vcd",
       [] { return designs::make_blur_pattern({.width = 8, .height = 6}); },
       "blur_pattern", {one},
       // The line buffer's ready output was the container's own wire,
       // which the container copied to can_push; the device now drives
       // can_push itself.
       {{"blur_pattern.rbuffer.wr_ready", "blur_pattern.rb_can_push"}}},
  };
}

void list_pair(const std::string& scope, const IterPair& p,
               std::vector<Dissolved>& dissolved,
               std::vector<Renamed>& renamed) {
  // `<scope>.<prefix>_<field>`, the naming of a parent-owned bundle.
  const auto wire = [&](const std::string& prefix) {
    return [&scope, prefix](const char* f) {
      return scope + "." + prefix + "_" + f;
    };
  };
  const auto old_in = wire(p.in_old), old_out = wire(p.out_old);
  const auto rb = wire(p.rb), wb = wire(p.wb);
  // Input iterator: ready/rvalid were can_pop, rdata was front, and the
  // advance strobe inc drove pop.
  dissolved.push_back({old_in("inc"), rb("pop")});
  dissolved.push_back({old_in("ready"), rb("can_pop")});
  dissolved.push_back({old_in("rvalid"), rb("can_pop")});
  dissolved.push_back({old_in("rdata"), rb("front")});
  for (const char* f : {"dec", "read", "write", "index", "index_pos", "wdata"})
    renamed.push_back({old_in(f), scope + "." + p.in_new + "." + f});
  // Output iterator: ready was can_push, write drove push and wdata
  // drove push_data.
  dissolved.push_back({old_out("write"), wb("push")});
  dissolved.push_back({old_out("ready"), wb("can_push")});
  dissolved.push_back({old_out("wdata"), wb("push_data")});
  for (const char* f :
       {"inc", "dec", "read", "index", "index_pos", "rdata", "rvalid"})
    renamed.push_back({old_out(f), scope + "." + p.out_new + "." + f});
}

TEST(Dissolution, WaveformsMatchTheRecordingOnEveryKeptSignal) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    tb::VcdTrace old_w = tb::parse_vcd(read_file(data_path(c.file)));
    const auto design = c.make();
    tb::VcdTrace new_w = tb::parse_vcd(waveform_of(
        *design, std::string("test_dissolution_") + c.name + ".vcd"));
    ASSERT_FALSE(old_w.empty());
    ASSERT_FALSE(new_w.empty());

    std::vector<Dissolved> dissolved = c.wires;
    std::vector<Renamed> renamed;
    for (const IterPair& p : c.pairs) list_pair(c.scope, p, dissolved, renamed);
    for (const Dissolved& d : dissolved) {
      ASSERT_EQ(old_w.count(d.old_path), 1u) << d.old_path;
      ASSERT_EQ(old_w.count(d.wire_path), 1u) << d.wire_path;
      EXPECT_EQ(new_w.count(d.old_path), 0u) << d.old_path;
      EXPECT_TRUE(old_w[d.old_path] == old_w[d.wire_path])
          << d.old_path << " was not a pure renaming of " << d.wire_path;
    }
    for (const Renamed& r : renamed) {
      ASSERT_EQ(old_w.count(r.old_path), 1u) << r.old_path;
      ASSERT_EQ(new_w.count(r.new_path), 1u) << r.new_path;
      EXPECT_EQ(new_w.count(r.old_path), 0u) << r.old_path;
      EXPECT_EQ(old_w.count(r.new_path), 0u) << r.new_path;
      EXPECT_TRUE(old_w[r.old_path] == new_w[r.new_path])
          << r.old_path << " -> " << r.new_path;
    }
    for (const Dissolved& d : dissolved) old_w.erase(d.old_path);
    for (const Renamed& r : renamed) {
      old_w.erase(r.old_path);
      new_w.erase(r.new_path);
    }
    // What is left is the signals both waveforms have: the same paths,
    // changing at the same ticks to the same values.
    std::vector<std::string> only_old, only_new;
    for (const auto& [path, ch] : old_w)
      if (new_w.count(path) == 0) only_old.push_back(path);
    for (const auto& [path, ch] : new_w)
      if (old_w.count(path) == 0) only_new.push_back(path);
    EXPECT_TRUE(only_old.empty()) << "unlisted old path " << only_old.front();
    EXPECT_TRUE(only_new.empty()) << "unlisted new path " << only_new.front();
    const auto diff = tb::first_vcd_difference(old_w, new_w);
    EXPECT_FALSE(diff.has_value())
        << "first difference at tick " << diff->tick << ": " << diff->path;
  }
}

// The report a failing differential test prints: by path, not by VCD
// id, so waveforms with different id assignments still compare.
TEST(Dissolution, VcdReportNamesTheFirstDifferenceByPath) {
  const std::string a =
      "$scope module top $end\n$var wire 1 ! x $end\n"
      "$var wire 4 \" y $end\n$upscope $end\n$enddefinitions $end\n"
      "#0\n0!\nb0000 \"\n#2\n1!\n#5\nb0011 \"\n";
  // Same signals under swapped ids; y moves at tick 4 instead of 5.
  const std::string b =
      "$scope module top $end\n$var wire 4 ! y $end\n"
      "$var wire 1 \" x $end\n$upscope $end\n$enddefinitions $end\n"
      "#0\n0\"\nb0000 !\n#2\n1\"\n#4\nb0011 !\n";
  const tb::VcdTrace ta = tb::parse_vcd(a);
  ASSERT_EQ(ta.size(), 2u);
  EXPECT_TRUE(ta.at("top.x") == tb::parse_vcd(b).at("top.x"));
  const std::string report = tb::vcd_difference_report(a, b);
  EXPECT_THAT(report, HasSubstr("tick 4"));
  EXPECT_THAT(report, HasSubstr("top.y = 0x0 vs 0x3"));
  EXPECT_THAT(tb::vcd_difference_report(a, a),
              HasSubstr("no value difference on the 2 common paths"));
}

// Every stream iterator of a rewired design evaluates nothing and has
// no sequential process: it is comb-only, and only checks the protocol
// in the validate phase.
TEST(Dissolution, StreamIteratorsAreCombOnlyCheckers) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto design = c.make();
    Simulator sim(*design);
    int iterators = 0;
    design->visit([&](rtl::Module& m) {
      if (dynamic_cast<core::StreamInputIterator*>(&m) == nullptr &&
          dynamic_cast<core::StreamOutputIterator*>(&m) == nullptr)
        return;
      ++iterators;
      EXPECT_TRUE(m.comb_only()) << m.full_name();
      EXPECT_TRUE(m.has_clock_check()) << m.full_name();
    });
    EXPECT_EQ(iterators, 2 * static_cast<int>(c.pairs.size()));
  }
}

/// A stack fed and drained by testbench modules: the LIFO binding,
/// which no shipped design uses.
struct StackTop : rtl::Module {
  core::StreamWires w{*this, "st", 8, 8};
  core::CoreStreamContainer stack{this, "stack",
                                  {.kind = core::ContainerKind::Stack,
                                   .elem_bits = 8, .depth = 4},
                                  w.impl()};
  tb::StreamFeeder feeder{this, "feeder", w.producer(), {1, 2, 3, 4, 5}};
  tb::StreamDrainer drainer{this, "drainer", w.consumer()};
  StackTop() : Module(nullptr, "stacktop") {}
  void declare_state() override { declare_comb_only(); }
};

/// Runs `top` from reset until `done` with a module profile, and checks
/// that no stream container under it is evaluated after reset, while
/// its core (or the core's two sides) is.  Adds each container's
/// binding to `kinds`.
void expect_containers_idle(rtl::Module& top,
                            const std::function<bool()>& done,
                            std::set<std::string>& kinds) {
  Simulator sim(top);
  sim.reset();
  sim.trace_start({.profile_modules = true});
  ASSERT_TRUE(sim.run(done, 1'000'000).ok());
  std::map<std::string, std::uint64_t> evals;
  for (const rtl::ModuleProfile& m : sim.telemetry()->hot_modules(SIZE_MAX))
    evals[m.path] = m.eval_calls;
  top.visit([&](rtl::Module& m) {
    const char* kind = nullptr;
    if (const auto* c = dynamic_cast<core::CoreStreamContainer*>(&m))
      kind = c->kind() == core::ContainerKind::Stack ? "LIFO" : "FIFO";
    else if (dynamic_cast<core::CdcStreamContainer*>(&m) != nullptr)
      kind = "async FIFO";
    else if (dynamic_cast<core::LineBufferContainer*>(&m) != nullptr)
      kind = "line buffer";
    if (kind == nullptr) return;
    kinds.insert(kind);
    EXPECT_EQ(evals[m.full_name()], 0u) << m.full_name();
    ASSERT_EQ(m.children().size(), 1u) << m.full_name();
    const rtl::Module& core = *m.children().front();
    std::uint64_t core_evals = evals[core.full_name()];
    for (const rtl::Module* side : core.children())
      core_evals += evals[side->full_name()];
    EXPECT_GT(core_evals, 0u) << core.full_name();
  });
}

// Every stream container is wiring to its storage core, which drives
// the method interface's flags: once reset has settled, no container
// of the shipped designs (FIFO, async-FIFO and line-buffer bindings)
// or of a stack (the LIFO binding) is evaluated again.
TEST(Dissolution, StreamContainersAreNotEvaluatedAfterReset) {
  std::set<std::string> kinds;
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto design = c.make();
    expect_containers_idle(*design, [&] { return design->finished(); },
                           kinds);
  }
  StackTop stack;
  expect_containers_idle(
      stack, [&] { return stack.drainer.got().size() == 5; }, kinds);
  EXPECT_EQ(stack.drainer.got().size(), 5u);
  EXPECT_EQ(kinds, (std::set<std::string>{"FIFO", "LIFO", "async FIFO",
                                          "line buffer"}));
}

// A blob saved before the change names modules and signals the design
// no longer has: the restore is refused at the topology hash, before
// anything is touched.
TEST(Dissolution, BlobSavedBeforeTheChangeIsATopologyMismatch) {
  const auto design = designs::make_saa2vga_pattern(
      {.width = 8, .height = 6, .buffer_depth = 4,
       .device = devices::DeviceKind::FifoCore});
  Simulator sim(*design);
  sim.reset();
  sim.step(40);
  const rtl::Snapshot mine = sim.save_snapshot();
  const rtl::Snapshot old(std::vector<std::uint8_t>(
      std::begin(kPreDissolutionSaa2VgaBlob),
      std::end(kPreDissolutionSaa2VgaBlob)));
  try {
    sim.restore_snapshot(old);
    FAIL() << "a blob of the pre-dissolution design was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("topology hash mismatch"));
  }
  EXPECT_TRUE(sim.save_snapshot() == mine);
}

// Module paths name exactly one module: elaboration refuses two
// siblings with the same name, naming the parent and the name.
TEST(Dissolution, DuplicateSiblingNamesAreRejected) {
  struct Leaf : rtl::Module {
    using Module::Module;
  };
  struct Top : rtl::Module {
    Leaf mid{this, "mid"};
    Leaf a{&mid, "it"};
    Leaf b{&mid, "other"};
    Leaf c{&mid, "it"};
    Top() : Module(nullptr, "dup") {}
  } top;
  try {
    Simulator sim(top);
    FAIL() << "two siblings named 'it' were accepted";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), HasSubstr("'dup.mid'"));
    EXPECT_THAT(e.what(), HasSubstr("two children named 'it'"));
  }
  // Cousins may share a name: only siblings are ambiguous.
  struct Cousins : rtl::Module {
    Leaf l{this, "l"}, r{this, "r"};
    Leaf li{&l, "it"}, ri{&r, "it"};
    Cousins() : Module(nullptr, "cousins") {}
  } cousins;
  EXPECT_NO_THROW(Simulator sim(cousins));
}

}  // namespace
}  // namespace hwpat
