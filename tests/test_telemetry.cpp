// Telemetry (rtl/trace.hpp): the wall-clock instruments must observe
// without perturbing.  What is pinned here:
//
//   * Zero-interference: with a profiling tracer attached, the
//     deterministic outputs — every Simulator::Stats counter and the
//     VCD byte stream — are identical to the untraced run, across both
//     kernels and on a multi-domain design.
//   * Coverage: one span per kernel phase occurrence (edge events,
//     settles, reset, snapshot save/restore), time-ordered.
//   * Bounded memory: a tiny ring drops the oldest spans and counts
//     them; phase totals keep accumulating regardless.
//   * Per-module profiling: call counts match the deterministic eval
//     counter, and the hot-modules report names real module paths.
//   * Chrome-trace JSON: loadable shape (metadata + "X" events, the
//     "hwpat" summary block).
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "designs/design.hpp"
#include "designs/saa2vga_triclk.hpp"
#include "rtl/rtl.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using ::testing::HasSubstr;
using rtl::Module;
using rtl::ModuleProfile;
using rtl::Simulator;
using rtl::Tracer;
using rtl::TracePhase;
using rtl::TraceSpan;
using tb::slurp_and_remove;

void expect_stats_eq(const Simulator::Stats& a, const Simulator::Stats& b,
                     const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.settles, b.settles) << label;
  EXPECT_EQ(a.deltas, b.deltas) << label;
  EXPECT_EQ(a.evals, b.evals) << label;
  EXPECT_EQ(a.commits, b.commits) << label;
  EXPECT_EQ(a.commit_changes, b.commit_changes) << label;
  EXPECT_EQ(a.seq_touches, b.seq_touches) << label;
  EXPECT_EQ(a.seq_skips, b.seq_skips) << label;
  EXPECT_EQ(a.edges, b.edges) << label;
  EXPECT_EQ(a.act_skips, b.act_skips) << label;
  EXPECT_EQ(a.partition_settles, b.partition_settles) << label;
  EXPECT_EQ(a.partition_skips, b.partition_skips) << label;
  EXPECT_EQ(a.domain_edges, b.domain_edges) << label;
}

struct Out {
  Simulator::Stats stats;
  std::vector<video::Frame> frames;
  std::string vcd;
};

// ---------------------------------------------------------------------
// Zero-interference: tracer on vs off, both kernels
// ---------------------------------------------------------------------

TEST(Telemetry, TracerDoesNotPerturbStatsOrVcd) {
  const designs::Saa2VgaConfig cfg{.width = 12, .height = 8,
                                   .buffer_depth = 16,
                                   .device = devices::DeviceKind::FifoCore,
                                   .frames = 1};
  for (const bool full_sweep : {false, true}) {
    const std::string label =
        full_sweep ? std::string("full_sweep") : std::string("event");
    auto run = [&](bool traced) {
      auto d = designs::make_saa2vga_pattern(cfg);
      const std::string path =
          "telemetry_" + label + (traced ? "_on.vcd" : "_off.vcd");
      Out out;
      {
        Simulator sim(*d, {.full_sweep = full_sweep});
        if (traced) {
          Tracer::Options topt;
          topt.profile_modules = true;
          sim.trace_start(topt);
        }
        sim.open_vcd(path);
        sim.reset();
        EXPECT_TRUE(
            sim.run([&] { return d->finished(); }, 2'000'000).ok())
            << sim.progress_report();
        out.stats = sim.stats();
        if (traced) { EXPECT_GT(sim.telemetry()->span_count(), 0u); }
      }  // destroying the simulator flushes the VCD stream
      out.frames = d->sink().frames();
      out.vcd = slurp_and_remove(path);
      return out;
    };
    const Out off = run(false);
    const Out on = run(true);
    SCOPED_TRACE(label);
    expect_stats_eq(off.stats, on.stats, label);
    EXPECT_EQ(off.frames, on.frames) << label;
    EXPECT_EQ(off.vcd, on.vcd) << label;
  }
}

TEST(Telemetry, TracerDoesNotPerturbTriClockFarm) {
  // Tri-clock farm: three settle partitions, so the traced run records
  // per-partition spans on top of the single-domain phases.
  const designs::Saa2VgaTriClkConfig cfg{.width = 8, .height = 6,
                                         .cdc_depth = 8, .frames = 1,
                                         .lanes = 3};
  auto run = [&](bool traced) {
    designs::Saa2VgaTriClk d(cfg);
    const std::string path =
        std::string("telemetry_farm") + (traced ? "_on.vcd" : "_off.vcd");
    Out out;
    {
      Simulator sim(d);
      if (traced) sim.trace_start();
      sim.open_vcd(path);
      sim.reset();
      EXPECT_TRUE(
          sim.run([&] { return d.finished(); }, 2'000'000, 0).ok())
          << sim.progress_report();
      out.stats = sim.stats();
      if (traced) {
        EXPECT_GT(
            sim.telemetry()->phase_total(TracePhase::PartitionSettle).count,
            0u);
      }
    }
    out.frames = d.sink().frames();
    out.vcd = slurp_and_remove(path);
    return out;
  };
  const Out off = run(false);
  const Out on = run(true);
  expect_stats_eq(off.stats, on.stats, "farm");
  EXPECT_EQ(off.frames, on.frames);
  EXPECT_EQ(off.vcd, on.vcd);
}

// ---------------------------------------------------------------------
// Span coverage and ordering
// ---------------------------------------------------------------------

TEST(Telemetry, SpansCoverKernelPhasesInTimeOrder) {
  auto d = designs::make_saa2vga_pattern(
      {.width = 8, .height = 6, .buffer_depth = 16,
       .device = devices::DeviceKind::FifoCore, .frames = 1});
  Simulator sim(*d);
  sim.trace_start();
  sim.reset();
  sim.step(50);
  const Tracer& t = *sim.telemetry();
  // Phase counts agree with the deterministic counters (checked before
  // the snapshot dance: restore_snapshot rolls the *counters* back to
  // the save point, while the tracer keeps its wall-clock history).
  EXPECT_EQ(t.phase_total(TracePhase::Reset).count, 1u);
  EXPECT_EQ(t.phase_total(TracePhase::EdgeEvent).count, sim.stats().steps);
  EXPECT_EQ(t.phase_total(TracePhase::Settle).count, sim.stats().settles);
  const rtl::Snapshot snap = sim.save_snapshot();
  sim.step(10);
  sim.restore_snapshot(snap);
  EXPECT_EQ(t.phase_total(TracePhase::SnapshotSave).count, 1u);
  EXPECT_EQ(t.phase_total(TracePhase::SnapshotRestore).count, 1u);
  EXPECT_GT(t.phase_total(TracePhase::EdgeEvent).count,
            sim.stats().steps);  // history survives the rollback
  // A snapshot span's arg is the blob size.
  bool saw_save = false;
  std::uint64_t prev_start = 0;
  for (const TraceSpan& s : t.spans()) {
    EXPECT_GE(s.start_ns, prev_start);  // spans() sorts by start time
    prev_start = s.start_ns;
    if (s.phase == TracePhase::SnapshotSave) {
      saw_save = true;
      EXPECT_GT(s.arg, 0u);
    }
  }
  EXPECT_TRUE(saw_save);
  // trace_stop() detaches: the hooks are gone, the handle is null.
  sim.trace_stop();
  EXPECT_EQ(sim.telemetry(), nullptr);
  sim.step(5);
  EXPECT_THROW(sim.trace_write("unreachable.json"), Error);
}

TEST(Telemetry, BoundedRingDropsOldestAndCounts) {
  auto d = designs::make_saa2vga_pattern(
      {.width = 8, .height = 6, .buffer_depth = 16,
       .device = devices::DeviceKind::FifoCore, .frames = 1});
  Simulator sim(*d);
  Tracer::Options topt;
  topt.ring_capacity = 16;
  sim.trace_start(topt);
  sim.reset();
  sim.step(200);  // far more spans than the ring retains
  const Tracer& t = *sim.telemetry();
  EXPECT_GT(t.dropped(), 0u);
  EXPECT_LE(t.span_count(), 16u);
  // Phase totals survive eviction: every edge is still accounted.
  EXPECT_EQ(t.phase_total(TracePhase::EdgeEvent).count, sim.stats().steps);
}

// ---------------------------------------------------------------------
// Per-module profiling
// ---------------------------------------------------------------------

TEST(Telemetry, HotModulesAttributeEvalAndClockCalls) {
  auto d = designs::make_saa2vga_pattern(
      {.width = 8, .height = 6, .buffer_depth = 16,
       .device = devices::DeviceKind::FifoCore, .frames = 1});
  Simulator sim(*d);
  Tracer::Options topt;
  topt.profile_modules = true;
  sim.trace_start(topt);
  sim.reset();
  ASSERT_TRUE(sim.run([&] { return d->finished(); }, 2'000'000).ok())
      << sim.progress_report();
  const Tracer& t = *sim.telemetry();
  const std::vector<ModuleProfile> hot = t.hot_modules(5);
  ASSERT_FALSE(hot.empty());
  EXPECT_LE(hot.size(), 5u);
  // Hottest first, and the profile totals fold every eval_comb() the
  // deterministic counter saw (summed over ALL modules, so compare
  // against the unbounded listing).
  for (std::size_t i = 1; i < hot.size(); ++i)
    EXPECT_GE(hot[i - 1].total_ns(), hot[i].total_ns());
  std::uint64_t eval_calls = 0;
  for (const ModuleProfile& m : t.hot_modules(1u << 20))
    eval_calls += m.eval_calls;
  EXPECT_EQ(eval_calls, sim.stats().evals);
  const std::string report = t.hot_modules_report(5);
  EXPECT_THAT(report, HasSubstr(hot.front().path));
  // Profiling off: no modules, empty report (fresh design — a module
  // tree binds to one simulator at a time).
  auto d2 = designs::make_saa2vga_pattern(
      {.width = 8, .height = 6, .buffer_depth = 16,
       .device = devices::DeviceKind::FifoCore, .frames = 1});
  Simulator plain(*d2);
  plain.trace_start();
  plain.reset();
  plain.step(5);
  EXPECT_TRUE(plain.telemetry()->hot_modules(5).empty());
  EXPECT_EQ(plain.telemetry()->hot_modules_report(5), "");
}

// ---------------------------------------------------------------------
// Chrome-trace JSON shape
// ---------------------------------------------------------------------

TEST(Telemetry, ChromeJsonHasLoadableShape) {
  auto d = designs::make_saa2vga_pattern(
      {.width = 8, .height = 6, .buffer_depth = 16,
       .device = devices::DeviceKind::FifoCore, .frames = 1});
  Simulator sim(*d);
  Tracer::Options topt;
  topt.profile_modules = true;
  sim.trace_start(topt);
  sim.reset();
  sim.step(40);
  std::ostringstream os;
  sim.telemetry()->write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_THAT(json, HasSubstr("\"traceEvents\""));
  EXPECT_THAT(json, HasSubstr("\"process_name\""));
  EXPECT_THAT(json, HasSubstr("\"thread_name\""));
  EXPECT_THAT(json, HasSubstr("\"ph\": \"X\""));
  EXPECT_THAT(json, HasSubstr("\"edge_event\""));
  EXPECT_THAT(json, HasSubstr("\"hwpat\""));
  EXPECT_THAT(json, HasSubstr("\"hot_modules\""));
  // Braces and brackets balance (the file parses as one JSON object).
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
  // The file overload writes the same bytes.
  const std::string path = "telemetry_shape.trace.json";
  sim.trace_write(path);
  EXPECT_EQ(slurp_and_remove(path), json);
}

}  // namespace
}  // namespace hwpat
