// Multi-clock scheduler throughput (google-benchmark): the dual-clock
// saa2vga design across pixel/memory clock ratios, event-driven vs the
// full-sweep reference kernel.
//
// Each iteration builds a fresh design and simulates it to completion
// (reset, CDC fill, frames, drain).  Beyond the kernel counters of
// bench_sim_kernel, this reports the multi-clock quantities:
//
//   steps_per_sec     clock-edge events per wall second
//   edges_per_step    domain edges per event (> 1 when domains align)
//   pix_edges/mem_edges  per-domain edge totals per run
//   act_skips_per_edge   on_clock() calls avoided per edge by the
//                        per-domain activation lists (the former
//                        O(all-modules) per-edge loop)
//
// bench/run_bench.sh runs this with JSON output into
// BENCH_multiclock.json; the deterministic counters are gated in CI by
// bench_stats_gate --check against bench/baselines.json.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "designs/design.hpp"
#include "rtl/simulator.hpp"

namespace {

using namespace hwpat;

template <bool FullSweep>
void BM_Saa2VgaDualClk(benchmark::State& state) {
  const designs::Saa2VgaDualClkConfig cfg{
      .width = 32,
      .height = 24,
      .cdc_depth = 16,
      .frames = 1,
      .pix_period = state.range(0),
      .mem_period = state.range(1)};
  std::uint64_t cycles = 0;
  rtl::Simulator::Stats stats;
  std::uint64_t pix_edges = 0, mem_edges = 0;
  for (auto _ : state) {
    auto d = designs::make_saa2vga_dualclk(cfg);
    rtl::Simulator sim(*d, {.full_sweep = FullSweep});
    sim.reset();
    if (!sim.run([&] { return d->finished(); }, 50'000'000))
      throw Error("bench_multiclock: timeout (" + sim.progress_report() +
                  ")");
    cycles += sim.cycle();
    stats.steps += sim.stats().steps;
    stats.evals += sim.stats().evals;
    stats.commits += sim.stats().commits;
    stats.edges += sim.stats().edges;
    stats.act_skips += sim.stats().act_skips;
    pix_edges += sim.stats().domain_edges[0];
    mem_edges += sim.stats().domain_edges[1];
    benchmark::DoNotOptimize(d->sink().pixels_received());
  }
  const auto per_iter = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["sim_cycles"] = benchmark::Counter(per_iter(cycles));
  state.counters["evals_per_step"] = benchmark::Counter(
      static_cast<double>(stats.evals) / static_cast<double>(stats.steps));
  state.counters["edges_per_step"] = benchmark::Counter(
      static_cast<double>(stats.edges) / static_cast<double>(stats.steps));
  state.counters["pix_edges"] = benchmark::Counter(per_iter(pix_edges));
  state.counters["mem_edges"] = benchmark::Counter(per_iter(mem_edges));
  state.counters["act_skips_per_edge"] = benchmark::Counter(
      static_cast<double>(stats.act_skips) /
      static_cast<double>(stats.edges));
}

template <bool FullSweep>
void BM_Saa2VgaTriClk(benchmark::State& state) {
  const designs::Saa2VgaTriClkConfig cfg{
      .width = 32,
      .height = 24,
      .cdc_depth = 16,
      .frames = 1,
      .cam_period = state.range(0),
      .mem_period = state.range(1),
      .pix_period = state.range(2)};
  std::uint64_t cycles = 0;
  rtl::Simulator::Stats stats;
  for (auto _ : state) {
    auto d = designs::make_saa2vga_triclk(cfg);
    rtl::Simulator sim(*d, {.full_sweep = FullSweep});
    sim.reset();
    if (!sim.run([&] { return d->finished(); }, 50'000'000))
      throw Error("bench_multiclock: timeout (" + sim.progress_report() +
                  ")");
    cycles += sim.cycle();
    stats.steps += sim.stats().steps;
    stats.evals += sim.stats().evals;
    stats.edges += sim.stats().edges;
    stats.act_skips += sim.stats().act_skips;
    stats.partition_settles += sim.stats().partition_settles;
    stats.partition_skips += sim.stats().partition_skips;
    benchmark::DoNotOptimize(d->sink().pixels_received());
  }
  state.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["sim_cycles"] = benchmark::Counter(
      static_cast<double>(cycles) / static_cast<double>(state.iterations()));
  state.counters["evals_per_step"] = benchmark::Counter(
      static_cast<double>(stats.evals) / static_cast<double>(stats.steps));
  state.counters["edges_per_step"] = benchmark::Counter(
      static_cast<double>(stats.edges) / static_cast<double>(stats.steps));
  state.counters["act_skips_per_edge"] = benchmark::Counter(
      static_cast<double>(stats.act_skips) /
      static_cast<double>(stats.edges));
  // Fraction of (settle, partition) slots skipped as quiet subtrees —
  // the per-domain settle partitioning at work (0 under full sweep,
  // which has no partitioned dirty sets).
  const double slots = static_cast<double>(stats.partition_settles +
                                           stats.partition_skips);
  state.counters["partition_skip_frac"] = benchmark::Counter(
      slots == 0.0 ? 0.0
                   : static_cast<double>(stats.partition_skips) / slots);
}

/// Tri-clock capture farm: `lanes` (range(0)) independent
/// camera→memory→pixel pipelines share the same three domains, so each
/// of the three settle partitions is lanes× as heavy.
void BM_Saa2VgaTriClkFarm(benchmark::State& state) {
  // Aligned 1:1:1 periods: every event fires all three domains, so the
  // post-edge settle has three dirty partitions per delta (the coprime
  // default mostly dirties one).
  const designs::Saa2VgaTriClkConfig cfg{.width = 32,
                                         .height = 24,
                                         .cdc_depth = 16,
                                         .frames = 1,
                                         .cam_period = 1,
                                         .mem_period = 1,
                                         .pix_period = 1,
                                         .lanes =
                                             static_cast<int>(state.range(0))};
  std::uint64_t cycles = 0;
  rtl::Simulator::Stats stats;
  for (auto _ : state) {
    auto d = designs::make_saa2vga_triclk(cfg);
    rtl::Simulator sim(*d);
    sim.reset();
    if (!sim.run([&] { return d->finished(); }, 50'000'000))
      throw Error("bench_multiclock: timeout (" + sim.progress_report() +
                  ")");
    cycles += sim.cycle();
    stats.steps += sim.stats().steps;
    stats.evals += sim.stats().evals;
    stats.deltas += sim.stats().deltas;
    stats.partition_settles += sim.stats().partition_settles;
    benchmark::DoNotOptimize(d->sink().pixels_received());
  }
  state.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["sim_cycles"] = benchmark::Counter(
      static_cast<double>(cycles) / static_cast<double>(state.iterations()));
  state.counters["evals_per_step"] = benchmark::Counter(
      static_cast<double>(stats.evals) / static_cast<double>(stats.steps));
  state.counters["psettles_per_step"] = benchmark::Counter(
      static_cast<double>(stats.partition_settles) /
      static_cast<double>(stats.steps));
}

}  // namespace

BENCHMARK(BM_Saa2VgaDualClk<false>)
    ->Name("saa2vga_dualclk/event")
    ->Args({1, 1})
    ->Args({3, 1})
    ->Args({1, 3})
    ->Args({3, 7});
BENCHMARK(BM_Saa2VgaDualClk<true>)
    ->Name("saa2vga_dualclk/full_sweep")
    ->Args({1, 1})
    ->Args({3, 1});
// Tri-clock: camera/memory/pixel periods; 5:2:3 is the pairwise-
// coprime stress case for the tick-heap edge scheduler and the settle
// partitions.
BENCHMARK(BM_Saa2VgaTriClk<false>)
    ->Name("saa2vga_triclk/event")
    ->Args({5, 2, 3})
    ->Args({1, 1, 1})
    ->Args({2, 1, 2});
BENCHMARK(BM_Saa2VgaTriClk<true>)
    ->Name("saa2vga_triclk/full_sweep")
    ->Args({5, 2, 3});
// Tri-clock farm: 8 lanes.
BENCHMARK(BM_Saa2VgaTriClkFarm)->Name("saa2vga_triclk_farm")->Arg(8);

// Custom main: `--trace FILE` (stripped before google-benchmark sees
// the args) runs the tri-clock stress case once with a profiling
// tracer and writes Chrome-trace JSON, after the measured benchmarks.
int main(int argc, char** argv) {
  const std::string trace = hwpat::benchutil::take_trace_flag_or_exit(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace.empty()) {
    auto d = designs::make_saa2vga_triclk({.width = 16,
                                           .height = 12,
                                           .cdc_depth = 16,
                                           .frames = 1,
                                           .cam_period = 5,
                                           .mem_period = 2,
                                           .pix_period = 3});
    return hwpat::benchutil::run_traced(*d, {}, 10'000, trace);
  }
  return 0;
}
