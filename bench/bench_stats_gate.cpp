// Deterministic CI perf-regression gate over the simulation kernel's
// work counters.
//
// Wall-clock benchmarks are useless as CI gates on shared runners; the
// `Simulator::Stats` counters (eval_comb() calls and signal commits per
// run) are bit-deterministic for a fixed design and cycle count, so a
// regression in scheduler quality is an exact integer comparison — the
// counter-based self-checking style mainstream HDL simulator test rigs
// use.
//
// Usage:
//   bench_stats_gate --check [bench/baselines.json]   (CI gate)
//   bench_stats_gate --write [bench/baselines.json]   (refresh baselines)
//   bench_stats_gate --print                          (show counters)
//
// Any mode also accepts `--trace FILE`: every scenario then runs with
// a phase tracer attached against the SAME baselines — tracing is
// wall-time telemetry and must perturb zero counters; the last
// scenario's Chrome-trace JSON is left at FILE.  CI re-runs the gate
// this way to hold the zero-cost contract.
//
// Any mode also accepts `--snapshot`: every scenario then pauses
// mid-run for a save_snapshot() -> restore_snapshot() -> save round
// trip (asserting the blobs are bit-identical) and continues against
// the SAME baselines — CI proves checkpointing a run perturbs zero
// counters this way.
//
// --check fails (exit 1) when any scenario's cycle or edge counts
// differ from the baseline, when evals/commits/partition_settles exceed
// the baseline by more than the slack (2%, absorbing innocuous
// scheduling-order churn), or when seq_skips/act_skips/partition_skips
// drop by more than it.  Doing strictly *better* passes with a note —
// refresh the baselines in the same PR to lock the win in.  Every
// baseline entry must carry all eight named counters: one read as 0
// would turn its check into a no-op, so a missing key is an error.
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "designs/design.hpp"
#include "designs/saa2vga_shared.hpp"
#include "rtl/simulator.hpp"

namespace {

using namespace hwpat;

constexpr double kSlack = 0.02;  // tolerated counter growth vs baseline
constexpr std::uint64_t kMaxCycles = 2'000'000;

/// With --snapshot, every scenario pauses mid-run for a
/// save -> restore -> save round trip and then continues to the SAME
/// baselines: checkpointing a run must perturb zero counters.
bool g_snapshot = false;

/// With --trace FILE, every scenario runs with a tracer attached (and
/// must still match the baselines — telemetry is wall-time only); the
/// last scenario's trace JSON lands at FILE.
std::string g_trace;

/// Mid-run pause point for --snapshot; far enough in that every
/// scenario's pipeline is streaming, early enough that none has
/// finished.
constexpr std::uint64_t kSnapshotAt = 500;

struct Counters {
  std::uint64_t cycles = 0;
  std::uint64_t evals = 0;
  std::uint64_t commits = 0;
  std::uint64_t seq_skips = 0;
  std::uint64_t edges = 0;      ///< domain edges (== cycles single-clock)
  std::uint64_t act_skips = 0;  ///< activation-list on_clock() skips
  std::uint64_t partition_settles = 0;  ///< settles that evaluated modules
  std::uint64_t partition_skips = 0;    ///< quiet settles (nothing dirty)
  std::vector<std::uint64_t> domain_edges;  ///< per domain, "domN" keys
};

/// The named counters of a baseline entry, in file order.  Each entry
/// must carry every one of them.
constexpr std::pair<const char*, std::uint64_t Counters::*>
    kNamedCounters[] = {
        {"cycles", &Counters::cycles},
        {"evals", &Counters::evals},
        {"commits", &Counters::commits},
        {"seq_skips", &Counters::seq_skips},
        {"edges", &Counters::edges},
        {"act_skips", &Counters::act_skips},
        {"partition_settles", &Counters::partition_settles},
        {"partition_skips", &Counters::partition_skips},
};

struct Scenario {
  std::string name;
  std::unique_ptr<designs::VideoDesign> (*make)();
};

// Small, fixed configurations: a full frame pipeline run each, covering
// every shipped design variant (and with it every device model).
const Scenario kScenarios[] = {
    {"saa2vga_pattern_fifo",
     [] {
       return designs::make_saa2vga_pattern(
           {.width = 24, .height = 18, .buffer_depth = 64, .frames = 2});
     }},
    {"saa2vga_pattern_sram",
     [] {
       return designs::make_saa2vga_pattern(
           {.width = 24, .height = 18, .buffer_depth = 64,
            .device = devices::DeviceKind::Sram, .frames = 2});
     }},
    {"saa2vga_custom_fifo",
     [] {
       return designs::make_saa2vga_custom(
           {.width = 24, .height = 18, .buffer_depth = 64, .frames = 2});
     }},
    {"saa2vga_custom_sram",
     [] {
       return designs::make_saa2vga_custom(
           {.width = 24, .height = 18, .buffer_depth = 64,
            .device = devices::DeviceKind::Sram, .frames = 2});
     }},
    {"saa2vga_shared_sram",
     [] {
       return designs::make_saa2vga_shared(
           {.width = 16, .height = 12, .buffer_depth = 64, .frames = 2});
     }},
    {"blur_pattern",
     [] {
       return designs::make_blur_pattern(
           {.width = 24, .height = 18, .frames = 2});
     }},
    {"blur_custom",
     [] {
       return designs::make_blur_custom(
           {.width = 24, .height = 18, .frames = 2});
     }},
    // Dual-clock CDC scenarios: per-domain edge counts and the
    // activation-list skip counter are functional quantities here.
    {"saa2vga_dualclk_3to1",
     [] {
       return designs::make_saa2vga_dualclk(
           {.width = 24, .height = 18, .cdc_depth = 16, .frames = 2,
            .pix_period = 3, .mem_period = 1});
     }},
    {"saa2vga_dualclk_3to7",
     [] {
       return designs::make_saa2vga_dualclk(
           {.width = 24, .height = 18, .cdc_depth = 16, .frames = 2,
            .pix_period = 3, .mem_period = 7});
     }},
    // Tri-clock CDC scenarios: three clock domains chained through two
    // async FIFOs.
    {"saa2vga_triclk_5to2to3",
     [] {
       return designs::make_saa2vga_triclk(
           {.width = 24, .height = 18, .cdc_depth = 16, .frames = 2});
     }},
    {"saa2vga_triclk_1to1to1",
     [] {
       return designs::make_saa2vga_triclk(
           {.width = 24, .height = 18, .cdc_depth = 16, .frames = 2,
            .cam_period = 1, .mem_period = 1, .pix_period = 1});
     }},
    // Tri-clock capture FARM: three independent lanes sharing the same
    // three domains, so every domain clocks three lanes' worth of
    // modules.
    {"saa2vga_triclk_farm3",
     [] {
       return designs::make_saa2vga_triclk(
           {.width = 16, .height = 12, .cdc_depth = 16, .frames = 1,
            .lanes = 3});
     }},
};

Counters run_scenario(const Scenario& s) {
  auto d = s.make();
  rtl::Simulator sim(*d);
  if (!g_trace.empty()) sim.trace_start({});
  sim.reset();
  if (g_snapshot) {
    if (!sim.run([&] { return d->finished() || sim.cycle() >= kSnapshotAt; },
                 kMaxCycles))
      throw Error("bench_stats_gate: scenario '" + s.name +
                  "' stalled before the snapshot point (" +
                  sim.progress_report() + ")");
    const rtl::Snapshot blob = sim.save_snapshot();
    sim.restore_snapshot(blob);
    if (!(sim.save_snapshot() == blob))
      throw Error("bench_stats_gate: snapshot round trip not bit-stable "
                  "in scenario '" + s.name + "'");
  }
  if (!sim.run([&] { return d->finished(); }, kMaxCycles))
    throw Error("bench_stats_gate: scenario '" + s.name +
                "' did not finish (" + sim.progress_report() + ")");
  if (!g_trace.empty()) sim.trace_write(g_trace);
  return Counters{sim.cycle(),
                  sim.stats().evals,
                  sim.stats().commits,
                  sim.stats().seq_skips,
                  sim.stats().edges,
                  sim.stats().act_skips,
                  sim.stats().partition_settles,
                  sim.stats().partition_skips,
                  sim.stats().domain_edges};
}

// --------------------------------------------------------------- JSON

void write_baselines(const std::map<std::string, Counters>& all,
                     const std::string& path) {
  std::ofstream out(path);
  out << "{\n";
  bool first = true;
  for (const auto& [name, c] : all) {
    if (!first) out << ",\n";
    first = false;
    out << "  \"" << name << "\": {";
    const char* sep = "";
    for (const auto& [key, field] : kNamedCounters) {
      out << sep << '"' << key << "\": " << c.*field;
      sep = ", ";
    }
    for (std::size_t i = 0; i < c.domain_edges.size(); ++i)
      out << ", \"dom" << i << "\": " << c.domain_edges[i];
    out << "}";
  }
  out << "\n}\n";
}

/// Minimal parser for exactly the flat shape write_baselines() emits:
/// { "name": {"key": int, ...}, ... }.  Anything else is a format error.
std::map<std::string, Counters> read_baselines(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    throw Error("bench_stats_gate: cannot open baseline file '" + path +
                "'");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  std::map<std::string, Counters> all;
  std::size_t pos = 0;
  auto next_string = [&](std::size_t from, std::string* out) {
    const std::size_t a = text.find('"', from);
    if (a == std::string::npos) return std::string::npos;
    const std::size_t b = text.find('"', a + 1);
    if (b == std::string::npos) return std::string::npos;
    *out = text.substr(a + 1, b - a - 1);
    return b + 1;
  };
  auto next_uint = [&](std::size_t from, std::uint64_t* out) {
    std::size_t i = from;
    while (i < text.size() &&
           !std::isdigit(static_cast<unsigned char>(text[i])))
      ++i;
    if (i >= text.size())
      throw Error("bench_stats_gate: malformed baseline file");
    *out = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])))
      *out = *out * 10 + static_cast<std::uint64_t>(text[i++] - '0');
    return i;
  };

  std::string name;
  while ((pos = next_string(pos, &name)) != std::string::npos) {
    const std::size_t open = text.find('{', pos);
    const std::size_t close = text.find('}', pos);
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
      throw Error("bench_stats_gate: malformed baseline entry '" + name +
                  "'");
    Counters c;
    unsigned seen = 0;  // bit k: kNamedCounters[k] was read
    std::size_t p = open;
    std::string key;
    while ((p = next_string(p, &key)) != std::string::npos && p < close) {
      std::uint64_t v = 0;
      p = next_uint(p, &v);
      std::size_t k = 0;
      while (k < std::size(kNamedCounters) && key != kNamedCounters[k].first)
        ++k;
      if (k < std::size(kNamedCounters)) {
        c.*kNamedCounters[k].second = v;
        seen |= 1u << k;
      } else if (key.size() >= 4 && key.size() <= 5 &&
               key.rfind("dom", 0) == 0 &&
               key.find_first_not_of("0123456789", 3) ==
                   std::string::npos) {
        // dom0 .. dom99 — anything else (typo, absurd index) falls
        // through to the unknown-key error below.
        const std::size_t idx =
            static_cast<std::size_t>(std::stoul(key.substr(3)));
        if (c.domain_edges.size() <= idx) c.domain_edges.resize(idx + 1, 0);
        c.domain_edges[idx] = v;
      } else
        throw Error("bench_stats_gate: unknown baseline key '" + key +
                    "'");
    }
    for (std::size_t k = 0; k < std::size(kNamedCounters); ++k)
      if ((seen & (1u << k)) == 0)
        throw Error("bench_stats_gate: baseline entry '" + name +
                    "' lacks counter '" + kNamedCounters[k].first + "'");
    all[name] = c;
    pos = close + 1;
  }
  if (all.empty())
    throw Error("bench_stats_gate: no baselines found in '" + path + "'");
  return all;
}

// --------------------------------------------------------------- modes

std::map<std::string, Counters> run_all() {
  std::map<std::string, Counters> all;
  for (const Scenario& s : kScenarios) all[s.name] = run_scenario(s);
  return all;
}

void print_counters(const std::map<std::string, Counters>& all) {
  for (const auto& [name, c] : all) {
    std::cout << name << ": cycles=" << c.cycles << " evals=" << c.evals
              << " (" << static_cast<double>(c.evals) /
                             static_cast<double>(c.cycles)
              << "/step) commits=" << c.commits << " ("
              << static_cast<double>(c.commits) /
                     static_cast<double>(c.cycles)
              << "/step) seq_skips=" << c.seq_skips
              << " edges=" << c.edges << " act_skips=" << c.act_skips
              << " partition_settles=" << c.partition_settles
              << " partition_skips=" << c.partition_skips
              << " domains=[";
    for (std::size_t i = 0; i < c.domain_edges.size(); ++i)
      std::cout << (i ? " " : "") << c.domain_edges[i];
    std::cout << "]\n";
  }
}

/// One counter against its baseline; returns false on regression.
bool check_counter(const std::string& scenario, const std::string& what,
                   std::uint64_t now, std::uint64_t base) {
  const auto limit = static_cast<std::uint64_t>(
      static_cast<double>(base) * (1.0 + kSlack));
  if (now > limit) {
    std::cout << "FAIL " << scenario << ": " << what << " regressed "
              << base << " -> " << now << " (limit " << limit << ")\n";
    return false;
  }
  if (now < base)
    std::cout << "note " << scenario << ": " << what << " improved "
              << base << " -> " << now
              << " — refresh bench/baselines.json to lock it in\n";
  return true;
}

int check(const std::string& path) {
  const auto base = read_baselines(path);
  const auto now = run_all();
  bool ok = true;
  for (const auto& [name, c] : now) {
    const auto it = base.find(name);
    if (it == base.end()) {
      std::cout << "FAIL " << name
                << ": no baseline (run --write and commit)\n";
      ok = false;
      continue;
    }
    // Cycle and edge counts are functional, not perf: any drift is a
    // behaviour change the differential tests should have caught —
    // hard-fail.  Per-domain edges catch a module landing in the wrong
    // domain even when the totals happen to agree.
    if (c.cycles != it->second.cycles) {
      std::cout << "FAIL " << name << ": cycle count changed "
                << it->second.cycles << " -> " << c.cycles << "\n";
      ok = false;
      continue;
    }
    if (c.edges != it->second.edges ||
        c.domain_edges != it->second.domain_edges) {
      auto fmt = [](const Counters& x) {
        std::string s = std::to_string(x.edges) + " [";
        for (std::size_t i = 0; i < x.domain_edges.size(); ++i) {
          if (i != 0) s += " ";
          s += std::to_string(x.domain_edges[i]);
        }
        return s + "]";
      };
      std::cout << "FAIL " << name << ": domain edge counts changed "
                << fmt(it->second) << " -> " << fmt(c) << "\n";
      ok = false;
      continue;
    }
    ok &= check_counter(name, "evals", c.evals, it->second.evals);
    ok &= check_counter(name, "commits", c.commits, it->second.commits);
    // partition_settles counts settles that evaluated at least one
    // module: a settle that used to find nothing dirty and now wakes
    // modules (a spurious fanout arc, a lost declaration) shows up here
    // even when evals stay inside their slack.
    ok &= check_counter(name, "partition_settles", c.partition_settles,
                        it->second.partition_settles);
    // ...and partition_skips gates it from the other side: quiet
    // settles must KEEP costing no evaluation.
    const auto min_pskips = static_cast<std::uint64_t>(
        static_cast<double>(it->second.partition_skips) * (1.0 - kSlack));
    if (c.partition_skips < min_pskips) {
      std::cout << "FAIL " << name << ": partition_skips dropped "
                << it->second.partition_skips << " -> "
                << c.partition_skips << " (min " << min_pskips
                << ") — fewer settles found nothing dirty\n";
      ok = false;
    }
    // act_skips gates the activation lists staying engaged: a module
    // leaking into every domain's list shows up as fewer skips.
    const auto min_act = static_cast<std::uint64_t>(
        static_cast<double>(it->second.act_skips) * (1.0 - kSlack));
    if (c.act_skips < min_act) {
      std::cout << "FAIL " << name << ": act_skips dropped "
                << it->second.act_skips << " -> " << c.act_skips
                << " (min " << min_act
                << ") — per-domain activation lists partially disengaged\n";
      ok = false;
    }
    // seq_skips gates the declared-state protocol staying engaged: a
    // module regressing to opaque (or a lost declaration) shows up as
    // fewer post-edge skips even when evals stay inside their slack.
    const auto min_skips = static_cast<std::uint64_t>(
        static_cast<double>(it->second.seq_skips) * (1.0 - kSlack));
    if (c.seq_skips < min_skips) {
      std::cout << "FAIL " << name << ": seq_skips dropped "
                << it->second.seq_skips << " -> " << c.seq_skips
                << " (min " << min_skips
                << ") — declared-state skipping partially disengaged\n";
      ok = false;
    } else if (c.seq_skips > it->second.seq_skips) {
      std::cout << "note " << name << ": seq_skips improved "
                << it->second.seq_skips << " -> " << c.seq_skips
                << " — refresh bench/baselines.json to lock it in\n";
    }
  }
  for (const auto& [name, c] : base) {
    (void)c;
    if (now.find(name) == now.end()) {
      std::cout << "FAIL stale baseline '" << name
                << "': scenario no longer exists (run --write)\n";
      ok = false;
    }
  }
  std::cout << (ok ? "bench_stats_gate: all counters within baseline\n"
                   : "bench_stats_gate: PERF REGRESSION detected\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = hwpat::benchutil::take_trace_flag_or_exit(argc, argv);
  std::string mode = "--print";
  std::string path = "bench/baselines.json";
  bool mode_set = false, path_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--snapshot") {
      g_snapshot = true;
    } else if (!mode_set && arg.rfind("--", 0) == 0) {
      mode = arg;
      mode_set = true;
    } else if (!path_set) {
      path = arg;
      path_set = true;
    } else {
      std::cerr << "bench_stats_gate: unexpected argument '" << arg
                << "'\n";
      return 2;
    }
  }
  try {
    if (!g_trace.empty())
      std::cout << "bench_stats_gate: tracer attached to every scenario "
                   "(counters must still match the\nbaselines exactly — "
                   "telemetry is wall-time only); last trace -> "
                << g_trace << "\n";
    if (g_snapshot)
      std::cout << "bench_stats_gate: snapshot round trip at cycle "
                << kSnapshotAt << " of every scenario (counters must\n"
                << "still match the baselines exactly — checkpointing "
                   "perturbs nothing)\n";
    if (mode == "--check") return check(path);
    if (mode == "--write") {
      const auto all = run_all();
      write_baselines(all, path);
      print_counters(all);
      std::cout << "wrote " << path << "\n";
      return 0;
    }
    if (mode == "--print") {
      print_counters(run_all());
      return 0;
    }
    std::cerr << "usage: bench_stats_gate [--check|--write|--print] "
                 "[baselines.json] [--snapshot] "
                 "[--trace FILE]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bench_stats_gate: " << e.what() << "\n";
    return 1;
  }
}
