// perfbench: the repository's end-to-end + per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Set-up (input generation from the seed plus one discarded warm-up
// job) is repeated, and its median reported.  Then
// a closed loop with one client runs whole passes over the
// workload's job pool for S seconds, checking every job's outputs.  --trace 0 prints
// the end-to-end metrics; --trace 1 spends S/2 seconds untraced and
// S/2 traced (a span around every public library call), adds the
// workload's traced extras, prints the per-layer metrics and writes
// the spans to DIR.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any job failed a check.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/// Set-up repeats until it ran at least kSetupMinReps times and for
/// kSetupMinSeconds, at most kSetupMaxReps times; the median is
/// reported.
constexpr int kSetupMinReps = 7;
constexpr int kSetupMaxReps = 201;
constexpr double kSetupMinSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] - '0';
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    while (!s.empty() && s.back() == ' ') s.pop_back();
    while (!s.empty() && s.front() == ' ') s.erase(s.begin());
    return s;
  }
#endif
  return "unknown";
}

/// JSON string literal (the texts here never hold control characters
/// other than what escaping covers).
std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Jobs run by one timed loop, with their outcomes checked.
struct Book {
  std::vector<std::optional<std::uint64_t>> first_digest;
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures

  void fail(const std::string& e) {
    ++failed;
    if (errors.size() < 5) errors.push_back(e);
  }
  /// Digest over every pool job's first outcome, in pool order.
  [[nodiscard]] std::uint64_t counts_digest() const {
    Digest d;
    for (const auto& v : first_digest) d.add(v.value_or(0));
    return d.value();
  }
};

struct LoopResult {
  std::uint64_t jobs = 0;
  std::vector<double> pass_s;      ///< per pool pass, speed-scaled
  double raw_busy_s = 0;           ///< summed job time, raw host time
  std::vector<double> latency_ms;  ///< per job, speed-scaled
  std::vector<double> factors;     ///< per job host-speed factor
  std::size_t pool = 0;
  /// Pool jobs per second of the median pass: a pass that overlapped a
  /// burst of host interference does not move it.
  [[nodiscard]] double jobs_per_s() const {
    const double p = percentile(pass_s, 0.5);
    return p > 0 ? static_cast<double>(pool) / p : 0.0;
  }
};

/// Closed loop, one client: whole passes over the job pool, in pool
/// order, until `seconds` have passed, so every run measures the same
/// job mix however long a pass takes.  The probe is sampled before a
/// job when its last sample is 10 ms old and after every job that took
/// 10 ms or more; a job's time is scaled by the mean factor around it.
LoopResult job_loop(Workload& wl, double seconds, SpanLog* log, Book& book,
                    SpeedProbe& probe, std::uint32_t& job_id) {
  constexpr std::uint64_t kResampleNs = 10'000'000;
  LoopResult r;
  const std::size_t pool = wl.pool_size();
  r.pool = pool;
  const std::uint64_t t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() - t0 < budget) {
    double pass = 0;
    for (std::size_t i = 0; i < pool; ++i) {
      if (probe.age_ns() >= kResampleNs) probe.sample(wl.threads());
      const double before = probe.factor();
      if (log != nullptr) log->set_job(job_id);
      const bool first = !book.first_digest[i].has_value();
      JobOutcome o;
      const std::uint64_t a = now_ns();
      try {
        o = wl.run(i, log, first ? &book.counts : nullptr);
      } catch (const std::exception& e) {
        o.error = std::string("job threw: ") + e.what();
      }
      const auto ns = static_cast<double>(now_ns() - a);
      double f = before;
      if (ns >= static_cast<double>(kResampleNs)) {
        probe.sample(wl.threads());
        f = (before + probe.factor()) / 2;
      }
      if (log != nullptr) log->set_scale(job_id, f);
      ++job_id;
      ++r.jobs;
      pass += ns * f / 1e9;
      r.raw_busy_s += ns / 1e9;
      r.latency_ms.push_back(ns * f / 1e6);
      r.factors.push_back(f);
      ++book.attempted;
      if (first) book.first_digest[i] = o.digest;
      if (!o.error.empty())
        book.fail("job " + std::to_string(i) + ": " + o.error);
      else if (*book.first_digest[i] != o.digest)
        book.fail("job " + std::to_string(i) +
                  ": counts differ from the job's first run");
    }
    r.pass_s.push_back(pass);
  }
  return r;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics of the traced run: span timings of the job loop
/// and the serial replay, plus the first pass's deterministic counts.
void layer_metrics(const SpanLog& log, const Counts& c, Metrics& m) {
  const std::vector<std::string_view> roots = {"job", "replay"};
  auto p50_us = [&](const char* name) {
    return percentile(log.durations(name, roots), 0.5) / 1e3;
  };
  m["designs.build_us_p50"] = {p50_us("designs.build"), "us"};
  m["rtl.elaborate_us_p50"] = {p50_us("rtl.elaborate"), "us"};
  m["rtl.reset_us_p50"] = {p50_us("rtl.reset"), "us"};
  m["rtl.teardown_us_p50"] = {p50_us("rtl.teardown"), "us"};
  m["rtl.snapshot_save_us_p50"] = {p50_us("rtl.snapshot_save"), "us"};
  m["rtl.snapshot_restore_us_p50"] = {p50_us("rtl.snapshot_restore"), "us"};
  m["meta.generate_us_p50"] = {p50_us("meta.generate"), "us"};
  m["hdl.validate_us_p50"] = {p50_us("hdl.validate"), "us"};
  m["hdl.emit_us_p50"] = {p50_us("hdl.emit"), "us"};
  m["hdl.parse_us_p50"] = {p50_us("hdl.parse"), "us"};

  // The run phase's share of the time of the roots that ran a design.
  std::set<std::uint32_t> run_jobs;
  for (const Span& s : log.spans())
    if (std::strcmp(s.name, "rtl.run") == 0) run_jobs.insert(s.job);
  double root_ns = 0;
  for (const Span& s : log.spans())
    if (s.parent < 0 && run_jobs.count(s.job) != 0 &&
        (std::strcmp(s.name, "job") == 0 || std::strcmp(s.name, "replay") == 0))
      root_ns += log.scaled_ns(s);
  const auto [run_ns, run_steps] = log.totals("rtl.run", roots);
  m["rtl.run_share"] = {ratio(run_ns, root_ns), "ratio"};
  m["rtl.run_ns_per_step"] = {ratio(run_ns, run_steps), "ns"};
  m["rtl.steps_per_s"] = {ratio(run_steps, run_ns / 1e9), "1/s"};

  const auto& s = c.stats;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["rtl.evals_per_step"] = {ratio(d(s.evals), d(s.steps)), "count"};
  m["rtl.commits_per_step"] = {ratio(d(s.commits), d(s.steps)), "count"};
  m["rtl.commit_change_ratio"] = {ratio(d(s.commit_changes), d(s.commits)), "ratio"};
  m["rtl.deltas_per_settle"] = {ratio(d(s.deltas), d(s.settles)), "count"};
  m["rtl.seq_skips_per_step"] = {ratio(d(s.seq_skips), d(s.steps)), "count"};
  m["rtl.edges_per_step"] = {ratio(d(s.edges), d(s.steps)), "count"};
  m["rtl.act_skips_per_edge"] = {ratio(d(s.act_skips), d(s.edges)), "count"};
  m["rtl.partition_skip_ratio"] = {
      ratio(d(s.partition_skips), d(s.partition_settles + s.partition_skips)),
      "ratio"};
  m["rtl.arena_kib"] = {percentile(c.arena_kib, 0.5), "KiB"};
  m["rtl.snapshot_kib"] = {percentile(c.snapshot_kib, 0.5), "KiB"};
  m["sim_cycles_per_frame"] = {ratio(d(c.cycles), d(c.frames)), "count"};
  m["hdl.bytes_per_unit"] = {ratio(d(c.emitted_bytes), d(c.units)), "B"};
  m["hdl.roundtrip_mismatches"] = {d(c.roundtrip_mismatches), "count"};
}

int run(const Args& a) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build; numbers "
                 "are only comparable from a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  (void)now_ns();  // start the clock

  // ---- set-up, repeated: generate inputs, run one warm-up job -------
  Book book;
  SpeedProbe probe;
  std::vector<double> setup_s, raw_setup_s;
  std::unique_ptr<Workload> wl;
  std::uint64_t inputs_digest = 0;
  const int threads = make_workload(a.workload, a.seed, a.out_dir)->threads();
  double setup_total = 0;
  for (int rep = 0; rep < kSetupMaxReps &&
                    (rep < kSetupMinReps || setup_total < kSetupMinSeconds);
       ++rep) {
    wl.reset();
    probe.sample(threads);
    const double before = probe.factor();
    const std::uint64_t t0 = now_ns();
    wl = make_workload(a.workload, a.seed, a.out_dir);
    const JobOutcome warm = wl->run(wl->warmup_index(), nullptr, nullptr);
    const auto ns = static_cast<double>(now_ns() - t0);
    probe.sample(threads);
    raw_setup_s.push_back(ns / 1e9);
    setup_total += ns / 1e9;
    setup_s.push_back(ns / 1e9 * (before + probe.factor()) / 2);
    ++book.attempted;
    if (!warm.error.empty()) book.fail("warm-up job: " + warm.error);
    if (rep > 0 && wl->inputs_digest() != inputs_digest)
      book.fail("the same seed generated different inputs");
    inputs_digest = wl->inputs_digest();
  }
  book.first_digest.assign(wl->pool_size(), std::nullopt);

  // ---- timed closed loop --------------------------------------------
  std::uint32_t job_id = 0;
  Metrics m;
  std::string spans_path;
  LoopResult main_loop;
  if (a.trace == 0) {
    main_loop = job_loop(*wl, a.seconds, nullptr, book, probe, job_id);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m["setup_s"] = {percentile(setup_s, 0.5), "s"};
    m["jobs_per_s"] = {main_loop.jobs_per_s(), "1/s"};
    m["job_ms_p50"] = {percentile(main_loop.latency_ms, 0.5), "ms"};
    m["job_ms_p90"] = {percentile(main_loop.latency_ms, 0.9), "ms"};
    m["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
  } else {
    const LoopResult untraced =
        job_loop(*wl, a.seconds / 2, nullptr, book, probe, job_id);
    SpanLog log;
    main_loop = job_loop(*wl, a.seconds / 2, &log, book, probe, job_id);
    // The traced extras are scaled by one factor sampled before them.
    probe.sample(threads);
    log.set_default_scale(probe.factor());
    std::vector<std::string> errors;
    wl->traced_extras(log, book.counts, m, errors);
    for (const std::string& e : errors) book.fail(e);
    layer_metrics(log, book.counts, m);
    m.try_emplace("rtl.vcd_ns_per_step", Metric{0.0, "ns"});
    m.try_emplace("sweep.worker_busy_ratio", Metric{0.0, "ratio"});
    m["trace.jobs_per_s_delta"] = {
        main_loop.jobs_per_s() - untraced.jobs_per_s(), "1/s"};
    spans_path = a.out_dir + "/spans-" + a.workload + ".jsonl";
    if (!log.write(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }

  // ---- report ---------------------------------------------------------
  std::string info = "{\"perfbench\": {\"workload\": " + jstr(a.workload) +
                     ", \"seed\": " + std::to_string(a.seed) +
                     ", \"trace\": " + std::to_string(a.trace) +
                     ", \"host\": {\"cpu\": " + jstr(cpu_model()) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"compiler\": " + jstr(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + jstr(PERFBENCH_BUILD_TYPE) +
                     "}, \"inputs_digest\": " + jstr(hex64(inputs_digest)) +
                     ", \"counts_digest\": " + jstr(hex64(book.counts_digest())) +
                     ", \"pool_jobs\": " + std::to_string(wl->pool_size()) +
                     ", \"job_samples\": " +
                     std::to_string(main_loop.latency_ms.size()) +
                     ", \"setup_samples\": " + std::to_string(setup_s.size()) +
                     ", \"speed_factor_p50\": " +
                     jnum(percentile(main_loop.factors, 0.5)) +
                     ", \"raw\": {\"setup_s\": " +
                     jnum(percentile(raw_setup_s, 0.5)) +
                     ", \"jobs_per_s\": " +
                     jnum(ratio(static_cast<double>(main_loop.jobs),
                                main_loop.raw_busy_s)) +
                     "}" +
                     ", \"failed_ratio\": " +
                     jnum(ratio(static_cast<double>(book.failed),
                                static_cast<double>(book.attempted))) +
                     ", \"spans_file\": " + jstr(spans_path) + ", \"errors\": [";
  for (std::size_t i = 0; i < book.errors.size(); ++i)
    info += (i > 0 ? ", " : "") + jstr(book.errors[i]);
  std::printf("%s]}}\n", info.c_str());

  std::string out = "{\"correct\": ";
  out += book.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(book.attempted) +
         ", \"failed\": " + std::to_string(book.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + jstr(name) + ": {\"value\": " +
           jnum(metric.value) + ", \"unit\": " + jstr(metric.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
  return book.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
