#include "rtl/sweep.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>

namespace hwpat::rtl {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// step() takes an int; sweep budgets are 64-bit.
void step_many(Simulator& sim, std::uint64_t n) {
  constexpr std::uint64_t kChunk = 1u << 20;
  while (n > 0) {
    const std::uint64_t k = n < kChunk ? n : kChunk;
    sim.step(static_cast<int>(k));
    n -= k;
  }
}

/// Runs `fn(0..n-1)` on up to `workers` threads, the calling thread
/// included.  `fn` must not throw (each sweep run catches into its
/// result slot); jobs are handed out through one atomic index, so the
/// assignment of jobs to threads is racy but the result slots are not.
void for_each_indexed(std::size_t n, int workers,
                      const std::function<void(std::size_t)>& fn) {
  const int k = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers), n));
  if (k <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(k - 1));
  for (int w = 1; w < k; ++w) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

void require_unique_names(const std::vector<std::string>& names,
                          const char* what) {
  std::unordered_set<std::string> seen;
  for (const std::string& n : names) {
    if (n.empty())
      throw Error(std::string("SweepDriver: every ") + what +
                  " needs a non-empty name");
    if (!seen.insert(n).second)
      throw Error(std::string("SweepDriver: duplicate ") + what +
                  " name '" + n + "'");
  }
}

/// The measured phase, shared by plain jobs and fork branches: the
/// simulator is already positioned (warmed or restored), the VCD (if
/// any) is already open.
void run_measured(Simulator& sim, const Module& top,
                  const std::function<bool(const Module&)>& done,
                  std::uint64_t max_cycles, SweepResult& out) {
  const Clock::time_point t0 = Clock::now();
  if (done) {
    const RunStatus st = sim.run([&] { return done(top); }, max_cycles);
    out.outcome = st.result;
    out.steps = st.steps;
  } else {
    // Fixed-length run: the budget IS the job, so consuming it all is
    // the successful outcome — unless a latched fault cut it short.
    const RunStatus st = sim.run([] { return false; }, max_cycles);
    out.outcome = st.result == RunResult::Timeout ? RunResult::PredSatisfied
                                                  : st.result;
    out.steps = st.steps;
  }
  out.wall_seconds = seconds_since(t0);
  out.cycles = sim.cycle();
  out.ticks = sim.now();
  out.stats = sim.stats();
  out.steps_per_sec = out.wall_seconds > 0.0
                          ? static_cast<double>(out.steps) / out.wall_seconds
                          : 0.0;
  out.ok = true;
}

/// Wraps one whole run so no exception can escape into the pool.
template <typename Body>
void guarded(SweepResult& out, const std::string& name, Body&& body) {
  out.name = name;
  try {
    body();
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  } catch (...) {
    out.ok = false;
    out.error = "unknown exception";
  }
}

}  // namespace

SweepDriver::SweepDriver(SweepOptions opt) : opt_(std::move(opt)) {
  if (opt_.workers < 1)
    throw Error("SweepOptions::workers must be >= 1, got " +
                std::to_string(opt_.workers));
  if (opt_.max_cycles == 0)
    throw Error("SweepOptions::max_cycles must be positive");
}

std::vector<SweepResult> SweepDriver::run(
    const std::vector<SweepJob>& jobs) const {
  std::vector<std::string> names;
  names.reserve(jobs.size());
  for (const SweepJob& j : jobs) {
    if (!j.build)
      throw Error("SweepJob '" + j.name + "': build factory is null");
    names.push_back(j.name);
  }
  require_unique_names(names, "job");

  std::vector<SweepResult> results(jobs.size());
  for_each_indexed(jobs.size(), opt_.workers, [&](std::size_t i) {
    const SweepJob& job = jobs[i];
    guarded(results[i], job.name, [&] {
      std::unique_ptr<Module> top = job.build();
      if (!top)
        throw Error("SweepJob '" + job.name + "': build() returned null");
      Simulator sim(*top, job.sim);
      sim.reset();
      step_many(sim, job.warmup);
      if (!opt_.vcd_dir.empty())
        sim.open_vcd(opt_.vcd_dir + "/" + job.name + ".vcd");
      if (job.at_warmup) job.at_warmup(*top, sim);
      run_measured(sim, *top, job.done, opt_.max_cycles, results[i]);
    });
  });
  return results;
}

std::vector<SweepResult> SweepDriver::run_forked(
    const SweepJob& base, const std::vector<SweepBranch>& branches,
    Snapshot* blob_out) const {
  if (!base.build)
    throw Error("SweepDriver::run_forked: base job '" + base.name +
                "' has a null build factory");
  std::vector<std::string> names;
  names.reserve(branches.size());
  for (const SweepBranch& b : branches) names.push_back(b.name);
  require_unique_names(names, "branch");

  // Warm ONE instance to the capture point and snapshot it; the
  // branches never see this simulator, only the blob.
  Snapshot blob;
  {
    std::unique_ptr<Module> top = base.build();
    if (!top)
      throw Error("SweepJob '" + base.name + "': build() returned null");
    Simulator sim(*top, base.sim);
    sim.reset();
    step_many(sim, base.warmup);
    blob = sim.save_snapshot();
  }
  if (blob_out != nullptr) *blob_out = blob;

  std::vector<SweepResult> results(branches.size());
  for_each_indexed(branches.size(), opt_.workers, [&](std::size_t i) {
    const SweepBranch& br = branches[i];
    const std::string name = base.name + "." + br.name;
    guarded(results[i], name, [&] {
      std::unique_ptr<Module> top = base.build();
      if (!top)
        throw Error("SweepJob '" + base.name + "': build() returned null");
      Simulator::Options sopt = base.sim;
      if (!br.fault_plan.empty()) sopt.fault_plan = br.fault_plan;
      Simulator sim(*top, sopt);
      sim.restore_snapshot(blob);
      if (!opt_.vcd_dir.empty())
        sim.open_vcd(opt_.vcd_dir + "/" + name + ".vcd");
      if (br.stimulus) br.stimulus(*top, sim);
      const auto& done = br.done ? br.done : base.done;
      const std::uint64_t budget =
          br.max_cycles != 0 ? br.max_cycles : opt_.max_cycles;
      run_measured(sim, *top, done, budget, results[i]);
      results[i].snapshot_bytes = blob.size_bytes();
    });
  });
  return results;
}

}  // namespace hwpat::rtl
