#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "core/ops.hpp"
#include "designs/design.hpp"
#include "designs/saa2vga_triclk.hpp"
#include "designs/variants.hpp"
#include "hdl/emit.hpp"
#include "hdl/ir.hpp"
#include "hdl/parse.hpp"
#include "meta/codegen.hpp"
#include "rtl/rtl.hpp"

namespace perfbench {

using hwpat::designs::DeviceKind;
using hwpat::designs::Saa2VgaConfig;
using hwpat::designs::Saa2VgaTriClkConfig;
using hwpat::designs::VideoDesign;
using hwpat::rtl::Simulator;
using hwpat::video::Frame;

void Counts::add(const Simulator::Stats& s) {
  stats.steps += s.steps;
  stats.settles += s.settles;
  stats.deltas += s.deltas;
  stats.evals += s.evals;
  stats.commits += s.commits;
  stats.commit_changes += s.commit_changes;
  stats.seq_touches += s.seq_touches;
  stats.seq_skips += s.seq_skips;
  stats.edges += s.edges;
  stats.act_skips += s.act_skips;
  stats.partition_settles += s.partition_settles;
  stats.partition_skips += s.partition_skips;
}

namespace {

void add_stats(Digest& d, const Simulator::Stats& s) {
  for (const std::uint64_t v :
       {s.steps, s.settles, s.deltas, s.evals, s.commits, s.commit_changes,
        s.seq_touches, s.seq_skips, s.edges, s.act_skips, s.partition_settles,
        s.partition_skips})
    d.add(v);
  for (const std::uint64_t v : s.domain_edges) d.add(v);
}

bool same_stats(const Simulator::Stats& a, const Simulator::Stats& b) {
  Digest da, db;
  add_stats(da, a);
  add_stats(db, b);
  return da.value() == db.value();
}

/// Frames a lane of a finished design must have collected.
using FrameKey = std::tuple<int, int, unsigned>;  // width, height, seed

/// Checks every lane's collected frames against the camera frames it
/// was fed; returns an error text, empty when they match pixel for
/// pixel.
std::string check_frames(const VideoDesign& d,
                         const std::map<FrameKey, std::vector<Frame>>& expected,
                         unsigned pattern_seed) {
  const auto* tri = dynamic_cast<const hwpat::designs::Saa2VgaTriClk*>(&d);
  const int lanes = tri != nullptr ? tri->lane_count() : 1;
  for (int lane = 0; lane < lanes; ++lane) {
    const std::vector<Frame>& got =
        tri != nullptr ? tri->lane_sink(lane).frames() : d.sink().frames();
    const FrameKey key{got.empty() ? 0 : got.front().width(),
                       got.empty() ? 0 : got.front().height(),
                       pattern_seed + static_cast<unsigned>(lane)};
    const auto it = expected.find(key);
    if (it == expected.end() || it->second != got)
      return "lane " + std::to_string(lane) +
             ": collected frames differ from the camera frames";
  }
  return {};
}

// ---------------------------------------------------------------------
// video_1clk / video_3clk_farm: one design per job, built, elaborated,
// reset, run to finished(), checked and torn down.
// ---------------------------------------------------------------------

struct VideoJob {
  bool triclk = false;
  Saa2VgaConfig one;
  Saa2VgaTriClkConfig tri;
  std::uint64_t max_cycles = 0;
  std::map<FrameKey, std::vector<Frame>> expected;

  [[nodiscard]] int frames() const { return triclk ? tri.frames : one.frames; }
  [[nodiscard]] unsigned pattern_seed() const {
    return triclk ? tri.pattern_seed : one.pattern_seed;
  }
  /// Pixels the job moves (all lanes): its size for ranking.
  [[nodiscard]] long pixels() const {
    return triclk ? 1L * tri.width * tri.height * tri.frames * tri.lanes
                  : 1L * one.width * one.height * one.frames;
  }
};

class VideoWorkload final : public Workload {
 public:
  VideoWorkload(bool triclk, std::uint64_t seed, std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {
    Rng rng(seed);
    if (triclk)
      generate_triclk(rng);
    else
      generate_1clk(rng);
    for (VideoJob& j : pool_) {
      const int lanes = j.triclk ? j.tri.lanes : 1;
      const int w = j.triclk ? j.tri.width : j.one.width;
      const int h = j.triclk ? j.tri.height : j.one.height;
      for (int lane = 0; lane < lanes; ++lane) {
        const unsigned s = j.pattern_seed() + static_cast<unsigned>(lane);
        j.expected[{w, h, s}] =
            hwpat::designs::camera_frames(w, h, j.frames(), s);
      }
      inputs_.add(static_cast<std::uint64_t>(w));
      inputs_.add(static_cast<std::uint64_t>(h));
      inputs_.add(static_cast<std::uint64_t>(j.frames()));
      inputs_.add(static_cast<std::uint64_t>(lanes));
      inputs_.add(j.pattern_seed());
      inputs_.add(j.triclk ? static_cast<std::uint64_t>(j.tri.cdc_depth * 1000 +
                                                        j.tri.cam_period * 100 +
                                                        j.tri.mem_period * 10 +
                                                        j.tri.pix_period)
                           : static_cast<std::uint64_t>(
                                 j.one.buffer_depth * 10 +
                                 static_cast<int>(j.one.device)));
    }
  }

  [[nodiscard]] std::size_t pool_size() const override { return pool_.size(); }
  [[nodiscard]] std::uint64_t inputs_digest() const override {
    return inputs_.value();
  }
  [[nodiscard]] std::size_t warmup_index() const override { return warmup_; }

  JobOutcome run(std::size_t i, SpanLog* log, Counts* counts) override {
    SpanLog::Scope root(log, "job");
    return run_one(pool_[i], log, counts, nullptr);
  }

  void traced_extras(SpanLog& log, Counts& counts, Metrics& m,
                     std::vector<std::string>& errors) override {
    (void)counts;
    // VCD cost by subtraction: the same job with and without open_vcd,
    // alternated, on the four smallest jobs of the pool (their traces
    // stay small on disk).
    std::vector<std::size_t> order = by_size();
    order.resize(std::min<std::size_t>(order.size(), 4));
    const std::string path = scratch_dir_ + "/perfbench-pair.vcd";
    std::vector<double> per_step;
    for (const std::size_t i : order) {
      log.set_job(static_cast<std::uint32_t>(2'000'000 + i));
      std::vector<double> plain, vcd;
      std::uint64_t steps = 0;
      for (int rep = 0; rep < 3; ++rep) {
        for (const bool with_vcd : {false, true}) {
          SpanLog::Scope root(&log, "vcd_pair");
          const JobOutcome o =
              run_one(pool_[i], &log, nullptr, with_vcd ? &path : nullptr);
          if (!o.error.empty()) errors.push_back(o.error);
          const auto run = std::find_if(
              log.spans().rbegin(), log.spans().rend(),
              [](const Span& s) { return std::string_view(s.name) == "rtl.run"; });
          (with_vcd ? vcd : plain).push_back(log.scaled_ns(*run));
          steps = run->work;
        }
      }
      if (steps > 0)
        per_step.push_back((percentile(vcd, 0.5) - percentile(plain, 0.5)) /
                           static_cast<double>(steps));
    }
    std::remove(path.c_str());
    m["rtl.vcd_ns_per_step"] = {percentile(per_step, 0.5), "ns"};
  }

 private:
  /// Pool indices, smallest job first.
  [[nodiscard]] std::vector<std::size_t> by_size() const {
    std::vector<std::size_t> order(pool_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return pool_[a].pixels() < pool_[b].pixels();
                     });
    return order;
  }

  void generate_1clk(Rng& rng) {
    // 8 frame-size bands from 64x48 to 294x220, each holding one job of
    // every device x frame-count combination, with buffer depths 128 to
    // 1024 laid out as a Latin square over bands and combinations.
    // Inside a band the seed deals four nearby widths to the four jobs
    // and picks the camera content.  Bands are interleaved so that
    // every stretch of the pool mixes small and large frames.  The
    // warm-up is band 4's single-frame FIFO job.
    const std::vector<int> depths = {128, 256, 512, 1024};
    for (const int band : {0, 4, 2, 6, 1, 5, 3, 7}) {
      if (band == 4) warmup_ = pool_.size();
      const std::vector<int> widths = rng.deal(std::vector<int>{0, 2, 4, 6});
      for (std::size_t combo = 0; combo < 4; ++combo) {
        VideoJob j;
        j.one.width = 64 + 32 * band + widths[combo];
        j.one.height = j.one.width * 3 / 4;
        j.one.device = (combo & 1) != 0 ? DeviceKind::Sram : DeviceKind::FifoCore;
        j.one.frames = (combo & 2) != 0 ? 2 : 1;
        j.one.buffer_depth = depths[(combo + static_cast<std::size_t>(band)) % 4];
        j.one.pattern_seed = static_cast<unsigned>(rng.range(1, 1 << 20));
        j.max_cycles = 16ull * static_cast<std::uint64_t>(j.pixels()) + 100000;
        pool_.push_back(std::move(j));
      }
    }
  }

  void generate_triclk(Rng& rng) {
    // Every ratio x lane-count combination in each of 4 frame-size
    // bands (32x24 up to 82x61), with CDC depths 8 to 32 laid out as a
    // Latin square over bands and lane counts.  Inside a band the seed
    // deals nine nearby widths to the nine jobs and picks the camera
    // content.  The warm-up is band 2's 5x2x3 job with 3 lanes.
    struct Ratio {
      int cam, mem, pix;
    };
    const std::vector<Ratio> ratios = {{5, 2, 3}, {3, 1, 2}, {1, 1, 1}};
    for (const int band : {0, 2, 1, 3}) {
      if (band == 2) warmup_ = pool_.size() + 1;
      const std::vector<int> widths =
          rng.deal(std::vector<int>{0, 0, 0, 1, 1, 1, 2, 2, 2});
      const std::vector<int> depths = {8, 16, 32};
      std::size_t k = 0;
      for (const Ratio& r : ratios) {
        for (int lanes = 2; lanes <= 4; ++lanes, ++k) {
          VideoJob j;
          j.triclk = true;
          j.tri.width = 32 + 16 * band + widths[k];
          j.tri.height = j.tri.width * 3 / 4;
          j.tri.frames = 1;
          j.tri.lanes = lanes;
          j.tri.cam_period = r.cam;
          j.tri.mem_period = r.mem;
          j.tri.pix_period = r.pix;
          j.tri.cdc_depth =
              depths[static_cast<std::size_t>(lanes + band) % depths.size()];
          j.tri.pattern_seed = static_cast<unsigned>(rng.range(1, 1 << 20));
          j.max_cycles =
              64ull * static_cast<std::uint64_t>(j.tri.width * j.tri.height) +
              100000;
          pool_.push_back(std::move(j));
        }
      }
    }
  }

  JobOutcome run_one(const VideoJob& j, SpanLog* log, Counts* counts,
                     const std::string* vcd_path) {
    JobOutcome out;
    std::unique_ptr<VideoDesign> top = timed(log, "designs.build", [&] {
      return j.triclk ? hwpat::designs::make_saa2vga_triclk(j.tri)
                      : hwpat::designs::make_saa2vga_pattern(j.one);
    });
    std::optional<Simulator> sim;
    timed(log, "rtl.elaborate", [&] { sim.emplace(*top); });
    timed(log, "rtl.reset", [&] { sim->reset(); });
    if (vcd_path != nullptr)
      timed(log, "rtl.open_vcd", [&] { sim->open_vcd(*vcd_path); });
    hwpat::rtl::RunStatus st;
    {
      SpanLog::Scope span(log, "rtl.run");
      st = sim->run([&] { return top->finished(); }, j.max_cycles);
      span.set_work(st.steps);
    }
    if (!st.ok())
      out.error = std::string("run() returned ") + hwpat::rtl::to_string(st.result);
    else
      out.error = check_frames(*top, j.expected, j.pattern_seed());

    Digest d;
    add_stats(d, sim->stats());
    d.add(sim->cycle());
    d.add(sim->now());
    d.add(st.steps);
    out.digest = d.value();
    if (counts != nullptr) {
      counts->add(sim->stats());
      counts->cycles += sim->cycle();
      counts->frames += static_cast<std::uint64_t>(j.frames());
      counts->arena_kib.push_back(
          static_cast<double>(sim->memory_stats().arena_bytes_used) /
          1024.0);
    }
    timed(log, "rtl.teardown", [&] { sim.reset(); });
    return out;
  }

  std::string scratch_dir_;
  std::vector<VideoJob> pool_;
  std::size_t warmup_ = 0;  ///< same job shape for every seed
  Digest inputs_;
};

// ---------------------------------------------------------------------
// sweep_fork: one job is one request to a 2-worker SweepDriver — a run
// over a design grid, or a run_forked of one warmed base.
// ---------------------------------------------------------------------

constexpr int kSweepWorkers = 2;

/// Busy-time bookkeeping of the traced run: a job's span starts when a
/// worker calls its build factory and ends when its done predicate
/// first holds.
thread_local std::uint64_t tl_job_start = 0;

struct SweepRequest {
  bool fork = false;
  hwpat::designs::Saa2VgaSweepGrid grid;
  hwpat::designs::TriClkSweepGrid tri_grid;
  bool base_triclk = false;  ///< fork: base from tri_grid, else grid
  std::uint64_t warmup = 0;  ///< fork: capture point of the base
  int branches = 0;          ///< fork: branch count
  int frames = 1;
  unsigned pattern_seed = 1;
  std::map<FrameKey, std::vector<Frame>> expected;
  /// Frame-check failures seen by the done predicates (they run on the
  /// worker threads).
  mutable std::atomic<int> mismatches{0};
};

hwpat::rtl::SweepOptions sweep_options() {
  hwpat::rtl::SweepOptions o;
  o.workers = kSweepWorkers;
  o.max_cycles = 4'000'000;
  return o;
}

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(std::uint64_t seed)
      : driver_(sweep_options()) {
    Rng rng(seed);
    // Six grid requests and six fork requests, alternating.  The seed
    // deals fixed request shapes to the slots and picks the buffer
    // depths and camera content, so every seed runs the same amount of
    // simulation.
    struct TriShape {
      std::vector<std::string> ratios;
      int width;
    };
    const std::vector<std::pair<int, int>> grid_widths = rng.deal(
        std::vector<std::pair<int, int>>{
            {16, 24}, {20, 28}, {24, 32}, {16, 28}, {20, 32}, {24, 28}});
    const std::vector<std::pair<int, int>> grid_depths = rng.deal(
        std::vector<std::pair<int, int>>{
            {64, 256}, {128, 512}, {64, 512}, {128, 256}, {256, 512}, {64, 128}});
    const std::vector<TriShape> grid_tri = rng.deal(std::vector<TriShape>{
        {{"5x2x3", "3x1x2"}, 16}, {{"5x2x3", "3x1x2"}, 32},
        {{"5x2x3", "1x1x1"}, 20}, {{"5x2x3", "1x1x1"}, 28},
        {{"3x1x2", "1x1x1"}, 24}, {{"3x1x2", "1x1x1"}, 24}});
    struct ForkShape {
      bool triclk;
      int width;
      int variant;  ///< saa2vga: 0 = FIFO, 1 = SRAM; triclk: lanes
      std::string ratio;
      int branches;
    };
    const std::vector<ForkShape> forks = rng.deal(std::vector<ForkShape>{
        {false, 16, 0, "", 8}, {false, 24, 1, "", 6}, {false, 32, 0, "", 4},
        {true, 16, 2, "5x2x3", 7}, {true, 24, 1, "3x1x2", 5},
        {true, 32, 1, "1x1x1", 6}});
    const std::vector<int> depths = {64, 128, 256, 512};
    for (std::size_t r = 0; r < 12; ++r) {
      auto rq = std::make_unique<SweepRequest>();
      rq->fork = (r % 2) == 1;
      rq->pattern_seed = static_cast<unsigned>(rng.range(1, 1 << 20));
      rq->grid.frames = rq->tri_grid.frames = rq->frames;
      rq->grid.pattern_seed = rq->tri_grid.pattern_seed = rq->pattern_seed;
      if (!rq->fork) {
        const TriShape& t = grid_tri[r / 2];
        rq->grid.widths = {grid_widths[r / 2].first, grid_widths[r / 2].second};
        rq->grid.depths = {grid_depths[r / 2].first, grid_depths[r / 2].second};
        rq->tri_grid.ratios = t.ratios;
        rq->tri_grid.lanes = {1, 2};
        rq->tri_grid.width = t.width;
      } else {
        const ForkShape& f = forks[r / 2];
        if (!f.triclk && f.width == 24) warmup_ = r;
        rq->base_triclk = f.triclk;
        rq->branches = f.branches;
        rq->grid.widths = {f.width};
        rq->grid.depths = {rng.pick(depths)};
        rq->grid.devices = {f.variant == 0 ? DeviceKind::FifoCore : DeviceKind::Sram};
        rq->tri_grid.ratios = {f.triclk ? f.ratio : "5x2x3"};
        rq->tri_grid.lanes = {f.triclk ? f.variant : 1};
        rq->tri_grid.width = f.width;
        rq->warmup = static_cast<std::uint64_t>(f.width * (f.width * 3 / 4)) / 2;
      }
      rq->tri_grid.height = rq->tri_grid.width * 3 / 4;
      // Expected frames of every lane of every variant the request runs.
      std::vector<std::pair<int, int>> sizes;
      for (const int gw : rq->grid.widths) sizes.emplace_back(gw, gw * 3 / 4);
      sizes.emplace_back(rq->tri_grid.width, rq->tri_grid.height);
      for (const auto& [sw, sh] : sizes)
        for (unsigned lane = 0; lane < 2; ++lane) {
          const unsigned s = rq->pattern_seed + lane;
          rq->expected[{sw, sh, s}] =
              hwpat::designs::camera_frames(sw, sh, rq->frames, s);
        }
      inputs_.add(static_cast<std::uint64_t>(rq->fork));
      inputs_.add(rq->pattern_seed);
      inputs_.add(rq->warmup);
      inputs_.add(static_cast<std::uint64_t>(rq->branches));
      for (const int gw : rq->grid.widths) inputs_.add(static_cast<std::uint64_t>(gw));
      for (const int gd : rq->grid.depths) inputs_.add(static_cast<std::uint64_t>(gd));
      for (const auto& ro : rq->tri_grid.ratios) inputs_.add(ro);
      inputs_.add(static_cast<std::uint64_t>(rq->tri_grid.width));
      pool_.push_back(std::move(rq));
    }
    pooled_digest_.assign(pool_.size(), 0);
  }

  [[nodiscard]] std::size_t pool_size() const override { return pool_.size(); }
  [[nodiscard]] std::uint64_t inputs_digest() const override {
    return inputs_.value();
  }

  [[nodiscard]] int threads() const override { return kSweepWorkers; }
  /// The 24-wide saa2vga fork request, whatever slot the seed dealt it.
  [[nodiscard]] std::size_t warmup_index() const override { return warmup_; }

  JobOutcome run(std::size_t i, SpanLog* log, Counts* counts) override {
    SpanLog::Scope root(log, "job");
    const SweepRequest& rq = *pool_[i];
    rq.mismatches.store(0);
    tracing_ = log != nullptr;
    std::vector<hwpat::rtl::SweepJob> jobs =
        timed(log, "designs.grid", [&] { return expand(rq); });
    std::vector<hwpat::rtl::SweepResult> results;
    hwpat::rtl::Snapshot blob;
    const std::uint64_t t0 = now_ns();
    if (!rq.fork) {
      results = timed(log, "sweep.run", [&] { return driver_.run(jobs); });
    } else {
      jobs.front().warmup = rq.warmup;
      const std::vector<hwpat::rtl::SweepBranch> branches = make_branches(rq);
      results = timed(log, "sweep.run_forked", [&] {
        return driver_.run_forked(jobs.front(), branches, &blob);
      });
    }
    if (tracing_) {
      const std::size_t workers =
          std::min<std::size_t>(kSweepWorkers, results.size());
      request_ns_ += static_cast<double>(workers * (now_ns() - t0));
    }
    tracing_ = false;

    JobOutcome out;
    out.error = check(rq, results);
    out.digest = digest(results, blob.size_bytes());
    pooled_digest_[i] = out.digest;
    if (counts != nullptr) {
      for (const auto& r : results) {
        counts->add(r.stats);
        counts->cycles += r.cycles;
        counts->frames += static_cast<std::uint64_t>(rq.frames);
      }
      if (rq.fork)
        counts->snapshot_kib.push_back(static_cast<double>(blob.size_bytes()) /
                                       1024.0);
    }
    return out;
  }

  void traced_extras(SpanLog& log, Counts& counts, Metrics& m,
                     std::vector<std::string>& errors) override {
    m["sweep.worker_busy_ratio"] = {
        request_ns_ > 0 ? static_cast<double>(busy_ns_.load()) / request_ns_
                        : 0.0,
        "ratio"};
    // Serial replay of one pass of the pool through the Simulator's
    // public calls, so every rtl call of a request gets its own span.
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      log.set_job(static_cast<std::uint32_t>(1'000'000 + i));
      SpanLog::Scope root(&log, "replay");
      const std::string err = replay(*pool_[i], pooled_digest_[i], log, counts);
      if (!err.empty()) errors.push_back(err);
    }
  }

 private:
  std::vector<hwpat::rtl::SweepJob> expand(const SweepRequest& rq) {
    std::vector<hwpat::rtl::SweepJob> jobs;
    if (!rq.fork || !rq.base_triclk) jobs = hwpat::designs::saa2vga_sweep(rq.grid);
    if (!rq.fork || rq.base_triclk)
      for (auto& j : hwpat::designs::saa2vga_triclk_sweep(rq.tri_grid))
        jobs.push_back(std::move(j));
    for (auto& j : jobs) {
      j.build = [this, inner = std::move(j.build)] {
        if (tracing_) tl_job_start = now_ns();
        return inner();
      };
      j.done = [this, &rq](const hwpat::rtl::Module& top) {
        const auto& d = static_cast<const VideoDesign&>(top);
        if (!d.finished()) return false;
        if (tracing_) busy_ns_.fetch_add(now_ns() - tl_job_start);
        if (!check_frames(d, rq.expected, rq.pattern_seed).empty())
          rq.mismatches.fetch_add(1);
        return true;
      };
    }
    return jobs;
  }

  static std::vector<hwpat::rtl::SweepBranch> make_branches(
      const SweepRequest& rq) {
    std::vector<hwpat::rtl::SweepBranch> branches;
    for (int b = 0; b < rq.branches; ++b)
      branches.push_back({"b" + std::to_string(b), {}, {}, 0, ""});
    return branches;
  }

  static std::string check(const SweepRequest& rq,
                           const std::vector<hwpat::rtl::SweepResult>& results) {
    for (const auto& r : results) {
      if (!r.ok) return r.name + ": " + r.error;
      if (r.outcome != hwpat::rtl::RunResult::PredSatisfied)
        return r.name + ": run() returned " + hwpat::rtl::to_string(r.outcome);
    }
    if (rq.mismatches.load() != 0)
      return "collected frames differ from the camera frames";
    // Branches without stimulus replay the same warmed base, so they
    // must end in identical states.
    if (rq.fork)
      for (const auto& r : results)
        if (!same_stats(r.stats, results.front().stats) ||
            r.cycles != results.front().cycles || r.steps != results.front().steps)
          return r.name + ": fork branch diverged from " + results.front().name;
    return {};
  }

  static std::uint64_t digest(const std::vector<hwpat::rtl::SweepResult>& results,
                              std::size_t snapshot_bytes) {
    Digest d;
    for (const auto& r : results) {
      d.add(r.name);
      d.add(static_cast<std::uint64_t>(r.outcome));
      d.add(r.steps);
      d.add(r.cycles);
      d.add(r.ticks);
      add_stats(d, r.stats);
    }
    d.add(static_cast<std::uint64_t>(snapshot_bytes));
    return d.value();
  }

  /// One request, serially, through the Simulator's public calls; its
  /// results must digest exactly like the pooled run's.
  std::string replay(const SweepRequest& rq, std::uint64_t pooled_digest,
                     SpanLog& log, Counts& counts) {
    rq.mismatches.store(0);
    std::vector<hwpat::rtl::SweepJob> jobs =
        timed(&log, "designs.grid", [&] { return expand(rq); });
    std::vector<hwpat::rtl::SweepResult> results;
    hwpat::rtl::Snapshot blob;
    auto measured = [&](const hwpat::rtl::SweepJob& job, const std::string& name,
                        const hwpat::rtl::Snapshot* from) {
      hwpat::rtl::SweepResult r;
      r.name = name;
      auto top = timed(&log, "designs.build", [&] { return job.build(); });
      std::optional<Simulator> sim;
      timed(&log, "rtl.elaborate", [&] { sim.emplace(*top, job.sim); });
      if (from != nullptr)
        timed(&log, "rtl.snapshot_restore", [&] { sim->restore_snapshot(*from); });
      else
        timed(&log, "rtl.reset", [&] { sim->reset(); });
      {
        SpanLog::Scope span(&log, "rtl.run");
        const auto st =
            sim->run([&] { return job.done(*top); }, driver_.options().max_cycles);
        span.set_work(st.steps);
        r.ok = true;
        r.outcome = st.result;
        r.steps = st.steps;
      }
      r.cycles = sim->cycle();
      r.ticks = sim->now();
      r.stats = sim->stats();
      counts.arena_kib.push_back(
          static_cast<double>(sim->memory_stats().arena_bytes_used) / 1024.0);
      timed(&log, "rtl.teardown", [&] { sim.reset(); });
      results.push_back(std::move(r));
    };
    if (!rq.fork) {
      for (const auto& job : jobs) measured(job, job.name, nullptr);
    } else {
      const hwpat::rtl::SweepJob& base = jobs.front();
      {
        auto top = timed(&log, "designs.build", [&] { return base.build(); });
        std::optional<Simulator> sim;
        timed(&log, "rtl.elaborate", [&] { sim.emplace(*top, base.sim); });
        timed(&log, "rtl.reset", [&] { sim->reset(); });
        timed(&log, "rtl.step", [&] { sim->step(static_cast<int>(rq.warmup)); });
        blob = timed(&log, "rtl.snapshot_save", [&] { return sim->save_snapshot(); });
        timed(&log, "rtl.teardown", [&] { sim.reset(); });
      }
      for (const auto& br : make_branches(rq))
        measured(base, base.name + "." + br.name, &blob);
    }
    std::string err = check(rq, results);
    if (err.empty() && digest(results, blob.size_bytes()) != pooled_digest)
      err = std::string("serial replay of a ") + (rq.fork ? "fork" : "grid") +
            " request differs from the pooled run";
    return err;
  }

  hwpat::rtl::SweepDriver driver_;
  std::vector<std::unique_ptr<SweepRequest>> pool_;
  std::size_t warmup_ = 0;
  /// Digest of each request's latest pooled run, for the replay check.
  std::vector<std::uint64_t> pooled_digest_;
  Digest inputs_;
  bool tracing_ = false;
  std::atomic<std::uint64_t> busy_ns_{0};
  double request_ns_ = 0;
};

// ---------------------------------------------------------------------
// codegen_roundtrip: one job takes one unit through generate -> emit ->
// parse -> validate -> re-emit and compares the two texts byte for byte.
// ---------------------------------------------------------------------

struct UnitJob {
  enum class Kind { Container, Iterator, Algorithm } kind = Kind::Container;
  hwpat::meta::ContainerSpec container;
  hwpat::meta::IteratorSpec iterator;
  hwpat::meta::AlgorithmSpec algorithm;
};

class CodegenWorkload final : public Workload {
 public:
  explicit CodegenWorkload(std::uint64_t seed) {
    using hwpat::core::ContainerKind;
    Rng rng(seed);
    // Four variants of every unit shape: each legal kind x device
    // binding, the full / read-only / 24-over-8 iterators, and the
    // copy / invert FSMs.  Per shape the seed deals the four variants
    // their element widths, depths and bus widths from fixed sets.
    const std::vector<int> kElem = {8, 16, 24, 32};
    const std::vector<int> kDepthLog = {5, 7, 9, 11};
    const std::vector<int> kBus = {0, 0, 8, 8};
    for (const auto kind :
         {ContainerKind::Stack, ContainerKind::Queue, ContainerKind::ReadBuffer,
          ContainerKind::WriteBuffer, ContainerKind::Vector,
          ContainerKind::AssocArray}) {
      for (const auto dev : hwpat::core::legal_devices(kind)) {
        const bool adapts =
            dev != DeviceKind::LineBuffer3 && dev != DeviceKind::AsyncFifoCore;
        const auto elem = rng.deal(kElem);
        const auto depth = rng.deal(kDepthLog);
        const auto bus = rng.deal(kBus);
        for (std::size_t v = 0; v < 4; ++v) {
          UnitJob u;
          u.container.name = hwpat::core::to_string(kind);
          u.container.kind = kind;
          u.container.device = dev;
          u.container.elem_bits = elem[v];
          u.container.bus_bits = adapts ? bus[v] : 0;
          u.container.depth = 1 << depth[v];
          pool_.push_back(std::move(u));
        }
      }
    }
    const auto rb_elem = rng.deal(kElem);
    const auto rb_depth = rng.deal(kDepthLog);
    const auto rb_dev = rng.deal(std::vector<DeviceKind>{
        DeviceKind::FifoCore, DeviceKind::Sram, DeviceKind::BlockRam,
        DeviceKind::FifoCore});
    for (std::size_t v = 0; v < 4; ++v) {
      hwpat::meta::ContainerSpec rb;
      rb.name = "rbuffer";
      rb.kind = ContainerKind::ReadBuffer;
      rb.device = rb_dev[v];
      rb.elem_bits = rb_elem[v];
      rb.depth = 1 << rb_depth[v];
      UnitJob full;
      full.kind = UnitJob::Kind::Iterator;
      full.iterator = {.name = "it",
                       .traversal = hwpat::core::Traversal::Forward,
                       .role = hwpat::core::IterRole::Input,
                       .used_ops = {},
                       .container = rb};
      UnitJob readonly = full;
      readonly.iterator.name = "it_readonly";
      readonly.iterator.used_ops = hwpat::core::OpSet{hwpat::core::Op::Read};
      UnitJob rgb = full;
      rgb.iterator.name = "it_rgb";
      rgb.iterator.container.elem_bits = 24;
      rgb.iterator.container.bus_bits = 8;
      pool_.push_back(std::move(full));
      pool_.push_back(std::move(readonly));
      pool_.push_back(std::move(rgb));
    }
    const auto copy_elem = rng.deal(kElem);
    const auto inv_elem = rng.deal(kElem);
    for (std::size_t v = 0; v < 4; ++v) {
      UnitJob copy;
      copy.kind = UnitJob::Kind::Algorithm;
      copy.algorithm.elem_bits = copy_elem[v];
      UnitJob invert = copy;
      invert.algorithm.name = "invert";
      invert.algorithm.op_vhdl = "not $x";
      invert.algorithm.elem_bits = inv_elem[v];
      invert.algorithm.count = static_cast<std::uint64_t>(rng.range(1, 4095));
      pool_.push_back(std::move(copy));
      pool_.push_back(std::move(invert));
    }
    for (const UnitJob& u : pool_) {
      const auto& c = u.kind == UnitJob::Kind::Iterator ? u.iterator.container
                                                        : u.container;
      inputs_.add(static_cast<std::uint64_t>(u.kind));
      inputs_.add(static_cast<std::uint64_t>(c.elem_bits));
      inputs_.add(static_cast<std::uint64_t>(c.bus_bits));
      inputs_.add(static_cast<std::uint64_t>(c.depth));
      inputs_.add(static_cast<std::uint64_t>(c.device));
      inputs_.add(static_cast<std::uint64_t>(u.algorithm.elem_bits));
      inputs_.add(u.algorithm.count);
    }
  }

  [[nodiscard]] std::size_t pool_size() const override { return pool_.size(); }
  [[nodiscard]] std::uint64_t inputs_digest() const override {
    return inputs_.value();
  }

  JobOutcome run(std::size_t i, SpanLog* log, Counts* counts) override {
    SpanLog::Scope root(log, "job");
    const UnitJob& u = pool_[i];
    const hwpat::hdl::DesignUnit unit = timed(log, "meta.generate", [&] {
      switch (u.kind) {
        case UnitJob::Kind::Container:
          return hwpat::meta::generate_container(u.container);
        case UnitJob::Kind::Iterator:
          return hwpat::meta::generate_iterator(u.iterator);
        case UnitJob::Kind::Algorithm:
          break;
      }
      return hwpat::meta::generate_algorithm(u.algorithm);
    });
    const std::string first =
        timed(log, "hdl.emit", [&] { return hwpat::hdl::emit_unit(unit); });
    const hwpat::hdl::DesignUnit parsed =
        timed(log, "hdl.parse", [&] { return hwpat::hdl::parse_unit(first); });
    timed(log, "hdl.validate", [&] { hwpat::hdl::validate_unit(parsed); });
    const std::string second =
        timed(log, "hdl.emit", [&] { return hwpat::hdl::emit_unit(parsed); });

    JobOutcome out;
    if (first != second)
      out.error = unit.entity.name + ": re-emitted text differs from the first emit";
    Digest d;
    d.add(first);
    out.digest = d.value();
    if (counts != nullptr) {
      ++counts->units;
      counts->emitted_bytes += first.size();
      counts->roundtrip_mismatches += first != second ? 1 : 0;
    }
    return out;
  }

 private:
  std::vector<UnitJob> pool_;
  Digest inputs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "video_1clk", "video_3clk_farm", "sweep_fork", "codegen_roundtrip"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir) {
  if (name == "video_1clk")
    return std::make_unique<VideoWorkload>(false, seed, scratch_dir);
  if (name == "video_3clk_farm")
    return std::make_unique<VideoWorkload>(true, seed, scratch_dir);
  if (name == "sweep_fork") return std::make_unique<SweepWorkload>(seed);
  if (name == "codegen_roundtrip") return std::make_unique<CodegenWorkload>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
