// Benchmark harness pieces shared by the driver and the workloads: the
// seeded input generator, the deterministic-count digest, the in-memory
// span log of the traced run, and sample statistics.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: the only source of randomness.  Workload inputs are a
/// pure function of the --seed argument on every platform (no
/// implementation-defined <random> distributions).  Parameters that
/// set a job's cost are dealt from fixed multisets (see deal()), so
/// the seed changes the jobs but not the size of the work.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[next() % v.size()];
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }
  /// A shuffled copy of `v`: the seed decides which job gets which
  /// value while the multiset, and so the pool's total work, stays
  /// the same for every seed.
  template <typename T>
  std::vector<T> deal(std::vector<T> v) {
    shuffle(v);
    return v;
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a over a stream of integers and strings.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Nanoseconds on the steady clock since the first call.
[[nodiscard]] inline std::uint64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when
/// empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// Host-speed probe.  On a shared host the CPU runs in states whose
/// speed differs by up to ~45% for tens of seconds at a time (measured
/// on a 4-vCPU Xeon guest), and a fixed integer loop slows by the same
/// factor as the jobs do.  Every host time the benchmark reports is
/// therefore multiplied by factor() = kNominalNs / (probe time), taken
/// on the job's thread(s) right next to the job: the metrics read as
/// host time on a machine where the probe runs at its nominal speed.
/// The probe is the benchmark's own code, so a change to the library
/// moves the jobs and never the probe.
class SpeedProbe {
 public:
  /// One burst's time when the CPU runs at nominal speed.
  static constexpr double kNominalNs = 160'000.0;

  /// Runs the burst twice on each of `threads` threads at once and
  /// keeps the mean over threads of each thread's faster burst.
  void sample(int threads) {
    std::vector<double> ns(static_cast<std::size_t>(threads), 0.0);
    std::vector<std::thread> helpers;
    for (int t = 1; t < threads; ++t)
      helpers.emplace_back([&ns, t] { ns[static_cast<std::size_t>(t)] = best_of_two(); });
    ns[0] = best_of_two();
    for (std::thread& h : helpers) h.join();
    double sum = 0;
    for (double v : ns) sum += v;
    last_ns_ = sum / static_cast<double>(threads);
    last_at_ = now_ns();
  }
  [[nodiscard]] double factor() const { return kNominalNs / last_ns_; }
  /// Nanoseconds since the last sample.
  [[nodiscard]] std::uint64_t age_ns() const { return now_ns() - last_at_; }

 private:
  static double best_of_two() {
    double best = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const std::uint64_t t0 = now_ns();
      Rng r(rep + 1);
      std::uint64_t acc = 0;
      for (int i = 0; i < 100'000; ++i) acc += r.next() >> (acc & 7);
      const double ns = static_cast<double>(now_ns() - t0);
      sink_.fetch_xor(acc, std::memory_order_relaxed);
      best = rep == 0 ? ns : std::min(best, ns);
    }
    return best;
  }

  static inline std::atomic<std::uint64_t> sink_{0};  ///< keeps the loop live
  double last_ns_ = kNominalNs;
  std::uint64_t last_at_ = 0;
};

/// One public library call made by the traced run.
struct Span {
  const char* name;  ///< "<layer>.<call>", or a root: "job", "replay", ...
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;  ///< index into the log, -1 for a root
  std::uint32_t job;    ///< job id shared by every span of one job
  std::uint64_t work;   ///< units of work done (clock edges for a run)
};

/// The traced run's spans, kept in memory and written out at exit.
/// Spans nest: a span opened while another is open becomes its child.
class SpanLog {
 public:
  /// RAII span: closes (stamps end_ns) when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log) {
      if (log_ == nullptr) return;
      idx_ = static_cast<std::int32_t>(log_->spans_.size());
      log_->spans_.push_back({name, now_ns(), 0, log_->open_, log_->job_, 0});
      saved_ = log_->open_;
      log_->open_ = idx_;
    }
    ~Scope() {
      if (log_ == nullptr) return;
      log_->spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
      log_->open_ = saved_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_work(std::uint64_t n) {
      if (log_ != nullptr)
        log_->spans_[static_cast<std::size_t>(idx_)].work = n;
    }

   private:
    SpanLog* log_;
    std::int32_t idx_ = -1;
    std::int32_t saved_ = -1;
  };

  void set_job(std::uint32_t job) { job_ = job; }
  /// Host-speed factor of job `job`'s spans (see SpeedProbe).
  void set_scale(std::uint32_t job, double f) { scale_[job] = f; }
  /// Factor of the jobs set_scale() never named (1 until set).
  void set_default_scale(double f) { default_scale_ = f; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ns) of every span called `name` whose root span is one
  /// of `roots` (all roots when empty).
  [[nodiscard]] std::vector<double> durations(
      std::string_view name, const std::vector<std::string_view>& roots = {}) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (name == s.name && under(s, roots)) out.push_back(scaled_ns(s));
    return out;
  }

  /// Summed duration (ns) and work of the spans durations() selects.
  [[nodiscard]] std::pair<double, double> totals(
      std::string_view name, const std::vector<std::string_view>& roots = {}) const {
    double ns = 0, work = 0;
    for (const Span& s : spans_)
      if (name == s.name && under(s, roots)) {
        ns += scaled_ns(s);
        work += static_cast<double>(s.work);
      }
    return {ns, work};
  }

  /// Writes one JSON object per line: name, start/end ns (raw host
  /// time), parent, job, work.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%d,\"job\":%u,\"work\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent, s.job,
                   static_cast<unsigned long long>(s.work));
    return std::fclose(f) == 0;
  }

 /// Span duration times its job's host-speed factor.
  [[nodiscard]] double scaled_ns(const Span& s) const {
    const auto it = scale_.find(s.job);
    return static_cast<double>(s.end_ns - s.start_ns) *
           (it == scale_.end() ? default_scale_ : it->second);
  }

 private:
  [[nodiscard]] bool under(const Span& s,
                           const std::vector<std::string_view>& roots) const {
    if (roots.empty()) return true;
    const Span* r = &s;
    while (r->parent >= 0) r = &spans_[static_cast<std::size_t>(r->parent)];
    return std::find(roots.begin(), roots.end(), r->name) != roots.end();
  }

  std::vector<Span> spans_;
  std::map<std::uint32_t, double> scale_;
  double default_scale_ = 1.0;
  std::int32_t open_ = -1;
  std::uint32_t job_ = 0;
};

/// Runs `f` inside a span when tracing (log != nullptr), bare otherwise.
template <typename F>
decltype(auto) timed(SpanLog* log, const char* name, F&& f) {
  SpanLog::Scope scope(log, name);
  return f();
}

/// Metric name -> (value, unit), in insertion-independent name order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
