// The four workloads.  Each one generates its job pool from the seed
// (the library sees only those generated inputs), runs one job at a
// time through the library's public calls, and checks every output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rtl/simulator.hpp"

namespace perfbench {

/// What one job produced: an error text when a check failed, and a
/// digest of its deterministic counts.
struct JobOutcome {
  std::string error;
  std::uint64_t digest = 0;
};

/// Deterministic per-layer counts, summed over the first pass of the
/// job pool (the same seed always gives the same values).
struct Counts {
  hwpat::rtl::Simulator::Stats stats;  ///< summed field by field
  std::uint64_t cycles = 0;            ///< Simulator::cycle() at job end
  std::uint64_t frames = 0;            ///< video frames the jobs carried
  std::vector<double> arena_kib;       ///< per simulator, after its run
  std::vector<double> snapshot_kib;    ///< per saved snapshot
  std::uint64_t units = 0;             ///< generated VHDL units
  std::uint64_t emitted_bytes = 0;     ///< first-emit bytes, summed
  std::uint64_t roundtrip_mismatches = 0;

  void add(const hwpat::rtl::Simulator::Stats& s);
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::size_t pool_size() const = 0;
  /// Pool index of the discarded warm-up job that ends set-up.
  [[nodiscard]] virtual std::size_t warmup_index() const {
    return pool_size() / 2;
  }
  /// Threads a job keeps busy (the host-speed probe samples as many).
  [[nodiscard]] virtual int threads() const { return 1; }
  /// Digest of the generated inputs (differs between seeds).
  [[nodiscard]] virtual std::uint64_t inputs_digest() const = 0;

  /// Runs pool job `i` once.  Every public call gets a span in `log`
  /// when tracing; `counts` is non-null on the job's first run.
  virtual JobOutcome run(std::size_t i, SpanLog* log, Counts* counts) = 0;

  /// Work of the traced run outside the timed job loop: VCD cost by
  /// subtraction, the serial replay of sweep requests.  Adds the
  /// per-layer metrics it owns to `m` and appends failed checks to
  /// `errors`.
  virtual void traced_extras(SpanLog& log, Counts& counts, Metrics& m,
                             std::vector<std::string>& errors) {
    (void)log, (void)counts, (void)m, (void)errors;
  }
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates workload `name`'s inputs from `seed`.  `scratch_dir` is
/// where the traced run may write its VCD files.  Throws on an unknown
/// name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed,
    const std::string& scratch_dir);

}  // namespace perfbench
