#include "rtl/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/error.hpp"

namespace hwpat::rtl {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Microseconds with ns precision — the ts/dur unit of the Chrome
/// trace event format.
void put_us(std::ostream& os, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

/// Module paths contain only [A-Za-z0-9_.] by construction, but escape
/// defensively anyway: a malformed name must corrupt one label, not
/// the JSON document.
void put_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\')
      os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20)
      os << "\\u0000";  // control chars never occur; blank them
    else
      os << c;
  }
  os << '"';
}

}  // namespace

const char* to_string(TracePhase p) {
  switch (p) {
    case TracePhase::EdgeEvent: return "edge_event";
    case TracePhase::Settle: return "settle";
    case TracePhase::CommitDrain: return "commit_drain";
    case TracePhase::SnapshotSave: return "snapshot_save";
    case TracePhase::SnapshotRestore: return "snapshot_restore";
    case TracePhase::Reset: return "reset";
  }
  return "?";
}

Tracer::Tracer(const Options& opt, std::vector<std::string> module_paths)
    : opt_(opt), paths_(std::move(module_paths)), epoch_ns_(steady_ns()) {
  if (opt_.ring_capacity == 0) opt_.ring_capacity = Options{}.ring_capacity;
  if (opt_.profile_modules) {
    eval_calls_.assign(paths_.size(), 0);
    eval_ns_.assign(paths_.size(), 0);
    clock_calls_.assign(paths_.size(), 0);
    clock_ns_.assign(paths_.size(), 0);
  }
}

std::uint64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

void Tracer::add(TracePhase phase, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t arg) {
  const std::uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  const TraceSpan span{phase, start_ns, dur, arg};
  if (ring_.size() < opt_.ring_capacity)
    ring_.push_back(span);
  else
    ring_[total_ % opt_.ring_capacity] = span;
  ++total_;
  PhaseTotal& t = phase_[static_cast<std::size_t>(phase)];
  ++t.count;
  t.ns += dur;
}

void Tracer::add_eval(int id, std::uint64_t dur_ns) {
  const auto i = static_cast<std::size_t>(id);
  ++eval_calls_[i];
  eval_ns_[i] += dur_ns;
}

void Tracer::add_clock(int id, std::uint64_t dur_ns) {
  const auto i = static_cast<std::size_t>(id);
  ++clock_calls_[i];
  clock_ns_[i] += dur_ns;
}

std::vector<TraceSpan> Tracer::spans() const {
  // Reconstruct ring order: once wrapped, the oldest retained span sits
  // at total % capacity.
  const std::size_t n = ring_.size();
  const std::size_t first = total_ > n ? total_ % opt_.ring_capacity : 0;
  std::vector<TraceSpan> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) out.push_back(ring_[(first + k) % n]);
  // Spans are recorded when they end, so an enclosing span (a reset
  // around its settle) lands after the spans it contains: re-sort.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::vector<ModuleProfile> Tracer::hot_modules(std::size_t top_n) const {
  std::vector<ModuleProfile> all;
  if (!opt_.profile_modules) return all;
  all.resize(paths_.size());
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    all[i].path = paths_[i];
    all[i].eval_calls = eval_calls_[i];
    all[i].eval_ns = eval_ns_[i];
    all[i].clock_calls = clock_calls_[i];
    all[i].clock_ns = clock_ns_[i];
  }
  // Drop modules that never ran, hottest first, cut to top_n.
  all.erase(std::remove_if(all.begin(), all.end(),
                           [](const ModuleProfile& m) {
                             return m.eval_calls == 0 && m.clock_calls == 0;
                           }),
            all.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const ModuleProfile& a, const ModuleProfile& b) {
                     return a.total_ns() > b.total_ns();
                   });
  if (all.size() > top_n) all.resize(top_n);
  return all;
}

std::string Tracer::hot_modules_report(std::size_t top_n) const {
  const std::vector<ModuleProfile> hot = hot_modules(top_n);
  if (hot.empty()) return "";
  std::string out = "top " + std::to_string(hot.size()) +
                    " hot modules (cumulative eval_comb + on_clock wall "
                    "time):\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %4s %12s %10s %12s %10s  %s\n",
                "rank", "total_us", "evals", "eval_us", "clocks", "module");
  out += line;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const ModuleProfile& m = hot[i];
    std::snprintf(line, sizeof(line),
                  "  %4zu %12.1f %10llu %12.1f %10llu  %s\n", i + 1,
                  static_cast<double>(m.total_ns()) / 1e3,
                  static_cast<unsigned long long>(m.eval_calls),
                  static_cast<double>(m.eval_ns) / 1e3,
                  static_cast<unsigned long long>(m.clock_calls),
                  m.path.c_str());
    out += line;
  }
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  os << "    {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
        "\"process_name\", \"args\": {\"name\": \"hwpat\"}},\n"
        "    {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
        "\"thread_name\", \"args\": {\"name\": \"simulator\"}}";
  first = false;
  for (const TraceSpan& s : spans()) {
    sep();
    os << "    {\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \""
       << to_string(s.phase) << "\", \"ts\": ";
    put_us(os, s.start_ns);
    os << ", \"dur\": ";
    put_us(os, s.dur_ns);
    os << ", \"args\": {\"arg\": " << s.arg << "}}";
  }
  os << "\n  ],\n  \"hwpat\": {\n    \"spans\": " << span_count()
     << ",\n    \"dropped\": " << dropped() << ",\n    \"phases\": {";
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    const PhaseTotal t = phase_total(static_cast<TracePhase>(p));
    os << (p == 0 ? "\n" : ",\n") << "      \""
       << to_string(static_cast<TracePhase>(p)) << "\": {\"count\": "
       << t.count << ", \"ns\": " << t.ns << "}";
  }
  os << "\n    },\n    \"hot_modules\": [";
  const std::vector<ModuleProfile> hot = hot_modules(10);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const ModuleProfile& m = hot[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"module\": ";
    put_json_string(os, m.path);
    os << ", \"eval_calls\": " << m.eval_calls << ", \"eval_ns\": "
       << m.eval_ns << ", \"clock_calls\": " << m.clock_calls
       << ", \"clock_ns\": " << m.clock_ns << "}";
  }
  os << (hot.empty() ? "]" : "\n    ]") << "\n  }\n}\n";
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out)
    throw Error("Tracer: cannot open trace output file '" + path + "'");
  write_chrome_json(static_cast<std::ostream&>(out));
  out.flush();
  if (!out)
    throw Error("Tracer: failed writing trace output file '" + path + "'");
}

}  // namespace hwpat::rtl
