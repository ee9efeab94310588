// Shared helpers for the bench binaries that simulate: the
// `--trace <file>` flag and the traced reference run behind it.  A
// traced run is SEPARATE from the bench's own measured runs — tracing
// costs wall time — so the flag drives one representative run with a
// profiling Tracer attached and flushes Chrome-trace-event JSON
// (Perfetto / chrome://tracing) plus a hot-modules table on stderr.
#pragma once

#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>

#include "rtl/rtl.hpp"

namespace hwpat::benchutil {

/// Strips `--trace FILE` / `--trace=FILE` out of argv (so the
/// remaining flags can go to the bench's own parser) and returns the
/// file path, "" when the flag is absent.
/// Malformed forms fail loudly (hwpat::Error): a trailing `--trace`
/// with no value used to fall through to the downstream parser's
/// unknown-flag handling, and `--trace=` silently disabled tracing —
/// both looked like a successful un-traced run.  A repeated flag is
/// legal; the last occurrence wins (standard CLI convention).
inline std::string take_trace_flag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") {
      if (i + 1 >= argc)
        throw Error(
            "--trace requires a file path argument (use `--trace FILE` "
            "or `--trace=FILE`)");
      path = argv[++i];
      if (path.empty())
        throw Error("--trace: the trace file path must not be empty");
    } else if (a.rfind("--trace=", 0) == 0) {
      path = a.substr(8);
      if (path.empty())
        throw Error(
            "--trace=: the trace file path must not be empty (use "
            "`--trace=FILE`, or drop the flag to disable tracing)");
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  return path;
}

/// main() adapter around take_trace_flag(): a malformed --trace prints
/// the parse error and exits with code 2 (flag misuse, distinct from
/// the benches' code-1 runtime failures) instead of unwinding out of
/// main().
inline std::string take_trace_flag_or_exit(int& argc, char** argv) {
  try {
    return take_trace_flag(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "bench",
                 e.what());
    std::exit(2);
  }
}

/// One traced reference run: profiling tracer on, reset, `steps`
/// clock-edge events, trace JSON to `path`, hot-modules table to
/// stderr.  Returns a process exit code (0 ok).
inline int run_traced(rtl::Module& top, const rtl::Simulator::Options& opt,
                      std::uint64_t steps, const std::string& path) {
  try {
    rtl::Simulator sim(top, opt);
    rtl::Tracer::Options topt;
    topt.profile_modules = true;
    sim.trace_start(topt);
    sim.reset();
    while (steps > 0) {
      constexpr std::uint64_t kChunk = 1u << 20;
      const std::uint64_t k = steps < kChunk ? steps : kChunk;
      sim.step(static_cast<int>(k));
      steps -= k;
    }
    sim.trace_write(path);
    const rtl::Tracer& t = *sim.telemetry();
    std::fprintf(stderr,
                 "trace: wrote %s (%zu spans, %llu dropped)\n",
                 path.c_str(), t.span_count(),
                 static_cast<unsigned long long>(t.dropped()));
    std::fputs(t.hot_modules_report(10).c_str(), stderr);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--trace failed: %s\n", e.what());
    return 1;
  }
}

}  // namespace hwpat::benchutil
