// Implementation of the C embedding API (hwpat_c.h): opaque handles
// over the rtl/rtl.hpp surface, a thread-local last-error slot, and
// the exception→status mapping the header's taxonomy table promises.
#include "c_api/hwpat_c.h"

#include <cstring>
#include <string>
#include <vector>

#include "designs/variants.hpp"
#include "rtl/rtl.hpp"

namespace {

using hwpat::designs::Saa2VgaConfig;
using hwpat::designs::Saa2VgaDualClkConfig;
using hwpat::designs::Saa2VgaTriClkConfig;
using hwpat::designs::VideoDesign;
using hwpat::rtl::Simulator;

thread_local std::string t_last_error;

hwpat_status fail(hwpat_status s, std::string msg) {
  t_last_error = std::move(msg);
  return s;
}

/// Raised by the C-side registry/config/struct parsing; maps to
/// HWPAT_ERR_ARGUMENT (it never comes from the C++ library).
struct ArgumentError {
  std::string msg;
};

/// Runs `body` and maps the exception taxonomy onto hwpat_status
/// (most-derived classes first; order matters).
template <typename Body>
hwpat_status guarded(Body&& body) {
  try {
    body();
    t_last_error.clear();
    return HWPAT_OK;
  } catch (const ArgumentError& e) {
    return fail(HWPAT_ERR_ARGUMENT, e.msg);
  } catch (const hwpat::rtl::FaultInjected& e) {
    return fail(HWPAT_ERR_FAULT_INJECTED, e.what());
  } catch (const hwpat::CombLoopError& e) {
    return fail(HWPAT_ERR_COMB_LOOP, e.what());
  } catch (const hwpat::SpecError& e) {
    return fail(HWPAT_ERR_SPEC, e.what());
  } catch (const hwpat::ProtocolError& e) {
    return fail(HWPAT_ERR_PROTOCOL, e.what());
  } catch (const hwpat::SnapshotError& e) {
    return fail(HWPAT_ERR_SNAPSHOT, e.what());
  } catch (const hwpat::InternalError& e) {
    return fail(HWPAT_ERR_INTERNAL, e.what());
  } catch (const hwpat::Error& e) {
    return fail(HWPAT_ERR_ERROR, e.what());
  } catch (const std::exception& e) {
    return fail(HWPAT_ERR_UNKNOWN, e.what());
  } catch (...) {
    return fail(HWPAT_ERR_UNKNOWN, "unknown exception");
  }
}

hwpat_status bad_arg(std::string msg) {
  return fail(HWPAT_ERR_ARGUMENT, std::move(msg));
}

/// One key=value pair of a config string.
struct KeyValue {
  std::string key;
  std::string value;
};

std::vector<KeyValue> parse_config(const char* config) {
  std::vector<KeyValue> kvs;
  if (config == nullptr) return kvs;
  const std::string s(config);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    if (end > pos) {
      const std::string item = s.substr(pos, end - pos);
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0)
        throw ArgumentError{"config item '" + item + "' is not key=value"};
      kvs.push_back({item.substr(0, eq), item.substr(eq + 1)});
    }
    pos = end + 1;
  }
  return kvs;
}

int to_int(const KeyValue& kv) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(kv.value, &used);
    if (used != kv.value.size()) throw std::invalid_argument(kv.value);
    return v;
  } catch (const std::exception&) {
    throw ArgumentError{"config key '" + kv.key + "': '" + kv.value +
                        "' is not an integer"};
  }
}

hwpat::devices::DeviceKind to_device(const KeyValue& kv) {
  if (kv.value == "fifo") return hwpat::devices::DeviceKind::FifoCore;
  if (kv.value == "sram") return hwpat::devices::DeviceKind::Sram;
  throw ArgumentError{"config key 'device': '" + kv.value +
                      "' is not fifo|sram"};
}

[[noreturn]] void unknown_key(const std::string& design,
                              const KeyValue& kv) {
  throw ArgumentError{"design '" + design + "': unknown config key '" +
                      kv.key + "'"};
}

std::unique_ptr<VideoDesign> build_single_clock(const std::string& design,
                                                const char* config,
                                                bool pattern, bool blur) {
  Saa2VgaConfig cfg;
  hwpat::designs::BlurConfig bcfg;  // shares the overlapping fields
  for (const KeyValue& kv : parse_config(config)) {
    if (kv.key == "width") bcfg.width = cfg.width = to_int(kv);
    else if (kv.key == "height") bcfg.height = cfg.height = to_int(kv);
    else if (kv.key == "depth")
      bcfg.out_fifo_depth = cfg.buffer_depth = to_int(kv);
    else if (kv.key == "frames") bcfg.frames = cfg.frames = to_int(kv);
    else if (kv.key == "seed")
      bcfg.pattern_seed = cfg.pattern_seed =
          static_cast<unsigned>(to_int(kv));
    else if (kv.key == "device" && !blur) cfg.device = to_device(kv);
    else unknown_key(design, kv);
  }
  if (blur)
    return pattern ? hwpat::designs::make_blur_pattern(bcfg)
                   : hwpat::designs::make_blur_custom(bcfg);
  return pattern ? hwpat::designs::make_saa2vga_pattern(cfg)
                 : hwpat::designs::make_saa2vga_custom(cfg);
}

constexpr const char* kDesignList =
    "saa2vga_pattern|saa2vga_custom|blur_pattern|blur_custom|"
    "saa2vga_dualclk|saa2vga_triclk";

std::unique_ptr<VideoDesign> build_design(const std::string& design,
                                          const char* config) {
  if (design == "saa2vga_pattern")
    return build_single_clock(design, config, true, false);
  if (design == "saa2vga_custom")
    return build_single_clock(design, config, false, false);
  if (design == "blur_pattern")
    return build_single_clock(design, config, true, true);
  if (design == "blur_custom")
    return build_single_clock(design, config, false, true);
  if (design == "saa2vga_dualclk") {
    Saa2VgaDualClkConfig cfg;
    for (const KeyValue& kv : parse_config(config)) {
      if (kv.key == "width") cfg.width = to_int(kv);
      else if (kv.key == "height") cfg.height = to_int(kv);
      else if (kv.key == "depth") cfg.cdc_depth = to_int(kv);
      else if (kv.key == "frames") cfg.frames = to_int(kv);
      else if (kv.key == "seed")
        cfg.pattern_seed = static_cast<unsigned>(to_int(kv));
      else unknown_key(design, kv);
    }
    return hwpat::designs::make_saa2vga_dualclk(cfg);
  }
  if (design == "saa2vga_triclk") {
    Saa2VgaTriClkConfig cfg;
    for (const KeyValue& kv : parse_config(config)) {
      if (kv.key == "width") cfg.width = to_int(kv);
      else if (kv.key == "height") cfg.height = to_int(kv);
      else if (kv.key == "depth") cfg.cdc_depth = to_int(kv);
      else if (kv.key == "frames") cfg.frames = to_int(kv);
      else if (kv.key == "seed")
        cfg.pattern_seed = static_cast<unsigned>(to_int(kv));
      else if (kv.key == "lanes") cfg.lanes = to_int(kv);
      else unknown_key(design, kv);
    }
    return hwpat::designs::make_saa2vga_triclk(cfg);
  }
  throw ArgumentError{"unknown design '" + design + "' (" + kDesignList +
                      ")"};
}

/// Add-time validation: registry name + config grammar, without
/// elaborating anything.
void check_design_args(const std::string& design, const char* config) {
  if (design != "saa2vga_pattern" && design != "saa2vga_custom" &&
      design != "blur_pattern" && design != "blur_custom" &&
      design != "saa2vga_dualclk" && design != "saa2vga_triclk")
    throw ArgumentError{"unknown design '" + design + "' (" + kDesignList +
                        ")"};
  (void)parse_config(config);
}

Simulator::Options to_cpp_options(const hwpat_sim_options* opt) {
  Simulator::Options o;
  if (opt == nullptr) return o;
  if (opt->struct_size == 0 || opt->struct_size > sizeof(hwpat_sim_options))
    throw ArgumentError{
        "hwpat_sim_options.struct_size must be sizeof(hwpat_sim_options) "
        "or the size of an older revision, got " +
        std::to_string(opt->struct_size)};
  // A caller built against an older (smaller) struct keeps the
  // defaults for the fields it does not know about.
  hwpat_sim_options full;
  hwpat_sim_options_init(&full);
  std::memcpy(&full, opt, opt->struct_size);
  o.full_sweep = full.full_sweep != 0;
  o.delta_limit = full.delta_limit;
  o.check_seq_contract = full.check_seq_contract != 0;
  // Retired field, kept so the struct layout (and struct_size) holds: a
  // simulator runs on one thread, so only "none" (0) and "one" (1) are
  // meaningful.
  if (full.threads != 0 && full.threads != 1)
    throw ArgumentError{
        "hwpat_sim_options.threads must be 0 or 1 (a simulator runs on "
        "one thread; run simulators in parallel with hwpat_sweep), got " +
        std::to_string(full.threads)};
  o.tick_ps = full.tick_ps;
  o.fault_plan = full.fault_plan == nullptr ? "" : full.fault_plan;
  return o;
}

/// Size-negotiated copy for out-structs: fills the caller's prefix and
/// preserves the caller's struct_size.
template <typename T>
void copy_out(T* out, const T& full) {
  const std::size_t caller_size = out->struct_size;
  const std::size_t n = caller_size < sizeof(T) ? caller_size : sizeof(T);
  std::memcpy(out, &full, n);
  out->struct_size = caller_size;
}

hwpat_run_result to_c_result(hwpat::rtl::RunResult r) {
  switch (r) {
    case hwpat::rtl::RunResult::PredSatisfied: return HWPAT_RUN_DONE;
    case hwpat::rtl::RunResult::Timeout: return HWPAT_RUN_TIMEOUT;
    case hwpat::rtl::RunResult::FaultLatched:
      return HWPAT_RUN_FAULT_LATCHED;
  }
  return HWPAT_RUN_DONE;
}

}  // namespace

/// A simulator handle owns the design tree and the simulator bound to
/// it (declared in that order, so the simulator is destroyed first).
struct hwpat_sim {
  std::unique_ptr<VideoDesign> design;
  std::unique_ptr<Simulator> sim;
  /// Backing store for hwpat_sim_trace_report's returned pointer.
  std::string trace_report;
};

struct hwpat_snapshot {
  hwpat::rtl::Snapshot snap;
};

struct hwpat_sweep {
  struct Entry {
    std::string name;
    std::string design;
    std::string config;
    Simulator::Options opt;
  };
  int workers = 1;
  uint64_t max_cycles = 0;
  std::vector<Entry> entries;
  std::vector<hwpat::rtl::SweepResult> results;
};

extern "C" {

uint32_t hwpat_abi_version(void) { return HWPAT_ABI_VERSION; }

const char* hwpat_status_name(hwpat_status s) {
  switch (s) {
    case HWPAT_OK: return "ok";
    case HWPAT_ERR_ARGUMENT: return "argument";
    case HWPAT_ERR_SPEC: return "spec";
    case HWPAT_ERR_PROTOCOL: return "protocol";
    case HWPAT_ERR_COMB_LOOP: return "comb_loop";
    case HWPAT_ERR_SNAPSHOT: return "snapshot";
    case HWPAT_ERR_FAULT_INJECTED: return "fault_injected";
    case HWPAT_ERR_INTERNAL: return "internal";
    case HWPAT_ERR_ERROR: return "error";
    case HWPAT_ERR_UNKNOWN: return "unknown";
  }
  return "?";
}

const char* hwpat_last_error(void) { return t_last_error.c_str(); }

void hwpat_sim_options_init(hwpat_sim_options* opt) {
  if (opt == nullptr) return;
  const Simulator::Options d;
  *opt = hwpat_sim_options{};
  opt->struct_size = sizeof(hwpat_sim_options);
  opt->full_sweep = d.full_sweep ? 1 : 0;
  opt->delta_limit = d.delta_limit;
  opt->check_seq_contract = d.check_seq_contract ? 1 : 0;
  opt->threads = 0;
  opt->tick_ps = d.tick_ps;
  opt->fault_plan = "";
}

hwpat_status hwpat_sim_create(const char* design, const char* config,
                              const hwpat_sim_options* opt,
                              hwpat_sim** out) {
  if (design == nullptr) return bad_arg("hwpat_sim_create: design is NULL");
  if (out == nullptr) return bad_arg("hwpat_sim_create: out is NULL");
  return guarded([&] {
    auto h = std::make_unique<hwpat_sim>();
    h->design = build_design(design, config);
    h->sim = std::make_unique<Simulator>(*h->design, to_cpp_options(opt));
    h->sim->reset();
    *out = h.release();
  });
}

void hwpat_sim_destroy(hwpat_sim* sim) { delete sim; }

hwpat_status hwpat_sim_reset(hwpat_sim* sim) {
  if (sim == nullptr) return bad_arg("hwpat_sim_reset: sim is NULL");
  return guarded([&] { sim->sim->reset(); });
}

hwpat_status hwpat_sim_step(hwpat_sim* sim, uint64_t n) {
  if (sim == nullptr) return bad_arg("hwpat_sim_step: sim is NULL");
  return guarded([&] {
    // Simulator::step takes an int; chunk the 64-bit request.
    constexpr uint64_t kChunk = 1u << 20;
    while (n > 0) {
      const uint64_t k = n < kChunk ? n : kChunk;
      sim->sim->step(static_cast<int>(k));
      n -= k;
    }
  });
}

hwpat_status hwpat_sim_run_to_finish(hwpat_sim* sim, uint64_t max_cycles,
                                     hwpat_run_result* result,
                                     uint64_t* steps) {
  if (sim == nullptr)
    return bad_arg("hwpat_sim_run_to_finish: sim is NULL");
  return guarded([&] {
    const hwpat::rtl::RunStatus st = sim->sim->run(
        [&] { return sim->design->finished(); }, max_cycles);
    if (result != nullptr) *result = to_c_result(st.result);
    if (steps != nullptr) *steps = st.steps;
  });
}

hwpat_status hwpat_sim_finished(const hwpat_sim* sim, int* out) {
  if (sim == nullptr || out == nullptr)
    return bad_arg("hwpat_sim_finished: NULL argument");
  return guarded([&] { *out = sim->design->finished() ? 1 : 0; });
}

hwpat_status hwpat_sim_cycle(const hwpat_sim* sim, uint64_t* out) {
  if (sim == nullptr || out == nullptr)
    return bad_arg("hwpat_sim_cycle: NULL argument");
  return guarded([&] { *out = sim->sim->cycle(); });
}

hwpat_status hwpat_sim_now(const hwpat_sim* sim, uint64_t* out) {
  if (sim == nullptr || out == nullptr)
    return bad_arg("hwpat_sim_now: NULL argument");
  return guarded([&] { *out = sim->sim->now(); });
}

hwpat_status hwpat_sim_needs_recovery(const hwpat_sim* sim, int* out) {
  if (sim == nullptr || out == nullptr)
    return bad_arg("hwpat_sim_needs_recovery: NULL argument");
  return guarded([&] { *out = sim->sim->needs_recovery() ? 1 : 0; });
}

hwpat_status hwpat_sim_frames_received(const hwpat_sim* sim,
                                       uint64_t* out) {
  if (sim == nullptr || out == nullptr)
    return bad_arg("hwpat_sim_frames_received: NULL argument");
  return guarded([&] { *out = sim->design->sink().frames().size(); });
}

hwpat_status hwpat_sim_open_vcd(hwpat_sim* sim, const char* path) {
  if (sim == nullptr || path == nullptr)
    return bad_arg("hwpat_sim_open_vcd: NULL argument");
  return guarded([&] { sim->sim->open_vcd(path); });
}

hwpat_status hwpat_sim_stats_get(const hwpat_sim* sim,
                                 hwpat_sim_stats* out) {
  if (sim == nullptr || out == nullptr || out->struct_size == 0)
    return bad_arg("hwpat_sim_stats_get: NULL argument or zero struct_size");
  return guarded([&] {
    const Simulator::Stats& s = sim->sim->stats();
    hwpat_sim_stats full{};
    full.struct_size = sizeof(hwpat_sim_stats);
    full.steps = s.steps;
    full.settles = s.settles;
    full.deltas = s.deltas;
    full.evals = s.evals;
    full.commits = s.commits;
    full.commit_changes = s.commit_changes;
    full.edges = s.edges;
    full.seq_touches = s.seq_touches;
    full.seq_skips = s.seq_skips;
    full.act_skips = s.act_skips;
    full.partition_settles = s.partition_settles;
    full.partition_skips = s.partition_skips;
    copy_out(out, full);
  });
}

void hwpat_sim_memory_stats_init(hwpat_sim_memory_stats* out) {
  if (out == nullptr) return;
  *out = hwpat_sim_memory_stats{};
  out->struct_size = sizeof(hwpat_sim_memory_stats);
}

hwpat_status hwpat_sim_memory_stats_get(const hwpat_sim* sim,
                                        hwpat_sim_memory_stats* out) {
  if (sim == nullptr || out == nullptr || out->struct_size == 0)
    return bad_arg(
        "hwpat_sim_memory_stats_get: NULL argument or zero struct_size");
  return guarded([&] {
    const Simulator::MemoryStats ms = sim->sim->memory_stats();
    hwpat_sim_memory_stats full{};
    full.struct_size = sizeof(hwpat_sim_memory_stats);
    full.arena_bytes_used = ms.arena_bytes_used;
    full.arena_bytes_reserved = ms.arena_bytes_reserved;
    full.arena_chunks = ms.arena_chunks;
    copy_out(out, full);
  });
}

void hwpat_trace_options_init(hwpat_trace_options* opt) {
  if (opt == nullptr) return;
  const hwpat::rtl::Tracer::Options d;
  *opt = hwpat_trace_options{};
  opt->struct_size = sizeof(hwpat_trace_options);
  opt->ring_capacity = d.ring_capacity;
  opt->profile_modules = d.profile_modules ? 1 : 0;
}

hwpat_status hwpat_sim_trace_start(hwpat_sim* sim,
                                   const hwpat_trace_options* opt) {
  if (sim == nullptr)
    return bad_arg("hwpat_sim_trace_start: sim is NULL");
  return guarded([&] {
    hwpat::rtl::Tracer::Options topt;
    if (opt != nullptr) {
      if (opt->struct_size == 0 ||
          opt->struct_size > sizeof(hwpat_trace_options))
        throw ArgumentError{
            "hwpat_trace_options.struct_size must be "
            "sizeof(hwpat_trace_options) or the size of an older "
            "revision, got " + std::to_string(opt->struct_size)};
      hwpat_trace_options full;
      hwpat_trace_options_init(&full);
      std::memcpy(&full, opt, opt->struct_size);
      topt.ring_capacity = full.ring_capacity;
      topt.profile_modules = full.profile_modules != 0;
    }
    sim->sim->trace_start(topt);
  });
}

hwpat_status hwpat_sim_trace_stop(hwpat_sim* sim) {
  if (sim == nullptr) return bad_arg("hwpat_sim_trace_stop: sim is NULL");
  return guarded([&] { sim->sim->trace_stop(); });
}

hwpat_status hwpat_sim_trace_write(const hwpat_sim* sim, const char* path) {
  if (sim == nullptr || path == nullptr)
    return bad_arg("hwpat_sim_trace_write: NULL argument");
  return guarded([&] { sim->sim->trace_write(path); });
}

hwpat_status hwpat_sim_trace_report(hwpat_sim* sim, size_t top_n,
                                    const char** out) {
  if (sim == nullptr || out == nullptr)
    return bad_arg("hwpat_sim_trace_report: NULL argument");
  return guarded([&] {
    const hwpat::rtl::Tracer* t = sim->sim->telemetry();
    if (t == nullptr)
      throw hwpat::Error(
          "hwpat_sim_trace_report: tracing is not active — call "
          "hwpat_sim_trace_start() first");
    sim->trace_report = t->hot_modules_report(top_n);
    *out = sim->trace_report.c_str();
  });
}

hwpat_status hwpat_sim_save_snapshot(const hwpat_sim* sim,
                                     hwpat_snapshot** out) {
  if (sim == nullptr || out == nullptr)
    return bad_arg("hwpat_sim_save_snapshot: NULL argument");
  return guarded([&] {
    auto h = std::make_unique<hwpat_snapshot>();
    h->snap = sim->sim->save_snapshot();
    *out = h.release();
  });
}

hwpat_status hwpat_sim_restore_snapshot(hwpat_sim* sim,
                                        const hwpat_snapshot* snap) {
  if (sim == nullptr || snap == nullptr)
    return bad_arg("hwpat_sim_restore_snapshot: NULL argument");
  return guarded([&] { sim->sim->restore_snapshot(snap->snap); });
}

hwpat_status hwpat_snapshot_from_bytes(const void* data, size_t size,
                                       hwpat_snapshot** out) {
  if ((data == nullptr && size != 0) || out == nullptr)
    return bad_arg("hwpat_snapshot_from_bytes: NULL argument");
  return guarded([&] {
    const auto* p = static_cast<const uint8_t*>(data);
    auto h = std::make_unique<hwpat_snapshot>();
    h->snap = hwpat::rtl::Snapshot(std::vector<uint8_t>(p, p + size));
    *out = h.release();
  });
}

const void* hwpat_snapshot_data(const hwpat_snapshot* snap) {
  return snap == nullptr ? nullptr : snap->snap.bytes().data();
}

size_t hwpat_snapshot_size(const hwpat_snapshot* snap) {
  return snap == nullptr ? 0 : snap->snap.size_bytes();
}

void hwpat_snapshot_destroy(hwpat_snapshot* snap) { delete snap; }

hwpat_status hwpat_sweep_create(int workers, uint64_t max_cycles,
                                hwpat_sweep** out) {
  if (out == nullptr) return bad_arg("hwpat_sweep_create: out is NULL");
  return guarded([&] {
    // Validate eagerly through the C++ driver's own checks.
    hwpat::rtl::SweepOptions sopt;
    sopt.workers = workers;
    sopt.max_cycles = max_cycles;
    (void)hwpat::rtl::SweepDriver(sopt);
    auto h = std::make_unique<hwpat_sweep>();
    h->workers = workers;
    h->max_cycles = max_cycles;
    *out = h.release();
  });
}

hwpat_status hwpat_sweep_add(hwpat_sweep* sweep, const char* name,
                             const char* design, const char* config,
                             const hwpat_sim_options* opt) {
  if (sweep == nullptr || name == nullptr || design == nullptr)
    return bad_arg("hwpat_sweep_add: NULL argument");
  return guarded([&] {
    if (*name == '\0')
      throw ArgumentError{"hwpat_sweep_add: name is empty"};
    for (const hwpat_sweep::Entry& e : sweep->entries)
      if (e.name == name)
        throw ArgumentError{std::string("hwpat_sweep_add: duplicate name '") +
                            name + "'"};
    check_design_args(design, config);
    sweep->entries.push_back({name, design,
                              config == nullptr ? "" : config,
                              to_cpp_options(opt)});
  });
}

hwpat_status hwpat_sweep_run(hwpat_sweep* sweep) {
  if (sweep == nullptr) return bad_arg("hwpat_sweep_run: sweep is NULL");
  return guarded([&] {
    std::vector<hwpat::rtl::SweepJob> jobs;
    jobs.reserve(sweep->entries.size());
    for (const hwpat_sweep::Entry& e : sweep->entries) {
      hwpat::rtl::SweepJob job;
      job.name = e.name;
      job.sim = e.opt;
      job.build = [design = e.design, config = e.config]()
          -> std::unique_ptr<hwpat::rtl::Module> {
        return build_design(design, config.c_str());
      };
      job.done = hwpat::designs::video_design_finished;
      jobs.push_back(std::move(job));
    }
    hwpat::rtl::SweepOptions sopt;
    sopt.workers = sweep->workers;
    sopt.max_cycles = sweep->max_cycles;
    const hwpat::rtl::SweepDriver driver(sopt);
    sweep->results = driver.run(jobs);
  });
}

size_t hwpat_sweep_count(const hwpat_sweep* sweep) {
  return sweep == nullptr ? 0 : sweep->entries.size();
}

hwpat_status hwpat_sweep_result_at(const hwpat_sweep* sweep, size_t i,
                                   hwpat_sweep_result* out) {
  if (sweep == nullptr || out == nullptr || out->struct_size == 0)
    return bad_arg(
        "hwpat_sweep_result_at: NULL argument or zero struct_size");
  if (i >= sweep->results.size())
    return bad_arg("hwpat_sweep_result_at: index " + std::to_string(i) +
                   " out of range (" + std::to_string(sweep->results.size()) +
                   " results; run the sweep first)");
  return guarded([&] {
    const hwpat::rtl::SweepResult& r = sweep->results[i];
    hwpat_sweep_result full{};
    full.struct_size = sizeof(hwpat_sweep_result);
    full.name = r.name.c_str();
    full.ok = r.ok ? 1 : 0;
    full.error = r.error.c_str();
    full.outcome = to_c_result(r.outcome);
    full.steps = r.steps;
    full.cycles = r.cycles;
    full.wall_seconds = r.wall_seconds;
    full.steps_per_sec = r.steps_per_sec;
    copy_out(out, full);
  });
}

void hwpat_sweep_destroy(hwpat_sweep* sweep) { delete sweep; }

} /* extern "C" */
