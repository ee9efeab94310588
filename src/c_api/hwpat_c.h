/*
 * hwpat_c.h — the stable C embedding API of the hwpat RTL kernel.
 *
 * This is the surface a foreign-language binding or a long-lived
 * embedder links against: opaque handles, integer status codes, and
 * struct_size-versioned option/result structs.  Everything here is
 * plain C11; the implementation (hwpat_c.cpp) translates to the C++
 * surface of rtl/rtl.hpp and maps the exception taxonomy of
 * common/error.hpp onto hwpat_status (table in src/rtl/README.md,
 * "Embedding and batch sweeps").
 *
 * Conventions:
 *  - Every fallible call returns hwpat_status; HWPAT_OK is 0.
 *  - On failure, hwpat_last_error() returns the full exception text
 *    (thread-local; valid until the calling thread's next API call).
 *  - Out-parameters are written only on HWPAT_OK.
 *  - Handles are destroyed exactly once with their *_destroy(); NULL
 *    is a safe no-op there and an HWPAT_ERR_ARGUMENT everywhere else.
 *  - Structs passed in/out start with `struct_size`, which the caller
 *    sets to sizeof(...) — the forward-compatibility guard: a library
 *    newer than the caller fills only the fields the caller knows.
 */
#ifndef HWPAT_C_API_H_
#define HWPAT_C_API_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Bumped whenever the binary contract of this header changes
 * incompatibly.  Check it at startup against hwpat_abi_version(). */
#define HWPAT_ABI_VERSION 1u

uint32_t hwpat_abi_version(void);

/* Status codes — each nonzero value corresponds to one branch of the
 * C++ exception taxonomy (see README table). */
typedef enum hwpat_status {
  HWPAT_OK = 0,
  HWPAT_ERR_ARGUMENT = 1,       /* NULL handle / malformed C-side input */
  HWPAT_ERR_SPEC = 2,           /* hwpat::SpecError    */
  HWPAT_ERR_PROTOCOL = 3,       /* hwpat::ProtocolError */
  HWPAT_ERR_COMB_LOOP = 4,      /* hwpat::CombLoopError */
  HWPAT_ERR_SNAPSHOT = 5,       /* hwpat::SnapshotError */
  HWPAT_ERR_FAULT_INJECTED = 6, /* hwpat::rtl::FaultInjected */
  HWPAT_ERR_INTERNAL = 7,       /* hwpat::InternalError */
  HWPAT_ERR_ERROR = 8,          /* any other hwpat::Error */
  HWPAT_ERR_UNKNOWN = 9         /* non-hwpat exception */
} hwpat_status;

/* Stable identifier string for a status ("ok", "spec", ...). */
const char* hwpat_status_name(hwpat_status s);

/* Thread-local text of the last failure on this thread; "" if the last
 * call succeeded.  Valid until this thread's next hwpat_* call. */
const char* hwpat_last_error(void);

/* How a bounded run ended — mirrors rtl::RunResult. */
typedef enum hwpat_run_result {
  HWPAT_RUN_DONE = 0,          /* finish predicate satisfied */
  HWPAT_RUN_TIMEOUT = 1,       /* budget consumed */
  HWPAT_RUN_FAULT_LATCHED = 2  /* injected fault left half-applied state */
} hwpat_run_result;

typedef struct hwpat_sim hwpat_sim;
typedef struct hwpat_snapshot hwpat_snapshot;
typedef struct hwpat_sweep hwpat_sweep;

/* ---- simulator options (mirrors rtl::Simulator::Options) ---------- */

typedef struct hwpat_sim_options {
  size_t struct_size;     /* set to sizeof(hwpat_sim_options) */
  int full_sweep;         /* 0/1: reference kernel instead of event-driven */
  int delta_limit;        /* > 0 */
  int check_seq_contract; /* 0/1 */
  int threads;            /* retired, kept for the layout: 0 or 1 only */
  int64_t tick_ps;        /* > 0: physical picoseconds per tick */
  const char* fault_plan; /* NULL/"" = none; "<point>@<step>[+<k>]" */
} hwpat_sim_options;

/* Fills `opt` with the library defaults (and stamps struct_size). */
void hwpat_sim_options_init(hwpat_sim_options* opt);

/* ---- simulator lifecycle ------------------------------------------ */

/*
 * Creates a simulator over one of the registered reference designs.
 *  design: "saa2vga_pattern" | "saa2vga_custom" | "blur_pattern" |
 *          "blur_custom" | "saa2vga_dualclk" | "saa2vga_triclk"
 *  config: NULL, or comma-separated "key=value" pairs.  Keys:
 *          width, height, depth (buffer/cdc depth), device (fifo|sram,
 *          single-clock designs), frames, seed, lanes (triclk).
 *          Unknown keys are HWPAT_ERR_ARGUMENT naming the key.
 *  opt:    NULL for defaults.
 * The design is validated at creation (spec checks, option checks);
 * the simulator comes back already reset().
 */
hwpat_status hwpat_sim_create(const char* design, const char* config,
                              const hwpat_sim_options* opt, hwpat_sim** out);
void hwpat_sim_destroy(hwpat_sim* sim);

/* Back to post-reset state (also clears a needs-recovery latch). */
hwpat_status hwpat_sim_reset(hwpat_sim* sim);

/* Advances n clock-edge events. */
hwpat_status hwpat_sim_step(hwpat_sim* sim, uint64_t n);

/* Runs until the design's finished() predicate holds, at most
 * max_cycles events.  Timeout and a latched injected fault are
 * *results*, not errors; `result`/`steps` may be NULL if unwanted. */
hwpat_status hwpat_sim_run_to_finish(hwpat_sim* sim, uint64_t max_cycles,
                                     hwpat_run_result* result,
                                     uint64_t* steps);

/* ---- observers ---------------------------------------------------- */

hwpat_status hwpat_sim_finished(const hwpat_sim* sim, int* out);
hwpat_status hwpat_sim_cycle(const hwpat_sim* sim, uint64_t* out);
hwpat_status hwpat_sim_now(const hwpat_sim* sim, uint64_t* out);
hwpat_status hwpat_sim_needs_recovery(const hwpat_sim* sim, int* out);
/* Frames fully reassembled at the design's VGA sink. */
hwpat_status hwpat_sim_frames_received(const hwpat_sim* sim, uint64_t* out);
/* Starts a VCD waveform dump to `path`. */
hwpat_status hwpat_sim_open_vcd(hwpat_sim* sim, const char* path);

typedef struct hwpat_sim_stats {
  size_t struct_size; /* set to sizeof(hwpat_sim_stats) */
  uint64_t steps;
  uint64_t settles;
  uint64_t deltas;
  uint64_t evals;
  uint64_t commits;
  uint64_t commit_changes;
  uint64_t edges;
  /* Appended fields (a caller built against the older struct gets the
   * prefix above — struct_size negotiation, no ABI bump needed). */
  uint64_t seq_touches;       /* sequential modules marked by an edge */
  uint64_t seq_skips;         /* edge-insensitive modules skipped */
  uint64_t act_skips;         /* activation-list eval skips */
  uint64_t partition_settles; /* per-partition settle passes */
  uint64_t partition_skips;   /* partitions skipped as quiescent */
} hwpat_sim_stats;

/* Copies the deterministic work counters (struct_size-truncated). */
hwpat_status hwpat_sim_stats_get(const hwpat_sim* sim, hwpat_sim_stats* out);

typedef struct hwpat_sim_memory_stats {
  size_t struct_size; /* set to sizeof(hwpat_sim_memory_stats) */
  /* Footprint of the per-simulator arena that owns the elaborated
   * graph (SoA signal state, CSR fanout pools, partition worklists,
   * activation lists).  Deterministic for a given design + run, so
   * embedders can budget and chart it; teardown pays one free per
   * chunk regardless of design size. */
  uint64_t arena_bytes_used;     /* bytes handed out to the graph */
  uint64_t arena_bytes_reserved; /* bytes malloc'd in arena chunks */
  uint64_t arena_chunks;         /* chunk count (frees at teardown) */
} hwpat_sim_memory_stats;

/* Initializes to defaults (sets struct_size). */
void hwpat_sim_memory_stats_init(hwpat_sim_memory_stats* out);

/* Copies the arena footprint counters (struct_size-truncated, same
 * negotiation scheme as hwpat_sim_stats_get). */
hwpat_status hwpat_sim_memory_stats_get(const hwpat_sim* sim,
                                        hwpat_sim_memory_stats* out);

/* ---- telemetry (wall-time tracing; mirrors rtl::Tracer) -----------
 *
 * Strictly separate from the stats above: stats are deterministic and
 * unchanged by tracing; telemetry is wall time.  Off by default — when
 * off, the kernel hot path pays one null-pointer branch. */

typedef struct hwpat_trace_options {
  size_t struct_size;   /* set to sizeof(hwpat_trace_options) */
  size_t ring_capacity; /* phase spans retained; 0 = default */
  int profile_modules;  /* 0/1: per-module eval/clock wall time */
} hwpat_trace_options;

/* Fills `opt` with the library defaults (and stamps struct_size). */
void hwpat_trace_options_init(hwpat_trace_options* opt);

/* Attaches a tracer (restarting drops previous spans).  opt may be
 * NULL for defaults. */
hwpat_status hwpat_sim_trace_start(hwpat_sim* sim,
                                   const hwpat_trace_options* opt);
/* Detaches and discards the tracer; no-op status if none is active. */
hwpat_status hwpat_sim_trace_stop(hwpat_sim* sim);
/* Flushes the span log as Chrome-trace-event JSON to `path` (load it
 * in Perfetto or chrome://tracing).  HWPAT_ERR_ERROR when tracing is
 * not active or the file cannot be written. */
hwpat_status hwpat_sim_trace_write(const hwpat_sim* sim, const char* path);
/* Top-`top_n` hot-modules table (profile_modules runs only); `*out`
 * may be "" when nothing was profiled.  The string is owned by the
 * handle and valid until the next trace call or destroy. */
hwpat_status hwpat_sim_trace_report(hwpat_sim* sim, size_t top_n,
                                    const char** out);

/* ---- snapshots ---------------------------------------------------- */

/* Serializes complete simulator state into a new snapshot handle. */
hwpat_status hwpat_sim_save_snapshot(const hwpat_sim* sim,
                                     hwpat_snapshot** out);
/* Restores `snap` (must come from the same elaborated design —
 * topology-hash-guarded; mismatch/corruption is HWPAT_ERR_SNAPSHOT). */
hwpat_status hwpat_sim_restore_snapshot(hwpat_sim* sim,
                                        const hwpat_snapshot* snap);
/* Wraps a byte blob (e.g. read back from disk) as a snapshot.  The
 * bytes are copied; validation happens at restore time. */
hwpat_status hwpat_snapshot_from_bytes(const void* data, size_t size,
                                       hwpat_snapshot** out);
/* Raw blob access for persisting; valid until the handle is destroyed. */
const void* hwpat_snapshot_data(const hwpat_snapshot* snap);
size_t hwpat_snapshot_size(const hwpat_snapshot* snap);
void hwpat_snapshot_destroy(hwpat_snapshot* snap);

/* ---- batch sweeps (mirrors rtl::SweepDriver::run) ----------------- */

/* A sweep handle accumulates named variants, then runs them on
 * `workers` concurrent worker threads (one simulator per worker). */
hwpat_status hwpat_sweep_create(int workers, uint64_t max_cycles,
                                hwpat_sweep** out);
/* Adds one variant; design/config/opt as in hwpat_sim_create.  Names
 * must be unique and non-empty. */
hwpat_status hwpat_sweep_add(hwpat_sweep* sweep, const char* name,
                             const char* design, const char* config,
                             const hwpat_sim_options* opt);
/* Runs every added variant to its finished() predicate.  A failing
 * variant records its error in its result slot; the call itself fails
 * only on misuse (empty sweep, duplicate names). */
hwpat_status hwpat_sweep_run(hwpat_sweep* sweep);
/* Number of added variants (0 on NULL). */
size_t hwpat_sweep_count(const hwpat_sweep* sweep);

typedef struct hwpat_sweep_result {
  size_t struct_size;      /* set to sizeof(hwpat_sweep_result) */
  const char* name;        /* owned by the sweep handle */
  int ok;                  /* 0: `error` holds the exception text */
  const char* error;       /* owned by the sweep handle; "" when ok */
  hwpat_run_result outcome;
  uint64_t steps;          /* measured-phase events */
  uint64_t cycles;         /* final Simulator::cycle() */
  double wall_seconds;     /* measured phase only */
  double steps_per_sec;
} hwpat_sweep_result;

/* Result of variant i (in hwpat_sweep_add order), after a successful
 * hwpat_sweep_run.  String fields stay valid until the handle is
 * destroyed or run again. */
hwpat_status hwpat_sweep_result_at(const hwpat_sweep* sweep, size_t i,
                                   hwpat_sweep_result* out);
void hwpat_sweep_destroy(hwpat_sweep* sweep);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* HWPAT_C_API_H_ */
