/*
 * Pure C11 consumer of the embedding API (src/c_api/hwpat_c.h).
 *
 * This file deliberately contains no C++ — it is compiled as C and
 * linked against the C++ library, which proves three things at once:
 * the header parses as strict C11, every symbol resolves with C
 * linkage, and the documented call sequences work end to end:
 *
 *   1. ABI/version and error-path checks (codes + field-naming text);
 *   2. the flagship design runs to completion through the C surface;
 *   3. a snapshot round-trips (save -> bytes -> from_bytes -> restore)
 *      and replays to the same counters;
 *   4. run outcomes surface as values (timeout, latched fault);
 *   5. a batch sweep runs variants at workers 2 and reports per-variant
 *      results.
 *
 * Plain asserts + stdio; exits nonzero on the first failure so ctest
 * can run it without any framework.
 */
#include <assert.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#include "c_api/hwpat_c.h"

static int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      fprintf(stderr, "FAIL %s:%d: %s\n  last_error: %s\n", __FILE__, \
              __LINE__, #cond, hwpat_last_error());                   \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

static void test_abi_and_errors(void) {
  CHECK(hwpat_abi_version() == HWPAT_ABI_VERSION);
  CHECK(strcmp(hwpat_status_name(HWPAT_OK), "ok") == 0);
  CHECK(strcmp(hwpat_status_name(HWPAT_ERR_SNAPSHOT), "snapshot") == 0);

  /* NULL handles are arguments errors, not crashes. */
  CHECK(hwpat_sim_reset(NULL) == HWPAT_ERR_ARGUMENT);
  CHECK(hwpat_sim_step(NULL, 1) == HWPAT_ERR_ARGUMENT);
  CHECK(hwpat_sweep_count(NULL) == 0);
  hwpat_sim_destroy(NULL);      /* safe no-ops */
  hwpat_snapshot_destroy(NULL);
  hwpat_sweep_destroy(NULL);

  /* Unknown design / config keys name the offender. */
  hwpat_sim* sim = NULL;
  CHECK(hwpat_sim_create("no_such_design", NULL, NULL, &sim) ==
        HWPAT_ERR_ARGUMENT);
  CHECK(strstr(hwpat_last_error(), "no_such_design") != NULL);
  CHECK(hwpat_sim_create("saa2vga_pattern", "wdith=32", NULL, &sim) ==
        HWPAT_ERR_ARGUMENT);
  CHECK(strstr(hwpat_last_error(), "wdith") != NULL);

  /* Invalid simulator options come back as the library's own
   * field-naming elaboration error. */
  hwpat_sim_options opt;
  hwpat_sim_options_init(&opt);
  CHECK(opt.struct_size == sizeof(hwpat_sim_options));
  CHECK(opt.delta_limit > 0);
  opt.delta_limit = 0;
  CHECK(hwpat_sim_create("saa2vga_pattern", NULL, &opt, &sim) ==
        HWPAT_ERR_ERROR);
  CHECK(strstr(hwpat_last_error(), "delta_limit") != NULL);

  /* threads is retired (a simulator runs on one thread; hwpat_sweep
   * runs simulators in parallel): 0 and 1 still create and run, any
   * other value is an argument error naming the field. */
  hwpat_sim_options_init(&opt);
  CHECK(opt.threads == 0);
  opt.threads = 2;
  CHECK(hwpat_sim_create("saa2vga_pattern", NULL, &opt, &sim) ==
        HWPAT_ERR_ARGUMENT);
  CHECK(strstr(hwpat_last_error(), "threads") != NULL);
  for (int threads = 0; threads <= 1; ++threads) {
    hwpat_sim* ok = NULL;
    opt.threads = threads;
    CHECK(hwpat_sim_create("saa2vga_pattern", "width=16,height=12", &opt,
                           &ok) == HWPAT_OK);
    CHECK(ok != NULL && hwpat_sim_step(ok, 10) == HWPAT_OK);
    hwpat_sim_destroy(ok);
  }

  /* A spec violation (depth < 1) maps to its own status. */
  CHECK(hwpat_sim_create("saa2vga_pattern", "width=64,height=48,depth=0",
                         NULL, &sim) == HWPAT_ERR_SPEC);
  CHECK(strstr(hwpat_last_error(), "depth") != NULL);
}

static void test_flagship_run(void) {
  hwpat_sim* sim = NULL;
  CHECK(hwpat_sim_create("saa2vga_pattern",
                         "width=16,height=12,depth=256,device=fifo", NULL,
                         &sim) == HWPAT_OK);
  if (sim == NULL) return;

  int finished = -1;
  CHECK(hwpat_sim_finished(sim, &finished) == HWPAT_OK && finished == 0);

  hwpat_run_result result = HWPAT_RUN_TIMEOUT;
  uint64_t steps = 0;
  CHECK(hwpat_sim_run_to_finish(sim, 1000000, &result, &steps) == HWPAT_OK);
  CHECK(result == HWPAT_RUN_DONE);
  CHECK(steps > 0);
  CHECK(hwpat_sim_finished(sim, &finished) == HWPAT_OK && finished == 1);

  uint64_t frames = 0;
  CHECK(hwpat_sim_frames_received(sim, &frames) == HWPAT_OK && frames == 1);

  uint64_t cycle = 0;
  CHECK(hwpat_sim_cycle(sim, &cycle) == HWPAT_OK && cycle == steps);

  hwpat_sim_stats stats;
  memset(&stats, 0, sizeof stats);
  stats.struct_size = sizeof stats;
  CHECK(hwpat_sim_stats_get(sim, &stats) == HWPAT_OK);
  CHECK(stats.steps == steps);
  CHECK(stats.evals > 0 && stats.commits > 0 && stats.edges >= stats.steps);
  /* The appended counters arrive through the same negotiated copy: a
   * declared-state design skips most modules on most edges. */
  CHECK(stats.seq_touches > 0);
  CHECK(stats.seq_skips > 0);

  /* Arena footprint of the elaborated graph: nonzero, consistent, and
   * struct_size-negotiated like the work counters. */
  hwpat_sim_memory_stats mem;
  hwpat_sim_memory_stats_init(&mem);
  CHECK(mem.struct_size == sizeof mem);
  CHECK(hwpat_sim_memory_stats_get(sim, &mem) == HWPAT_OK);
  CHECK(mem.arena_bytes_used > 0);
  CHECK(mem.arena_bytes_reserved >= mem.arena_bytes_used);
  CHECK(mem.arena_chunks >= 1);
  mem.struct_size = 0;
  CHECK(hwpat_sim_memory_stats_get(sim, &mem) == HWPAT_ERR_ARGUMENT);

  hwpat_sim_destroy(sim);
}

static void test_telemetry(void) {
  hwpat_sim* sim = NULL;
  CHECK(hwpat_sim_create("saa2vga_pattern",
                         "width=16,height=12,depth=64,device=fifo", NULL,
                         &sim) == HWPAT_OK);
  if (sim == NULL) return;

  /* The report is an error while no tracer is attached. */
  const char* report = NULL;
  CHECK(hwpat_sim_trace_report(sim, 5, &report) == HWPAT_ERR_ERROR);
  CHECK(strstr(hwpat_last_error(), "trace_start") != NULL);

  hwpat_trace_options topt;
  hwpat_trace_options_init(&topt);
  CHECK(topt.struct_size == sizeof(hwpat_trace_options));
  topt.profile_modules = 1;
  CHECK(hwpat_sim_trace_start(sim, &topt) == HWPAT_OK);
  CHECK(hwpat_sim_step(sim, 200) == HWPAT_OK);

  /* Stats are deterministic with the tracer attached: a fresh untraced
   * run of the same design yields byte-identical counters. */
  hwpat_sim_stats traced;
  memset(&traced, 0, sizeof traced);
  traced.struct_size = sizeof traced;
  CHECK(hwpat_sim_stats_get(sim, &traced) == HWPAT_OK);
  {
    hwpat_sim* plain = NULL;
    CHECK(hwpat_sim_create("saa2vga_pattern",
                           "width=16,height=12,depth=64,device=fifo", NULL,
                           &plain) == HWPAT_OK);
    if (plain != NULL) {
      hwpat_sim_stats want;
      memset(&want, 0, sizeof want);
      want.struct_size = sizeof want;
      CHECK(hwpat_sim_step(plain, 200) == HWPAT_OK);
      CHECK(hwpat_sim_stats_get(plain, &want) == HWPAT_OK);
      CHECK(memcmp(&want, &traced, sizeof want) == 0);
      hwpat_sim_destroy(plain);
    }
  }

  CHECK(hwpat_sim_trace_report(sim, 5, &report) == HWPAT_OK);
  CHECK(report != NULL && report[0] != '\0');

  const char* path = "test_c_api.trace.json";
  CHECK(hwpat_sim_trace_write(sim, path) == HWPAT_OK);
  {
    FILE* f = fopen(path, "r");
    char head[16] = {0};
    CHECK(f != NULL);
    if (f != NULL) {
      CHECK(fread(head, 1, 1, f) == 1 && head[0] == '{');
      fclose(f);
    }
    remove(path);
  }

  CHECK(hwpat_sim_trace_stop(sim) == HWPAT_OK);
  CHECK(hwpat_sim_trace_write(sim, path) == HWPAT_ERR_ERROR);

  hwpat_sim_destroy(sim);
}

static void test_snapshot_roundtrip(void) {
  const char* cfg = "width=16,height=12,depth=256,device=sram";
  hwpat_sim* sim = NULL;
  CHECK(hwpat_sim_create("saa2vga_pattern", cfg, NULL, &sim) == HWPAT_OK);
  if (sim == NULL) return;

  CHECK(hwpat_sim_step(sim, 100) == HWPAT_OK);

  /* Save, pull the raw bytes out, rebuild a snapshot from them (the
   * persist-to-disk path without the disk). */
  hwpat_snapshot* snap = NULL;
  CHECK(hwpat_sim_save_snapshot(sim, &snap) == HWPAT_OK && snap != NULL);
  const size_t size = hwpat_snapshot_size(snap);
  const void* data = hwpat_snapshot_data(snap);
  CHECK(size > 0 && data != NULL);
  hwpat_snapshot* copy = NULL;
  CHECK(hwpat_snapshot_from_bytes(data, size, &copy) == HWPAT_OK);

  /* Reference: run the original forward. */
  hwpat_run_result result;
  uint64_t ref_steps = 0;
  CHECK(hwpat_sim_run_to_finish(sim, 1000000, &result, &ref_steps) ==
        HWPAT_OK);
  CHECK(result == HWPAT_RUN_DONE);
  hwpat_sim_stats ref_stats;
  ref_stats.struct_size = sizeof ref_stats;
  CHECK(hwpat_sim_stats_get(sim, &ref_stats) == HWPAT_OK);
  hwpat_sim_destroy(sim);

  /* Fork: a second instance restores the byte-copied snapshot and must
   * replay to identical counters. */
  hwpat_sim* fork = NULL;
  CHECK(hwpat_sim_create("saa2vga_pattern", cfg, NULL, &fork) == HWPAT_OK);
  CHECK(hwpat_sim_restore_snapshot(fork, copy) == HWPAT_OK);
  uint64_t fork_steps = 0;
  CHECK(hwpat_sim_run_to_finish(fork, 1000000, &result, &fork_steps) ==
        HWPAT_OK);
  CHECK(result == HWPAT_RUN_DONE);
  CHECK(fork_steps == ref_steps);
  hwpat_sim_stats fork_stats;
  fork_stats.struct_size = sizeof fork_stats;
  CHECK(hwpat_sim_stats_get(fork, &fork_stats) == HWPAT_OK);
  CHECK(fork_stats.steps == ref_stats.steps);
  CHECK(fork_stats.evals == ref_stats.evals);
  CHECK(fork_stats.commits == ref_stats.commits);
  CHECK(fork_stats.commit_changes == ref_stats.commit_changes);

  /* A corrupted blob is a snapshot error and names the problem. */
  if (size > 0) {
    uint8_t first = *(const uint8_t*)data;
    uint8_t bad = (uint8_t)(first ^ 0xFF);
    hwpat_snapshot* broken = NULL;
    CHECK(hwpat_snapshot_from_bytes(&bad, 1, &broken) == HWPAT_OK);
    CHECK(hwpat_sim_restore_snapshot(fork, broken) == HWPAT_ERR_SNAPSHOT);
    CHECK(hwpat_last_error()[0] != '\0');
    hwpat_snapshot_destroy(broken);
    /* ...and the failed restore reset the simulator to construction
     * state rather than leaving it half-restored: it can still run. */
    CHECK(hwpat_sim_reset(fork) == HWPAT_OK);
    CHECK(hwpat_sim_step(fork, 10) == HWPAT_OK);
  }

  hwpat_snapshot_destroy(snap);
  hwpat_snapshot_destroy(copy);
  hwpat_sim_destroy(fork);
}

static void test_run_outcomes(void) {
  /* Timeout is a result, not an error. */
  hwpat_sim* sim = NULL;
  CHECK(hwpat_sim_create("saa2vga_pattern",
                         "width=16,height=12,depth=256", NULL,
                         &sim) == HWPAT_OK);
  hwpat_run_result result = HWPAT_RUN_DONE;
  uint64_t steps = 0;
  CHECK(hwpat_sim_run_to_finish(sim, 5, &result, &steps) == HWPAT_OK);
  CHECK(result == HWPAT_RUN_TIMEOUT);
  CHECK(steps == 5);
  hwpat_sim_destroy(sim);

  /* A latched injected fault surfaces as a result, recoverable with
   * reset(). */
  hwpat_sim_options opt;
  hwpat_sim_options_init(&opt);
  opt.fault_plan = "commit@20";
  CHECK(hwpat_sim_create("saa2vga_pattern",
                         "width=16,height=12,depth=256", &opt,
                         &sim) == HWPAT_OK);
  CHECK(hwpat_sim_run_to_finish(sim, 1000000, &result, &steps) == HWPAT_OK);
  CHECK(result == HWPAT_RUN_FAULT_LATCHED);
  int latched = 0;
  CHECK(hwpat_sim_needs_recovery(sim, &latched) == HWPAT_OK && latched == 1);
  CHECK(hwpat_sim_reset(sim) == HWPAT_OK);
  CHECK(hwpat_sim_needs_recovery(sim, &latched) == HWPAT_OK && latched == 0);
  CHECK(hwpat_sim_run_to_finish(sim, 1000000, &result, &steps) == HWPAT_OK);
  CHECK(result == HWPAT_RUN_DONE);
  hwpat_sim_destroy(sim);
}

static void test_sweep(void) {
  hwpat_sweep* sweep = NULL;
  CHECK(hwpat_sweep_create(0, 100, &sweep) == HWPAT_ERR_ERROR);
  CHECK(strstr(hwpat_last_error(), "workers") != NULL);
  CHECK(hwpat_sweep_create(2, 1000000, &sweep) == HWPAT_OK);
  if (sweep == NULL) return;

  CHECK(hwpat_sweep_add(sweep, "fifo16", "saa2vga_pattern",
                        "width=16,height=12,depth=256,device=fifo",
                        NULL) == HWPAT_OK);
  CHECK(hwpat_sweep_add(sweep, "sram16", "saa2vga_pattern",
                        "width=16,height=12,depth=256,device=sram",
                        NULL) == HWPAT_OK);
  CHECK(hwpat_sweep_add(sweep, "tri", "saa2vga_triclk",
                        "width=16,height=12,lanes=1", NULL) == HWPAT_OK);
  CHECK(hwpat_sweep_add(sweep, "fifo16", "saa2vga_pattern", NULL, NULL) ==
        HWPAT_ERR_ARGUMENT); /* duplicate name */
  CHECK(hwpat_sweep_count(sweep) == 3);

  CHECK(hwpat_sweep_run(sweep) == HWPAT_OK);
  for (size_t i = 0; i < hwpat_sweep_count(sweep); ++i) {
    hwpat_sweep_result r;
    memset(&r, 0, sizeof r);
    r.struct_size = sizeof r;
    CHECK(hwpat_sweep_result_at(sweep, i, &r) == HWPAT_OK);
    CHECK(r.ok == 1);
    CHECK(r.outcome == HWPAT_RUN_DONE);
    CHECK(r.steps > 0);
    CHECK(r.name != NULL && r.name[0] != '\0');
    printf("  sweep[%zu] %-8s steps=%llu %.0f steps/s\n", i, r.name,
           (unsigned long long)r.steps, r.steps_per_sec);
  }

  hwpat_sweep_result oob;
  memset(&oob, 0, sizeof oob);
  oob.struct_size = sizeof oob;
  CHECK(hwpat_sweep_result_at(sweep, 99, &oob) == HWPAT_ERR_ARGUMENT);

  hwpat_sweep_destroy(sweep);
}

int main(void) {
  test_abi_and_errors();
  test_flagship_run();
  test_telemetry();
  test_snapshot_roundtrip();
  test_run_outcomes();
  test_sweep();
  if (failures != 0) {
    fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  printf("test_c_api: all checks passed\n");
  return 0;
}
