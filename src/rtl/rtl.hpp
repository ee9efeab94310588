// Umbrella header for embedding the RTL simulation kernel.
//
// `#include "rtl/rtl.hpp"` pulls in the STABLE subset of the kernel —
// the types an embedder (a testbench binary, the sweep service, a
// foreign-language binding) programs against:
//
//   rtl::Module, rtl::Signal<T>/Bit/Word   design tree + two-phase signals
//   rtl::ClockDomain                       multi-clock assignment
//   rtl::Simulator                         reset/step/run, Options, Stats
//   rtl::RunResult / rtl::RunStatus        value-carrying run outcomes
//   rtl::Snapshot                          save/restore + deterministic replay
//   rtl::SweepDriver                       batch sweeps + snapshot forking
//   rtl::Tracer (via Simulator::trace_start)  wall-time telemetry + profiling
//   rtl::VcdWriter (via Simulator::open_vcd)  waveform dumps
//   rtl::FaultPoint / fault plans          crash-consistency injection
//   hwpat::Error taxonomy (common/error.hpp)  what the kernel throws
//
// Everything reachable from this header follows the deprecation policy
// documented in src/rtl/README.md ("Embedding and batch sweeps"):
// a replaced API keeps a documented shim for one PR before removal.
// (The run_until() shims, deprecated last PR in favour of
// Simulator::run(), are gone as of this one.)
// What is NOT reachable from here (module internals, the settle
// worklist and pending list, StateWriter/StateReader codec details
// beyond what Module hooks need) may change shape between PRs without
// notice.
//
// C embedders: use src/c_api/hwpat_c.h instead, which wraps this
// surface behind opaque handles and integer status codes.
#pragma once

#include "common/error.hpp"
#include "rtl/clock.hpp"
#include "rtl/fault.hpp"
#include "rtl/module.hpp"
#include "rtl/resources.hpp"
#include "rtl/signal.hpp"
#include "rtl/simulator.hpp"
#include "rtl/snapshot.hpp"
#include "rtl/sweep.hpp"
#include "rtl/trace.hpp"
#include "rtl/vcd.hpp"
