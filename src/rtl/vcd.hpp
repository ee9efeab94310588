// Minimal VCD (value change dump) writer for waveform inspection.
//
// The simulator calls sample() once per clock-edge event; only signals
// whose value changed since the last sample are written.  Testbench
// signals (width 0) are skipped.  VCD time is the simulator's tick
// counter, so multi-clock traces place every domain's edges at their
// true relative offsets; the `$timescale` header translates one tick
// into physical time (Simulator::Options::tick_ps, default 1 ns — pick
// the greatest common divisor of the modelled clock periods).
//
// Two sampling paths produce byte-identical output:
//  * sample() scans every declared signal (reference path; also used
//    for the first sample after open/reset, which must dump everything);
//  * sample_changed() visits only the signals the event-driven kernel
//    observed changing since the last sample, found in O(1) through
//    their dense Simulator-assigned ids.
//
// Values are read through SignalBase::as_word_fast(), which statically
// dispatches the dominant Word/bool signal types instead of paying a
// virtual as_word() call per sampled signal.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "rtl/module.hpp"

namespace hwpat::rtl {

class VcdWriter {
 public:
  /// Opens `path` and writes the header for the design under `top`.
  /// `tick_ps` is the physical duration of one simulator tick in
  /// picoseconds (must be positive).  The `$timescale` gets the largest
  /// spec-legal quantum (1, 10 or 100 of a unit — IEEE 1364) dividing
  /// it, and timestamps are scaled by the remainder, so traces stay
  /// time-correct for any tick; the default 1000 emits the classic
  /// `$timescale 1ns` with unscaled timestamps.
  VcdWriter(const std::string& path, Module& top,
            std::uint64_t tick_ps = 1000);

  /// Records the state at time `tick` (one VCD time unit per tick),
  /// scanning every declared signal.
  void sample(std::uint64_t tick);

  /// Like sample(), but only inspects the `n` dense signal ids in
  /// `changed` (each entry at most once).  Ids not declared in the
  /// header (testbench signals) are ignored.
  void sample_changed(std::uint64_t tick, const std::int32_t* changed,
                      std::size_t n);

  /// Pushes everything written so far to the file.
  void flush() { out_.flush(); }

 private:
  struct Entry {
    SignalBase* sig;
    std::string id;
    Word last = ~Word{0};
    bool ever = false;
  };

  void declare_scope(Module& m);
  void emit(Entry& e, std::uint64_t tick, bool* stamped);
  static std::string make_id(std::size_t n);

  std::ofstream out_;
  std::uint64_t time_mult_ = 1;  ///< timestamp units per tick (header)
  std::vector<Entry> entries_;
  std::vector<int> entry_by_signal_id_;  ///< dense signal id -> entry, -1 none
  std::vector<int> scratch_;             ///< reused by sample_changed()
};

}  // namespace hwpat::rtl
