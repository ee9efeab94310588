// Minimal VCD (value change dump) writer for waveform inspection.
//
// Simulator::open_vcd() builds one over the design it has bound.  The
// simulator calls sample() once per clock-edge event; only signals
// whose value changed since the last sample are written.  Every signal
// is declared: a Bit as a 1-bit wire, a Bus at its width.  VCD time is
// the simulator's tick counter, so multi-clock traces place every
// domain's edges at their true relative offsets; the `$timescale`
// header translates one tick into physical time
// (Simulator::Options::tick_ps, default 1 ns — pick the greatest common
// divisor of the modelled clock periods).
//
// Two sampling paths produce byte-identical output:
//  * sample() scans every declared signal (reference path; also used
//    for the first sample after open/reset, which must dump everything);
//  * sample_changed() visits only the signals the event-driven kernel
//    observed changing since the last sample.  The header declares the
//    signals in the order the simulator numbered them, so a signal's
//    dense id is the index of its entry.
//
// Values are read through SignalBase::as_word_fast(), which dispatches
// on the signal's kind tag.
//
// Output is formatted into a string buffer that goes to the file in one
// write per 64 KiB; flush() and the destructor write out the rest.  A
// failed write (a full disk) is reported by the next flush().
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "rtl/module.hpp"

namespace hwpat::rtl {

class VcdWriter {
 public:
  /// Opens `path` and writes the header for the design under `top`,
  /// which a Simulator must have bound (the entries are indexed by the
  /// signals' dense ids).
  /// `tick_ps` is the physical duration of one simulator tick in
  /// picoseconds (must be positive).  The `$timescale` gets the largest
  /// spec-legal quantum (1, 10 or 100 of a unit — IEEE 1364) dividing
  /// it, and timestamps are scaled by the remainder, so traces stay
  /// time-correct for any tick; the default 1000 emits the classic
  /// `$timescale 1ns` with unscaled timestamps.
  VcdWriter(const std::string& path, Module& top,
            std::uint64_t tick_ps = 1000);
  /// Writes out the buffered tail.  A failure here goes unreported (a
  /// destructor cannot throw): flush() first to learn of it.
  ~VcdWriter();

  /// Records the state at time `tick` (one VCD time unit per tick),
  /// scanning every declared signal.
  void sample(std::uint64_t tick);

  /// Like sample(), but only inspects the `n` dense signal ids in
  /// `changed` (each id at most once).
  void sample_changed(std::uint64_t tick, const std::int32_t* changed,
                      std::size_t n);

  /// Pushes everything written so far to the file.  Throws Error
  /// naming the file when any write to it failed: the waveform on disk
  /// is then incomplete.
  void flush();

 private:
  static constexpr std::size_t kSpillBytes = 64 * 1024;
  struct Entry {
    SignalBase* sig;
    std::string id;
    Word last = ~Word{0};
    bool ever = false;
  };

  void declare_scope(Module& m);
  void emit(Entry& e, std::uint64_t tick, bool* stamped);
  /// Hands the buffer to the file in one write.
  void spill();
  static std::string make_id(std::size_t n);

  std::string path_;
  std::ofstream out_;
  std::string buf_;  ///< formatted output not yet written
  std::uint64_t time_mult_ = 1;  ///< timestamp units per tick (header)
  std::vector<Entry> entries_;  ///< indexed by dense signal id
  std::vector<std::int32_t> scratch_;  ///< reused by sample_changed()
};

}  // namespace hwpat::rtl
