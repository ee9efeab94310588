#include "rtl/vcd.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hwpat::rtl {

VcdWriter::VcdWriter(const std::string& path, Module& top,
                     std::uint64_t tick_ps)
    : path_(path), out_(path) {
  if (!out_) throw Error("cannot open VCD file: " + path);
  HWPAT_ASSERT(tick_ps > 0);
  // IEEE 1364 only allows 1, 10 or 100 of a unit in $timescale, so the
  // header gets the largest legal quantum dividing the tick and every
  // timestamp is scaled by the remainder (time_mult_): tick_ps = 40'000
  // becomes `$timescale 10ns` with timestamps multiplied by 4.  The
  // default 1000 yields the classic `$timescale 1ns` with mult 1.
  struct Unit {
    std::uint64_t ps;
    const char* name;
  };
  static constexpr Unit kUnits[] = {{1'000'000'000'000, "s"},
                                    {1'000'000'000, "ms"},
                                    {1'000'000, "us"},
                                    {1'000, "ns"},
                                    {1, "ps"}};
  for (const Unit& u : kUnits) {
    bool found = false;
    for (const std::uint64_t mant : {std::uint64_t{100}, std::uint64_t{10},
                                     std::uint64_t{1}}) {
      // No overflow: mant * u.ps <= 100e12, well inside uint64.
      const std::uint64_t quantum = mant * u.ps;
      if (tick_ps % quantum == 0) {
        buf_ += "$timescale " + std::to_string(mant) + u.name + " $end\n";
        time_mult_ = tick_ps / quantum;
        found = true;
        break;
      }
    }
    if (found) break;  // 1ps divides everything: always terminates
  }
  declare_scope(top);
  buf_ += "$enddefinitions $end\n";
}

VcdWriter::~VcdWriter() { spill(); }

void VcdWriter::spill() {
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void VcdWriter::flush() {
  spill();
  out_.flush();
  if (!out_)
    throw Error("cannot write VCD file: " + path_ +
                " (the waveform on disk is incomplete)");
}

void VcdWriter::declare_scope(Module& m) {
  buf_ += "$scope module " + m.name() + " $end\n";
  for (SignalBase* s : m.signals()) {
    // The simulator numbered the signals in this same pre-order walk
    // (Module::visit()), so the id is the entry's index.
    HWPAT_ASSERT(s->id() == static_cast<int>(entries_.size()));
    Entry e;
    e.sig = s;
    e.id = make_id(entries_.size());
    buf_ += "$var wire " + std::to_string(s->width()) + " " + e.id + " " +
            s->name() + " $end\n";
    entries_.push_back(std::move(e));
  }
  for (Module* c : m.children()) declare_scope(*c);
  buf_ += "$upscope $end\n";
}

std::string VcdWriter::make_id(std::size_t n) {
  // Printable-ASCII base-94 identifiers, as the VCD format allows.
  std::string id;
  do {
    id += static_cast<char>('!' + n % 94);
    n /= 94;
  } while (n != 0);
  return id;
}

void VcdWriter::emit(Entry& e, std::uint64_t tick, bool* stamped) {
  const Word v = e.sig->as_word_fast();
  if (e.ever && v == e.last) return;
  if (!*stamped) {
    buf_ += '#';
    buf_ += std::to_string(tick * time_mult_);
    buf_ += '\n';
    *stamped = true;
  }
  if (e.sig->width() == 1) {
    buf_ += v ? '1' : '0';
  } else {
    buf_ += 'b';
    for (int i = e.sig->width() - 1; i >= 0; --i)
      buf_ += bit_of(v, i) ? '1' : '0';
    buf_ += ' ';
  }
  buf_ += e.id;
  buf_ += '\n';
  e.last = v;
  e.ever = true;
}

void VcdWriter::sample(std::uint64_t tick) {
  bool stamped = false;
  for (Entry& e : entries_) emit(e, tick, &stamped);
  if (buf_.size() >= kSpillBytes) spill();
}

void VcdWriter::sample_changed(std::uint64_t tick,
                               const std::int32_t* changed,
                               std::size_t n) {
  // Emit in declaration (= id) order so the output is byte-identical to
  // the full-scan path (the differential kernel test relies on this).
  scratch_.assign(changed, changed + n);
  std::sort(scratch_.begin(), scratch_.end());
  bool stamped = false;
  for (const std::int32_t sid : scratch_)
    emit(entries_[static_cast<std::size_t>(sid)], tick, &stamped);
  if (buf_.size() >= kSpillBytes) spill();
}

}  // namespace hwpat::rtl
