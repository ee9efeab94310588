// Shared testbench utilities: small driver/monitor modules that feed
// and drain stream containers, plus stepping helpers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/ports.hpp"
#include "rtl/simulator.hpp"

namespace hwpat::tb {

/// Reads a whole generated file (a VCD trace, typically) and deletes
/// it, failing the test if it cannot be opened.  Shared by every
/// differential-waveform test so byte-exactness tweaks (binary-mode
/// reads, read-error checks) land in one place.
inline std::string slurp_and_remove(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return ss.str();
}

/// One value change of a VCD signal: the timestamp and the new value.
struct VcdChange {
  std::uint64_t tick = 0;
  Word value = 0;
  friend bool operator==(const VcdChange&, const VcdChange&) = default;
};

/// A waveform by full signal path (`top.child.signal`): every change of
/// every signal, in time order.  VCD ids are resolved away, so two
/// designs with different signal sets or id assignments compare.
using VcdTrace = std::map<std::string, std::vector<VcdChange>>;

/// Parses the VCD subset rtl::VcdWriter emits: `$scope module`,
/// `$upscope`, `$var wire W ID NAME`, `#tick`, scalar `0ID`/`1ID` and
/// vector `bBITS ID` changes.
inline VcdTrace parse_vcd(const std::string& text) {
  VcdTrace trace;
  std::map<std::string, std::string> path_of;  // VCD id -> full path
  std::vector<std::string> scope;
  std::uint64_t tick = 0;
  std::istringstream in(text);
  std::string line;
  const auto change = [&](const std::string& id, Word v) {
    const auto it = path_of.find(id);
    if (it != path_of.end()) trace[it->second].push_back({tick, v});
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream words(line);
    std::string w;
    words >> w;
    if (w == "$scope") {
      std::string kind, name;
      words >> kind >> name;
      scope.push_back(name);
    } else if (w == "$upscope") {
      if (!scope.empty()) scope.pop_back();
    } else if (w == "$var") {
      std::string type, width, id, name;
      words >> type >> width >> id >> name;
      std::string path;
      for (const std::string& sc : scope) path += sc + ".";
      path_of[id] = path + name;
      trace[path + name];  // listed even if it never changes
    } else if (w[0] == '#') {
      tick = std::stoull(w.substr(1));
    } else if (w[0] == 'b') {
      std::string id;
      words >> id;
      change(id, std::stoull(w.substr(1), nullptr, 2));
    } else if (w[0] == '0' || w[0] == '1') {
      change(w.substr(1), w[0] == '1' ? 1 : 0);
    }
  }
  return trace;
}

/// The value `changes` holds at `tick` (its last change at or before
/// it), or nothing before its first change.
inline std::optional<Word> vcd_value_at(const std::vector<VcdChange>& changes,
                                        std::uint64_t tick) {
  std::optional<Word> v;
  for (const VcdChange& c : changes) {
    if (c.tick > tick) break;
    v = c.value;
  }
  return v;
}

/// The earliest point where a path present in both traces differs.
struct VcdDifference {
  std::uint64_t tick = 0;
  std::string path;
  std::optional<Word> a, b;  ///< the path's values at `tick`
};

inline std::optional<VcdDifference> first_vcd_difference(const VcdTrace& a,
                                                         const VcdTrace& b) {
  std::optional<VcdDifference> first;
  for (const auto& [path, ca] : a) {
    const auto it = b.find(path);
    if (it == b.end()) continue;
    const std::vector<VcdChange>& cb = it->second;
    const std::size_t n = std::min(ca.size(), cb.size());
    std::size_t i = 0;
    while (i < n && ca[i] == cb[i]) ++i;
    if (i == ca.size() && i == cb.size()) continue;
    std::uint64_t tick = 0;
    if (i < n)
      tick = std::min(ca[i].tick, cb[i].tick);
    else
      tick = i < ca.size() ? ca[i].tick : cb[i].tick;
    if (!first || tick < first->tick)
      first = VcdDifference{tick, path, vcd_value_at(ca, tick),
                            vcd_value_at(cb, tick)};
  }
  return first;
}

/// A failure message for two VCD texts that should be equal: the first
/// tick at which a signal differs, its full path and both values; or,
/// when every common path agrees, the paths only one side has and the
/// first differing line.
inline std::string vcd_difference_report(const std::string& a_text,
                                         const std::string& b_text) {
  const VcdTrace a = parse_vcd(a_text), b = parse_vcd(b_text);
  std::ostringstream out;
  const auto word = [](const std::optional<Word>& v) {
    if (!v) return std::string("(no value yet)");
    std::ostringstream h;
    h << "0x" << std::hex << *v;
    return h.str();
  };
  if (const auto d = first_vcd_difference(a, b)) {
    out << "first difference at tick " << d->tick << ": " << d->path
        << " = " << word(d->a) << " vs " << word(d->b);
    return out.str();
  }
  const auto only = [](const VcdTrace& x, const VcdTrace& y) {
    std::vector<std::string> v;
    for (const auto& [path, c] : x)
      if (y.count(path) == 0) v.push_back(path);
    return v;
  };
  const std::vector<std::string> only_a = only(a, b), only_b = only(b, a);
  out << "no value difference on the " << (a.size() - only_a.size())
      << " common paths";
  if (!only_a.empty()) out << "; only in the first: " << only_a.front();
  if (!only_b.empty()) out << "; only in the second: " << only_b.front();
  std::istringstream la(a_text), lb(b_text);
  std::string x, y;
  for (int n = 1;; ++n) {
    const bool ga = static_cast<bool>(std::getline(la, x));
    const bool gb = static_cast<bool>(std::getline(lb, y));
    if (!ga && !gb) break;
    if (!ga || !gb || x != y) {
      out << "; first differing line " << n << ": '" << (ga ? x : "<eof>")
          << "' vs '" << (gb ? y : "<eof>") << "'";
      break;
    }
  }
  return out.str();
}

/// Expects every Stats counter of two runs to match; `label` names the
/// pair in a failure.
inline void expect_stats_eq(const rtl::Simulator::Stats& a,
                            const rtl::Simulator::Stats& b,
                            const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.settles, b.settles) << label;
  EXPECT_EQ(a.deltas, b.deltas) << label;
  EXPECT_EQ(a.evals, b.evals) << label;
  EXPECT_EQ(a.commits, b.commits) << label;
  EXPECT_EQ(a.commit_changes, b.commit_changes) << label;
  EXPECT_EQ(a.seq_touches, b.seq_touches) << label;
  EXPECT_EQ(a.seq_skips, b.seq_skips) << label;
  EXPECT_EQ(a.edges, b.edges) << label;
  EXPECT_EQ(a.act_skips, b.act_skips) << label;
  EXPECT_EQ(a.partition_settles, b.partition_settles) << label;
  EXPECT_EQ(a.partition_skips, b.partition_skips) << label;
  EXPECT_EQ(a.domain_edges, b.domain_edges) << label;
}

using core::StreamConsumer;
using core::StreamProducer;
using rtl::Bit;
using rtl::Bus;
using rtl::Module;
using rtl::Simulator;

/// Pushes a fixed sequence of words into a stream container, one per
/// cycle whenever the container accepts.
class StreamFeeder : public Module {
 public:
  StreamFeeder(Module* parent, std::string name, StreamProducer p,
               std::vector<Word> data)
      : Module(parent, std::move(name)), p_(p), data_(std::move(data)) {}

  void eval_comb() override {
    const bool go = idx_ < data_.size() && p_.can_push.read();
    p_.push.write(go);
    p_.push_data.write(go ? data_[idx_] : 0);
  }

  void on_clock() override {
    if (idx_ < data_.size() && p_.can_push.read()) ++idx_;
  }

  void on_reset() override { idx_ = 0; }

  void save_state(rtl::StateWriter& w) const override { w.u64(idx_); }
  void load_state(rtl::StateReader& r) override {
    idx_ = static_cast<std::size_t>(r.u64());
  }

  [[nodiscard]] bool done() const { return idx_ >= data_.size(); }
  [[nodiscard]] std::size_t sent() const { return idx_; }

 private:
  StreamProducer p_;
  std::vector<Word> data_;
  std::size_t idx_ = 0;
};

/// Pops every available element from a stream container into a vector.
/// With limit == 0 the drainer is completely passive (it does not even
/// drive `pop`), so a testbench may drive the consumer wires manually.
class StreamDrainer : public Module {
 public:
  StreamDrainer(Module* parent, std::string name, StreamConsumer c,
                std::size_t limit = SIZE_MAX)
      : Module(parent, std::move(name)), c_(c), limit_(limit) {}

  void eval_comb() override {
    if (limit_ == 0) return;  // passive: leave the wires to the test
    c_.pop.write(got_.size() < limit_ && c_.can_pop.read());
  }

  void on_clock() override {
    if (limit_ == 0) return;
    if (got_.size() < limit_ && c_.can_pop.read())
      got_.push_back(c_.front.read());
  }

  void on_reset() override { got_.clear(); }

  void save_state(rtl::StateWriter& w) const override { w.words(got_); }
  void load_state(rtl::StateReader& r) override { r.words(got_); }

  [[nodiscard]] const std::vector<Word>& got() const { return got_; }

 private:
  StreamConsumer c_;
  std::size_t limit_;
  std::vector<Word> got_;
};

/// Pushes whole frames of pixels into a stream container, asserting a
/// start-of-frame strobe with each frame's first pixel.
class FrameFeeder : public Module {
 public:
  FrameFeeder(Module* parent, std::string name, StreamProducer p, Bit& sof,
              std::vector<Word> pixels, std::size_t frame_size)
      : Module(parent, std::move(name)),
        p_(p),
        sof_(sof),
        pixels_(std::move(pixels)),
        frame_size_(frame_size) {}

  void eval_comb() override {
    const bool go = idx_ < pixels_.size() && p_.can_push.read();
    p_.push.write(go);
    p_.push_data.write(go ? pixels_[idx_] : 0);
    sof_.write(go && idx_ % frame_size_ == 0);
  }

  void on_clock() override {
    if (idx_ < pixels_.size() && p_.can_push.read()) ++idx_;
  }

  void on_reset() override { idx_ = 0; }

  void save_state(rtl::StateWriter& w) const override { w.u64(idx_); }
  void load_state(rtl::StateReader& r) override {
    idx_ = static_cast<std::size_t>(r.u64());
  }

  [[nodiscard]] bool done() const { return idx_ >= pixels_.size(); }

 private:
  StreamProducer p_;
  Bit& sof_;
  std::vector<Word> pixels_;
  std::size_t frame_size_;
  std::size_t idx_ = 0;
};

/// Steps until `cond()` holds, failing the test on any other outcome
/// (timeout, latched injected fault).
template <typename Cond>
void step_until(Simulator& sim, Cond&& cond, std::uint64_t max_cycles) {
  const rtl::RunStatus st = sim.run(std::forward<Cond>(cond), max_cycles);
  ASSERT_TRUE(st.ok()) << "step_until: " << rtl::to_string(st.result)
                       << " after " << st.steps << " steps";
}

/// Asserts `bit` for exactly one clock cycle.
inline void pulse(Simulator& sim, Bit& bit) {
  bit.write(true);
  sim.step();
  bit.write(false);
}

/// Where module `m`'s payload starts in a snapshot blob of `top` that is
/// `blob_size` bytes long: the module payloads end the blob, in
/// elaboration (pre)order, each after its u32 length.  Lets a test
/// corrupt one field of one module.  nullopt if `m` is not in `top`'s
/// tree or the payloads do not fit in `blob_size` bytes; a caller
/// ASSERTs on it, and on the end of the field it patches, before it
/// indexes the blob.
inline std::optional<std::size_t> payload_offset(const rtl::Module& top,
                                                 const rtl::Module& m,
                                                 std::size_t blob_size) {
  std::size_t tail = 0;
  std::size_t before = 0;
  bool seen = false;
  top.visit([&](const rtl::Module& x) {
    rtl::StateWriter w;
    x.save_state(w);
    if (&x == &m) seen = true;
    if (!seen) before += 4 + w.size();
    tail += 4 + w.size();
  });
  if (!seen || tail > blob_size) return std::nullopt;
  return blob_size - tail + before + 4;
}

}  // namespace hwpat::tb
