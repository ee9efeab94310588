// Snapshot/restore bodies of the Simulator (format in rtl/snapshot.hpp
// and src/rtl/README.md).
//
// Blob layout (version 1, all integers little-endian):
//
//   magic "HWPS" | version u8 | flags u8 | topology hash u64
//   tick u64 | cycle u64 | per-domain next_edge u64...
//   stats (12 x u64) | domain count u32 | domain_edges u64...
//   signal count u32 | per-signal committed value (SigKind encoding)
//   per-signal fanout: count u32 + module ids u32... (IN LIST ORDER —
//     fanout order determines pending-commit order and therefore VCD
//     emission order during replay, so it is state, not just a cache)
//   module count u32 | per-module: payload length u32 + save_state bytes
//
// flags bit 0 marks a capture by the full-sweep kernel: its fanout
// lists are empty (never traced), so an event-kernel restore re-seeds a
// full settle exactly like the post-bind seeding.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "rtl/simulator.hpp"

namespace hwpat::rtl {

namespace {

constexpr std::uint8_t kMagic[4] = {'H', 'W', 'P', 'S'};
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagFullSweep = 1;

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// kFnvPow[k] = kFnvPrime^k (mod 2^64).  An FNV-1a step on a zero byte
/// is a bare multiply (x ^ 0 == x), so k zero bytes in a row fold into
/// one multiply by kFnvPow[k] — the same hash from a shorter chain.
constexpr std::array<std::uint64_t, 9> kFnvPow = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kFnvPrime;
  return p;
}();

void mix_byte(std::uint64_t& h, unsigned char b) {
  h ^= b;
  h *= kFnvPrime;
}

/// FNV-1a over v's eight little-endian bytes.  Most topology fields are
/// small (ids, widths, flags), so their zero high bytes cost one
/// multiply together.
void mix(std::uint64_t& h, std::uint64_t v) {
  std::size_t n = 0;
  for (; v != 0; v >>= 8, ++n) mix_byte(h, static_cast<unsigned char>(v));
  h *= kFnvPow[8 - n];
}

void mix_str(std::uint64_t& h, const std::string& s) {
  mix(h, s.size());
  for (const char c : s) mix_byte(h, static_cast<unsigned char>(c));
}

std::size_t path_size(const Module& m) {
  return m.parent() == nullptr ? m.name().size()
                               : path_size(*m.parent()) + 1 + m.name().size();
}

void mix_path_bytes(std::uint64_t& h, const Module& m) {
  if (m.parent() != nullptr) {
    mix_path_bytes(h, *m.parent());
    mix_byte(h, '.');
  }
  for (const char c : m.name()) mix_byte(h, static_cast<unsigned char>(c));
}

/// mix_str(h, m.full_name()) without building the string.
void mix_path(std::uint64_t& h, const Module& m) {
  mix(h, path_size(m));
  mix_path_bytes(h, m);
}

/// Calls f(kind, first_id, count) for every maximal run of consecutive
/// signal ids sharing a SigKind.  Word and bool signals own value slots
/// in id order (Simulator::build_soa), so such a run is a contiguous
/// stretch of the dense value arrays and moves as one bulk array;
/// kOther signals keep their values inline and serialize themselves.
template <typename F>
void for_each_kind_run(const unsigned char* kinds, std::size_t n, F&& f) {
  for (std::size_t first = 0; first < n;) {
    std::size_t end = first + 1;
    while (end < n && kinds[end] == kinds[first]) ++end;
    f(static_cast<SigKind>(kinds[first]), first, end - first);
    first = end;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t Simulator::topology_hash() const {
  // FNV-1a over everything that identifies the elaboration: module
  // paths and partitions, signal names/owners/kinds/widths, resolved
  // domains.  Two designs agree iff the same tree elaborated with the
  // same parameters — a width or lane-count change renames or re-ids
  // something and the hash moves.
  std::uint64_t h = 1469598103934665603ull;
  mix(h, modules_.size());
  for (const Module* m : modules_) {
    mix_path(h, *m);
    mix(h, static_cast<std::uint64_t>(m->part_));
    mix(h, m->comb_only() ? 1 : 0);
  }
  mix(h, signals_.size());
  for (const SignalBase* s : signals_) {
    mix_str(h, s->name());
    mix(h, static_cast<std::uint64_t>(s->owner().sim_id_));
    mix(h, static_cast<std::uint64_t>(s->width()));
    mix(h, static_cast<std::uint64_t>(s->kind()));
    mix(h, static_cast<std::uint64_t>(s->part_));
    mix(h, s->cdc_cross() ? 1 : 0);
  }
  mix(h, scheds_.size());
  for (const DomainSched& ds : scheds_) {
    mix_str(h, ds.name);
    mix(h, ds.period);
    mix(h, ds.phase);
    mix(h, ds.active.size());
    mix(h, ds.pruned);
  }
  return h;
}

void Simulator::save_values(StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(signals_.size()));
  for_each_kind_run(sig_kind_, signals_.size(), [&](SigKind kind,
                                                    std::size_t first,
                                                    std::size_t len) {
    const std::uint32_t slot = sig_slot_[first];
    switch (kind) {
      case SigKind::kWord:
        w.array(word_cur_ + slot, len);
        return;
      case SigKind::kBool:
        w.bools(bool_cur_ + slot, len);
        return;
      case SigKind::kOther:
        for (std::size_t sid = first; sid < first + len; ++sid)
          signals_[sid]->save_value(w);
        return;
    }
  });
}

void Simulator::load_values(StateReader& r) {
  const std::uint32_t ns = r.u32();
  if (ns != signals_.size())
    throw SnapshotError("snapshot: signal count mismatch (blob has " +
                        std::to_string(ns) + ", design has " +
                        std::to_string(signals_.size()) + ")");
  for_each_kind_run(sig_kind_, signals_.size(), [&](SigKind kind,
                                                    std::size_t first,
                                                    std::size_t len) {
    const std::uint32_t slot = sig_slot_[first];
    switch (kind) {
      case SigKind::kWord:
        r.array(word_cur_ + slot, len, "signal values");
        std::copy_n(word_cur_ + slot, len, word_nxt_ + slot);
        return;
      case SigKind::kBool:
        r.bools(bool_cur_ + slot, len);
        std::copy_n(bool_cur_ + slot, len, bool_nxt_ + slot);
        return;
      case SigKind::kOther:
        for (std::size_t sid = first; sid < first + len; ++sid)
          signals_[sid]->load_value(r);
        return;
    }
  });
}

void Simulator::save_fanout(StateWriter& w) const {
  // Module ids are non-negative, so their int32 encoding is the
  // historical u32 one.
  for (std::size_t sid = 0; sid < signals_.size(); ++sid) {
    w.u32(fan_count_[sid]);
    w.array(fan_pool_.data() + fan_begin_[sid], fan_count_[sid]);
  }
}

void Simulator::load_fanout(StateReader& r) {
  const std::size_t nsig = signals_.size();
  const std::size_t nmod = modules_.size();
  // Pass 1: copy every span into the pool and validate it.  The counts
  // stay 0 until the whole section checked out, so a corrupted blob
  // leaves an empty — consistent — fanout behind for reset() to
  // relearn.  mod_mark_ detects a module id listed twice for one signal.
  fan_pool_.clear();
  sens_pool_.clear();
  std::fill_n(fan_count_, nsig, std::uint32_t{0});
  std::fill_n(fan_cap_, nsig, std::uint32_t{0});
  std::fill_n(sens_count_, nmod, std::uint32_t{0});
  std::fill_n(sens_cap_, nmod, std::uint32_t{0});
  std::fill_n(mod_mark_, nmod, std::uint64_t{0});
  for (std::size_t sid = 0; sid < nsig; ++sid) {
    const std::uint32_t nf = r.u32();
    if (nf > r.remaining() / sizeof(std::uint32_t))
      throw SnapshotError("snapshot: truncated blob (fanout of signal '" +
                          signals_[sid]->full_name() + "' lists " +
                          std::to_string(nf) + " module id(s), " +
                          std::to_string(r.remaining()) + " byte(s) left)");
    const std::uint32_t at = static_cast<std::uint32_t>(fan_pool_.size());
    fan_pool_.resize(at + nf);
    r.array(fan_pool_.data() + at, nf, "fanout");
    fan_begin_[sid] = at;
    fan_cap_[sid] = nf;
    const std::uint64_t pass = sid + 1;
    for (std::uint32_t k = at; k < at + nf; ++k) {
      const auto id = static_cast<std::uint32_t>(fan_pool_[k]);
      if (id >= nmod)
        throw SnapshotError("snapshot: fanout module id " + std::to_string(id) +
                            " out of range for signal '" +
                            signals_[sid]->full_name() + "'");
      if (mod_mark_[id] == pass)
        throw SnapshotError("snapshot: duplicate fanout module id " +
                            std::to_string(id) + " for signal '" +
                            signals_[sid]->full_name() +
                            "' — corrupted blob");
      mod_mark_[id] = pass;
    }
  }
  // Pass 2: publish the counts, and build the read sets as the exact
  // transpose with a counting sort over modules (each read set comes
  // out in ascending signal order).
  for (std::size_t sid = 0; sid < nsig; ++sid) {
    fan_count_[sid] = fan_cap_[sid];
    for (std::uint32_t k = 0; k < fan_count_[sid]; ++k)
      ++sens_count_[fan_pool_[fan_begin_[sid] + k]];
  }
  std::uint32_t at = 0;
  for (std::size_t mid = 0; mid < nmod; ++mid) {
    sens_begin_[mid] = at;
    sens_cap_[mid] = sens_count_[mid];
    at += sens_count_[mid];
    sens_count_[mid] = 0;
  }
  sens_pool_.resize(at);
  for (std::size_t sid = 0; sid < nsig; ++sid)
    for (std::uint32_t k = 0; k < fan_count_[sid]; ++k) {
      const std::int32_t mid = fan_pool_[fan_begin_[sid] + k];
      sens_pool_[sens_begin_[mid] + sens_count_[mid]++] =
          static_cast<std::int32_t>(sid);
    }
}

void Simulator::save_module_states(StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(modules_.size()));
  for (const Module* m : modules_) {
    const std::size_t at = w.mark_u32();
    m->save_state(w);
    w.patch_u32(at, static_cast<std::uint32_t>(w.size() - at - 4));
  }
}

void Simulator::load_module_states(StateReader& r) {
  const std::uint32_t n = r.u32();
  if (n != modules_.size())
    throw SnapshotError("snapshot: module count mismatch (blob has " +
                std::to_string(n) + ", design has " +
                std::to_string(modules_.size()) + ")");
  for (Module* m : modules_) {
    const std::uint32_t len = r.u32();
    if (len > r.remaining())
      throw SnapshotError("snapshot: truncated module payload for '" +
                  m->full_name() + "' (declared " + std::to_string(len) +
                  " byte(s), " + std::to_string(r.remaining()) +
                  " left)");
    const std::size_t before = r.consumed();
    try {
      m->load_state(r);
    } catch (const SnapshotError& e) {
      throw SnapshotError("module '" + m->full_name() + "': " + e.what());
    }
    const std::size_t used = r.consumed() - before;
    if (used != len)
      throw SnapshotError("module '" + m->full_name() +
                          "': load_state() consumed " + std::to_string(used) +
                  " byte(s) but save_state() wrote " +
                  std::to_string(len) +
                  " — the save/load pair is out of sync");
  }
}

Snapshot Simulator::save_snapshot() const {
  if (busy_)
    throw SnapshotError(
        "save_snapshot: called from inside a simulator callback "
        "(mid-event) — snapshots may only be taken between steps");
  if (needs_recovery_)
    throw SnapshotError(
        "save_snapshot: an exception unwound a settle or commit and "
        "left state inconsistent — restore_snapshot() or reset() "
        "first, then retry");
  if (!pending_.empty() || !worklist_.empty())
    throw SnapshotError(
        "save_snapshot: uncommitted writes or dirty modules pending "
        "— settle() (or finish the step) before snapshotting");
  // The pending list covers only the event kernel; the full-sweep
  // kernel commits by scanning every signal, so a testbench write made
  // after the last settle leaves no list trace — scan for it directly.
  for (const SignalBase* s : signals_)
    if (s->has_uncommitted_write())
      throw SnapshotError("save_snapshot: signal '" + s->full_name() +
                  "' has an uncommitted write — settle() (or finish "
                  "the step) before snapshotting");
  const std::uint64_t t0 = telem_ != nullptr ? telem_->now_ns() : 0;
  StateWriter w;
  // Everything but the module payloads is bounded by the design's
  // shape; the payloads start from their construction-time size.
  w.reserve(64 + 16 * scheds_.size() + 12 * signals_.size() +
            4 * fan_pool_.size() + baseline_.size());
  // Byte-at-a-time (identical blob): GCC 12's -Wstringop-overflow
  // misfires on vector::insert of the 4-byte array once this TU's
  // inlining shifts.
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u8(kVersion);
  w.u8(opt_.full_sweep ? kFlagFullSweep : 0);
  w.u64(topology_hash());
  // Scheduler.
  w.u64(tick_);
  w.u64(cycle_);
  for (const DomainSched& ds : scheds_) w.u64(ds.next_edge);
  // Stats — part of the state so replay-from-restore is byte-identical
  // to the uninterrupted run, counters included.
  w.u64(stats_.steps);
  w.u64(stats_.settles);
  w.u64(stats_.deltas);
  w.u64(stats_.evals);
  w.u64(stats_.commits);
  w.u64(stats_.commit_changes);
  w.u64(stats_.seq_touches);
  w.u64(stats_.seq_skips);
  w.u64(stats_.edges);
  w.u64(stats_.act_skips);
  w.u64(stats_.partition_settles);
  w.u64(stats_.partition_skips);
  w.u32(static_cast<std::uint32_t>(stats_.domain_edges.size()));
  for (const std::uint64_t v : stats_.domain_edges) w.u64(v);
  save_values(w);
  // Learned fanout lists, in order (see file comment).  Read out of the
  // CSR spans — the bytes are identical to the historical per-signal
  // pointer-vector dump, because the spans hold module ids in the same
  // append order the old lists did.
  save_fanout(w);
  // Module payloads, length-framed.
  save_module_states(w);
  std::vector<std::uint8_t> bytes = std::move(w).take();
  if (telem_ != nullptr)
    telem_->add(TracePhase::SnapshotSave, t0, telem_->now_ns(), bytes.size());
  return Snapshot(std::move(bytes));
}

void Simulator::restore_snapshot(const Snapshot& snap) {
  if (busy_)
    throw SnapshotError(
        "restore_snapshot: called from inside a simulator callback "
        "(mid-event) — the event must finish or abort first; the "
        "simulator is unchanged");
  StateReader r(snap.bytes());
  std::uint8_t magic[4];
  r.bytes(magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0)
    throw SnapshotError("restore_snapshot: not a hwpat snapshot (bad magic)");
  const std::uint8_t version = r.u8();
  if (version != kVersion)
    throw SnapshotError("restore_snapshot: unsupported snapshot version " +
                std::to_string(version) + " (this build reads version " +
                std::to_string(kVersion) + ")");
  const std::uint8_t flags = r.u8();
  const bool from_full_sweep = (flags & kFlagFullSweep) != 0;
  const std::uint64_t have = r.u64();
  const std::uint64_t want = topology_hash();
  if (have != want)
    throw SnapshotError("restore_snapshot: topology hash mismatch (snapshot 0x" +
                hex64(have) + ", design '" + top_.name() + "' 0x" +
                hex64(want) +
                ") — the snapshot was taken from a different or "
                "differently-parameterized elaboration");
  // Header validated; mutation begins.
  // The fault engine models the crash, not the design, so it is not
  // serialized — but restoring rolls the timeline back, so the
  // eligible-occurrence counter rewinds with it (a fault that already
  // fired stays fired: replay must not re-crash).
  fault_seen_ = 0;
  const std::uint64_t t0 = telem_ != nullptr ? telem_->now_ns() : 0;
  try {
    // Scheduler.
    tick_ = r.u64();
    cycle_ = r.u64();
    for (DomainSched& ds : scheds_) ds.next_edge = r.u64();
    build_edge_heap();
    firing_.clear();
    // Stats.
    stats_.steps = r.u64();
    stats_.settles = r.u64();
    stats_.deltas = r.u64();
    stats_.evals = r.u64();
    stats_.commits = r.u64();
    stats_.commit_changes = r.u64();
    stats_.seq_touches = r.u64();
    stats_.seq_skips = r.u64();
    stats_.edges = r.u64();
    stats_.act_skips = r.u64();
    stats_.partition_settles = r.u64();
    stats_.partition_skips = r.u64();
    const std::uint32_t nd = r.u32();
    if (nd != scheds_.size())
      throw SnapshotError("snapshot: domain count mismatch (blob has " +
                  std::to_string(nd) + ", design has " +
                  std::to_string(scheds_.size()) + ")");
    stats_.domain_edges.resize(nd);
    for (std::uint64_t& v : stats_.domain_edges) v = r.u64();
    // Kernel queues: a snapshot is always quiet (see save_snapshot), so
    // every transient list empties.
    pending_.clear();
    worklist_.clear();
    eval_list_.clear();
    touched_.clear();
    const std::size_t nsig = signals_.size();
    const std::size_t nmod = modules_.size();
    std::fill_n(sig_pending_, nsig, static_cast<unsigned char>(0));
    std::fill_n(sig_stamp_, nsig, std::uint64_t{0});
    std::fill_n(sig_mark_, nsig, std::uint64_t{0});
    std::fill_n(last_reader_, nsig, std::int32_t{-1});
    mark_epoch_ = 0;
    eval_stamp_ = 0;
    // Only listed signals carry the vcd mark (sentinel 2 — never
    // sampled — must survive), so clearing the list clears the marks.
    for (const std::int32_t sid : vcd_changed_) sig_vcdmark_[sid] = 0;
    vcd_changed_.clear();
    load_values(r);
    // Fanout lists -> CSR, with the per-module read sets rebuilt as
    // their transpose, so  s ∈ reads(m) ⟺ m ∈ fanout(s)  holds even
    // when a corrupted section throws half-way (see load_fanout).
    load_fanout(r);
    std::fill_n(mod_dirty_, nmod, static_cast<unsigned char>(0));
    for (Module* m : modules_) m->seq_touched_ = false;
    // Module payloads.
    load_module_states(r);
    if (r.remaining() != 0)
      throw SnapshotError("snapshot: " + std::to_string(r.remaining()) +
                  " trailing byte(s) after the last module payload — "
                  "corrupted blob");
    if (!opt_.full_sweep && from_full_sweep) {
      // Full-sweep captures carry no learned sensitivity: seed a full
      // settle, exactly like the post-bind seeding.
      for (SignalBase* s : signals_) {
        sig_pending_[s->id_] = 1;
        pending_.push_back(s->id_);
      }
      mark_all_modules_dirty();
    }
    if (vcd_) vcd_full_pending_ = true;
    needs_recovery_ = false;
    if (telem_ != nullptr)
      telem_->add(TracePhase::SnapshotRestore, t0, telem_->now_ns(),
                  snap.size_bytes());
  } catch (const Error& e) {
    // Corruption detected after mutation began: never leave the
    // simulator half-restored — fall back to construction state.
    reset();
    throw SnapshotError(std::string(e.what()) +
                        "; the simulator was reset to construction state");
  } catch (...) {
    reset();
    throw;
  }
}

}  // namespace hwpat::rtl
