// Seeded randomized differential harness for the simulation kernels.
//
// For each seed a random synchronous design is generated — a random
// module graph over 1–4 clock domains with random periods and phases
// (including coprime ratios), mixing declared registers, combinational
// mixers with data-dependent reads, internal-state accumulators
// (seq_touch()), opaque modules (no declaration, conservative path),
// exotic signal widths (1/63/64-bit among the ordinary ones, stressing
// the VCD emitter and the Bus truncation boundary), optionally
// strict-mode devices (a sync FifoCore and a dual-clock AsyncFifo)
// driven without backpressure so their ProtocolErrors actually fire —
// the harness catches each throw, suppresses the enables for the
// retried tick, and re-enables afterwards, exercising the
// transactional clock-edge contract on designs nobody hand-wrote — and
// optionally an ExternalSram of up to 8 pages, whose paged memory the
// snapshot mode round-trips.
// Each design is simulated twice with a VCD open — once under the
// event-driven kernel, once under the full-sweep reference.  Cycle
// counts, tick counts, every signal's final value, the per-domain edge
// statistics, the caught-throw count and the *bytes* of the VCD
// waveform must agree exactly.  The event kernel then runs twice more
// without a VCD: once untraced throughout (every event takes the plain
// build) and once with a tracer attached and detached part-way
// (switching builds between events).  Both must match the VCD run in
// cycles, ticks, values, caught throws and every Stats field.
//
// Every future scheduler change is thereby checked against the
// reference on designs nobody hand-wrote.  On failure the seed is in
// the assertion message — replay it with
//
//   HWPAT_FUZZ_BASE=<seed> HWPAT_FUZZ_SEEDS=1 ./test_fuzz_kernel
//
// HWPAT_FUZZ_SEEDS (default 120) and HWPAT_FUZZ_BASE (default 1)
// select the seed range [BASE, BASE+SEEDS); CI runs the default set in
// the normal matrix and a longer randomized range (base = the CI run
// id) under ASan+UBSan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "devices/async_fifo.hpp"
#include "devices/fifo.hpp"
#include "devices/sram.hpp"
#include "rtl/clock.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using rtl::Bit;
using rtl::Bus;
using rtl::ClockDomain;
using rtl::Module;
using rtl::Simulator;

// ------------------------------------------------------------------
// Random leaf modules.  Construction is fully deterministic in the
// rng, so two FuzzDesigns built from the same seed are identical —
// the property the differential comparison rests on.
// ------------------------------------------------------------------

/// Register: out <= f(a, b) at each edge of its domain.
struct FuzzReg : Module {
  Bus& out;
  const Bus& a;
  const Bus& b;
  Word k;
  FuzzReg(Module* parent, std::string name, Bus& o, const Bus& ia,
          const Bus& ib, Word kk)
      : Module(parent, std::move(name)), out(o), a(ia), b(ib), k(kk) {}
  void on_clock() override {
    out.write(a.read() * 3 + b.read() + k);
  }
  void declare_state() override { register_seq(out); }
};

/// Combinational mixer: out = g(a, b) — pure wires.
struct FuzzComb : Module {
  Bus& out;
  const Bus& a;
  const Bus& b;
  Word k;
  FuzzComb(Module* parent, std::string name, Bus& o, const Bus& ia,
           const Bus& ib, Word kk)
      : Module(parent, std::move(name)), out(o), a(ia), b(ib), k(kk) {}
  void eval_comb() override {
    out.write((a.read() ^ (b.read() << 1)) + k);
  }
  // Pure comb: pruned from the activation list (declare_comb_only).
  void declare_state() override { declare_comb_only(); }
};

/// Data-dependent reads: out = sel's low bit ? a : b.  Exercises the
/// dynamic sensitivity discovery (the read set depends on sel).
struct FuzzMux : Module {
  Bus& out;
  const Bus& sel;
  const Bus& a;
  const Bus& b;
  FuzzMux(Module* parent, std::string name, Bus& o, const Bus& s,
          const Bus& ia, const Bus& ib)
      : Module(parent, std::move(name)), out(o), sel(s), a(ia), b(ib) {}
  void eval_comb() override {
    out.write((sel.read() & 1) != 0 ? a.read() : b.read());
  }
  void declare_state() override { declare_comb_only(); }
};

/// Internal C++ state read by eval_comb(): the seq_touch() half of the
/// declared-state contract.  The accumulator only reports a touch when
/// the state actually changed.
struct FuzzAccum : Module {
  Bus& out;
  const Bus& a;
  const Bus& b;
  Word acc = 0;
  FuzzAccum(Module* parent, std::string name, Bus& o, const Bus& ia,
            const Bus& ib)
      : Module(parent, std::move(name)), out(o), a(ia), b(ib) {}
  void eval_comb() override { out.write(acc ^ b.read()); }
  void on_clock() override {
    const Word next = acc + a.read();
    if (next != acc) {
      acc = next;
      seq_touch();
    }
  }
  void on_reset() override { acc = 0; }
  void declare_state() override { declare_seq_state(); }
  void save_state(rtl::StateWriter& w) const override { w.word(acc); }
  void load_state(rtl::StateReader& r) override { acc = r.word(); }
};

/// Strict sync FIFO under suppressible random pressure: the enables
/// come straight from random top wires with NO backpressure gating, so
/// underflow/overflow ProtocolErrors genuinely fire; the shared
/// `suppress` bit (written by the harness after a catch) forces both
/// enables low so the retried tick succeeds.
struct FuzzStrictFifo : Module {
  Bit wr_en{*this, "wr_en"};
  Bit rd_en{*this, "rd_en"};
  Bit empty{*this, "empty"};
  Bit full{*this, "full"};
  Bus wr_data{*this, "wr_data", 8};
  Bus rd_data{*this, "rd_data", 8};
  Bus level{*this, "level", 8};
  const Bus& a;
  const Bus& b;
  const Bit& suppress;
  devices::FifoCore fifo;
  FuzzStrictFifo(Module* parent, std::string name, const Bus& ia,
                 const Bus& ib, const Bit& sup)
      : Module(parent, std::move(name)),
        a(ia),
        b(ib),
        suppress(sup),
        fifo(this, "fifo", {.width = 8, .depth = 2, .strict = true},
             {wr_en, wr_data, rd_en, rd_data, empty, full, level}) {}
  void eval_comb() override {
    const bool sup = suppress.read();
    wr_en.write(!sup && (a.read() & 1) != 0);
    rd_en.write(!sup && (b.read() & 1) != 0);
    wr_data.write(a.read() ^ (b.read() << 2));
  }
  void declare_state() override { declare_comb_only(); }
};

/// Same pressure pattern over the dual-clock AsyncFifo (the two sides
/// on harness-chosen, possibly distinct, domains).
struct FuzzStrictAsync : Module {
  Bit wr_en{*this, "wr_en"};
  Bit rd_en{*this, "rd_en"};
  Bit empty{*this, "empty"};
  Bit full{*this, "full"};
  Bus wr_data{*this, "wr_data", 8};
  Bus rd_data{*this, "rd_data", 8};
  const Bus& a;
  const Bus& b;
  const Bit& suppress;
  devices::AsyncFifo fifo;
  FuzzStrictAsync(Module* parent, std::string name, const Bus& ia,
                  const Bus& ib, const Bit& sup,
                  const ClockDomain* wr_domain,
                  const ClockDomain* rd_domain)
      : Module(parent, std::move(name)),
        a(ia),
        b(ib),
        suppress(sup),
        fifo(this, "afifo", {.width = 8, .depth = 2, .strict = true},
             {wr_en, wr_data, full, rd_en, rd_data, empty}, wr_domain,
             rd_domain) {}
  void eval_comb() override {
    const bool sup = suppress.read();
    wr_en.write(!sup && (a.read() & 2) != 0);
    rd_en.write(!sup && (b.read() & 2) != 0);
    wr_data.write((a.read() << 1) ^ b.read());
  }
  void declare_state() override { declare_comb_only(); }
};

/// External SRAM under random traffic: req, we, addr and wdata come
/// from random top wires.  The address bus is no wider than the address
/// space, so every access is in range, and its pages fill with the
/// words written (zeros included), so snapshots carry data pages, pages
/// of zeros that were once written and absent pages.
struct FuzzSram : Module {
  Bit req{*this, "req"};
  Bit we{*this, "we"};
  Bit ack{*this, "ack"};
  Bus addr;
  Bus wdata;
  Bus rdata;
  const Bus& a;
  const Bus& b;
  const Bus& c;
  devices::ExternalSram sram;
  FuzzSram(Module* parent, std::string name, devices::SramConfig cfg,
           int addr_bits, const Bus& ia, const Bus& ib, const Bus& ic)
      : Module(parent, std::move(name)),
        addr(*this, "addr", addr_bits),
        wdata(*this, "wdata", cfg.data_width),
        rdata(*this, "rdata", cfg.data_width),
        a(ia),
        b(ib),
        c(ic),
        sram(this, "sram", cfg, {req, we, addr, wdata, ack, rdata}) {}
  void eval_comb() override {
    req.write((a.read() & 1) != 0);
    we.write((a.read() & 2) != 0);
    addr.write(b.read() * 37 + (c.read() << 5));
    wdata.write((c.read() & 4) != 0 ? 0 : b.read() ^ c.read());
  }
  void declare_state() override { declare_comb_only(); }
};

/// No declaration at all: the conservative opaque fallback path.
struct FuzzOpaque : Module {
  Bus& out;
  const Bus& a;
  Word state = 1;
  FuzzOpaque(Module* parent, std::string name, Bus& o, const Bus& ia)
      : Module(parent, std::move(name)), out(o), a(ia) {}
  void eval_comb() override { out.write(state + a.read()); }
  void on_clock() override { state = state * 5 + a.read() + 1; }
  void on_reset() override { state = 1; }
  // deliberately NO declare_state(): opaque_state() stays true
  void save_state(rtl::StateWriter& w) const override { w.word(state); }
  void load_state(rtl::StateReader& r) override { state = r.word(); }
};

// ------------------------------------------------------------------
// Random design generator
// ------------------------------------------------------------------

struct FuzzDesign : Module {
  std::vector<std::unique_ptr<ClockDomain>> domains;
  std::vector<std::unique_ptr<Bus>> wires;  // wire i is driven by module i
  std::vector<std::unique_ptr<Module>> mods;
  int steps;  ///< how many edge events the harness runs

  explicit FuzzDesign(unsigned seed) : Module(nullptr, "fuzz") {
    std::mt19937 rng(seed);
    const auto pick = [&](int lo, int hi) {
      return lo + static_cast<int>(rng() % static_cast<unsigned>(
                                               hi - lo + 1));
    };

    // 1–3 explicit domains with random periods (coprime pairs likely)
    // and random sub-period phases; unassigned modules inherit the
    // top, which half the time stays in the built-in default domain —
    // up to 4 domains total.
    static constexpr std::int64_t kPeriods[] = {1, 2, 3, 4, 5, 7};
    const int ndom = pick(1, 3);
    for (int d = 0; d < ndom; ++d) {
      const std::int64_t period = kPeriods[rng() % 6];
      const std::int64_t phase =
          static_cast<std::int64_t>(rng()) % period;
      // += instead of operator+ dodges a gcc-12 -Wrestrict false
      // positive on the rvalue-string operator+ overloads; same below.
      std::string dn = "dom";
      dn += std::to_string(d);
      domains.push_back(
          std::make_unique<ClockDomain>(std::move(dn), period, phase));
    }
    if (pick(0, 1) != 0) set_clock_domain(domains[0].get());

    // All wires first (owned by the top, like design port bundles).
    // Mostly ordinary widths, with occasional 1/63/64-bit extremes to
    // stress the single-bit VCD form, the 64-bit emit loop and the Bus
    // truncation boundary (mask_of(64) must not shift by 64).
    const int nmod = pick(8, 20);
    for (int i = 0; i < nmod; ++i) {
      std::string wn = "w";
      wn += std::to_string(i);
      const int sel = pick(0, 11);
      const int width = sel == 0   ? 1
                        : sel == 1 ? 63
                        : sel == 2 ? 64
                                   : pick(4, 16);
      wires.push_back(
          std::make_unique<Bus>(*this, std::move(wn), width));
    }

    // ...then the modules.  Module i drives wire i.  Combinational
    // modules read only wires driven by *earlier* modules, so the comb
    // graph is acyclic by construction; sequential modules may read
    // anything (feedback through registers is legal hardware).  The
    // rng draws are hoisted into locals so the draw order is fixed by
    // the source, not by argument evaluation order.
    for (int i = 0; i < nmod; ++i) {
      const auto any = [&] {
        return wires[rng() % wires.size()].get();
      };
      const auto earlier = [&] {
        return wires[rng() % static_cast<unsigned>(i)].get();
      };
      Bus& out = *wires[static_cast<std::size_t>(i)];
      std::string nm = "m";
      nm += std::to_string(i);
      // Module 0 has no earlier wire to read: always make it a
      // register (self-feedback through a register is a counter, not a
      // comb loop).  Registers are twice as likely elsewhere too: they
      // drive all activity.
      const int kind = i == 0 ? 0 : pick(0, 5);
      switch (kind) {
        case 0:
        case 1: {
          Bus* a = any();
          Bus* b = any();
          const Word k = rng() % 255 + 1;
          mods.push_back(
              std::make_unique<FuzzReg>(this, nm, out, *a, *b, k));
          break;
        }
        case 2: {
          Bus* a = earlier();
          Bus* b = earlier();
          const Word k = rng() % 255;
          mods.push_back(
              std::make_unique<FuzzComb>(this, nm, out, *a, *b, k));
          break;
        }
        case 3: {
          Bus* s = earlier();
          Bus* a = earlier();
          Bus* b = earlier();
          mods.push_back(
              std::make_unique<FuzzMux>(this, nm, out, *s, *a, *b));
          break;
        }
        case 4: {
          Bus* a = any();
          Bus* b = earlier();
          mods.push_back(
              std::make_unique<FuzzAccum>(this, nm, out, *a, *b));
          break;
        }
        default: {
          // The opaque module reads its input combinationally too, so
          // it must respect the earlier-wires-only comb DAG rule.
          Bus* a = earlier();
          mods.push_back(std::make_unique<FuzzOpaque>(this, nm, out, *a));
          break;
        }
      }
      // Random domain assignment: explicit domain or inherit the top.
      if (const int d = pick(0, ndom); d < ndom)
        mods.back()->set_clock_domain(domains[static_cast<std::size_t>(d)]
                                          .get());
    }

    // Half the seeds add strict-mode devices under suppressible random
    // pressure: a sync FifoCore and a dual-clock AsyncFifo whose
    // ProtocolErrors the harness catches and retries (see run_kernel).
    if (pick(0, 1) != 0) {
      suppress = std::make_unique<Bit>(*this, "suppress");
      const Bus* a = wires[rng() % wires.size()].get();
      const Bus* b = wires[rng() % wires.size()].get();
      strict_sync = std::make_unique<FuzzStrictFifo>(this, "sfifo", *a,
                                                     *b, *suppress);
      if (const int d = pick(0, ndom); d < ndom)
        strict_sync->set_clock_domain(
            domains[static_cast<std::size_t>(d)].get());
      const Bus* c = wires[rng() % wires.size()].get();
      const Bus* e = wires[rng() % wires.size()].get();
      const ClockDomain* wd =
          domains[rng() % static_cast<unsigned>(ndom)].get();
      const ClockDomain* rd =
          domains[rng() % static_cast<unsigned>(ndom)].get();
      strict_async = std::make_unique<FuzzStrictAsync>(
          this, "safifo", *c, *e, *suppress, wd, rd);
    }
    steps = pick(30, 120);

    // Half the seeds add an SRAM of 16 to 4096 words (up to 8 pages of
    // 512) with 1 to 64-bit words on a random domain.  Its draws come
    // last, so the rest of each design is what the seed built before.
    if (pick(0, 1) != 0) {
      const int aw = pick(4, 12);
      static constexpr int kDataWidths[] = {1, 8, 13, 64};
      const devices::SramConfig cfg{.data_width = kDataWidths[rng() % 4],
                                    .addr_width = aw,
                                    .latency = pick(1, 3)};
      const int addr_bits = pick(1, aw);
      const Bus* a = wires[rng() % wires.size()].get();
      const Bus* b = wires[rng() % wires.size()].get();
      const Bus* c = wires[rng() % wires.size()].get();
      sram = std::make_unique<FuzzSram>(this, "xsram", cfg, addr_bits, *a,
                                        *b, *c);
      if (const int d = pick(0, ndom); d < ndom)
        sram->set_clock_domain(domains[static_cast<std::size_t>(d)].get());
    }
  }

  std::unique_ptr<Bit> suppress;  ///< harness-written strict-retry gate
  std::unique_ptr<FuzzStrictFifo> strict_sync;
  std::unique_ptr<FuzzStrictAsync> strict_async;
  std::unique_ptr<FuzzSram> sram;

  void declare_state() override { declare_seq_state(); }
};

// ------------------------------------------------------------------
// Differential run
// ------------------------------------------------------------------

struct RunResult {
  std::uint64_t cycles = 0;
  std::uint64_t ticks = 0;
  std::uint64_t throws = 0;  ///< caught-and-retried ProtocolErrors
  std::vector<Word> values;
  std::string vcd;
  Simulator::Stats stats;
  std::size_t sram_pages = 0;  ///< the SRAM's resident pages at the end
};

/// What a run_kernel() run observes: a VCD (the observed build on
/// every event), nothing (the plain build), or nothing but a tracer
/// attached on some stretches of steps (both builds, alternating).
enum class Observe { kVcd, kNothing, kTracerSwitching };

/// Every wire's final value, then the SRAM's image if the design has
/// one.
std::vector<Word> final_values(const FuzzDesign& d) {
  std::vector<Word> v;
  for (const auto& w : d.wires) v.push_back(w->read());
  if (d.sram != nullptr) {
    const std::vector<Word> image = d.sram->sram.mem();
    v.insert(v.end(), image.begin(), image.end());
  }
  return v;
}

RunResult run_kernel(unsigned seed, bool full_sweep,
                     Observe observe = Observe::kVcd) {
  FuzzDesign d(seed);
  const std::string path =
      "fuzz_" + std::to_string(seed) + (full_sweep ? "_ref" : "_evt") + ".vcd";
  RunResult out;
  {
    Simulator sim(d, {.full_sweep = full_sweep});
    if (observe == Observe::kVcd) sim.open_vcd(path);
    sim.reset();
    for (int i = 0; i < d.steps; ++i) {
      if (observe == Observe::kTracerSwitching) {
        if (i % 8 == 3) sim.trace_start();
        if (i % 8 == 6) sim.trace_stop();
      }
      // Caught-and-retried strict throws: suppress the enables, re-fire
      // the same tick (which must now succeed — the transactional edge
      // contract guarantees the aborted attempt left no trace), then
      // re-enable the pressure for the next step.
      for (int tries = 0;; ++tries) {
        try {
          sim.step();
          break;
        } catch (const ProtocolError&) {
          if (d.suppress == nullptr || tries > 0) throw;
          ++out.throws;
          d.suppress->write(true);
        }
      }
      if (d.suppress != nullptr) d.suppress->write(false);
    }
    out.cycles = sim.cycle();
    out.ticks = sim.now();
    out.stats = sim.stats();
    out.values = final_values(d);
    if (d.sram != nullptr) out.sram_pages = d.sram->sram.resident_pages();
  }  // destroying the simulator flushes the VCD stream
  if (observe == Observe::kVcd) out.vcd = tb::slurp_and_remove(path);
  return out;
}

/// Everything but the VCD bytes must agree between `a` and `b`.
void expect_same_run(const RunResult& a, const RunResult& b,
                     const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.throws, b.throws);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.settles, b.stats.settles);
  EXPECT_EQ(a.stats.deltas, b.stats.deltas);
  EXPECT_EQ(a.stats.evals, b.stats.evals);
  EXPECT_EQ(a.stats.commits, b.stats.commits);
  EXPECT_EQ(a.stats.commit_changes, b.stats.commit_changes);
  EXPECT_EQ(a.stats.seq_touches, b.stats.seq_touches);
  EXPECT_EQ(a.stats.seq_skips, b.stats.seq_skips);
  EXPECT_EQ(a.stats.edges, b.stats.edges);
  EXPECT_EQ(a.stats.act_skips, b.stats.act_skips);
  EXPECT_EQ(a.stats.partition_settles, b.stats.partition_settles);
  EXPECT_EQ(a.stats.partition_skips, b.stats.partition_skips);
  EXPECT_EQ(a.stats.domain_edges, b.stats.domain_edges);
}

unsigned env_or(const char* name, unsigned dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return static_cast<unsigned>(std::strtoull(v, nullptr, 10));
}

TEST(FuzzKernel, EventKernelMatchesFullSweepOnRandomDesigns) {
  const unsigned base = env_or("HWPAT_FUZZ_BASE", 1);
  const unsigned count = env_or("HWPAT_FUZZ_SEEDS", 120);
  std::uint64_t multi_domain = 0;
  std::uint64_t strict_throws = 0;
  std::uint64_t sram_paged = 0;  ///< seeds whose SRAM holds pages
  for (unsigned seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (replay: HWPAT_FUZZ_BASE=" + std::to_string(seed) +
                 " HWPAT_FUZZ_SEEDS=1 ./test_fuzz_kernel)");
    const RunResult evt = run_kernel(seed, false);
    const RunResult ref = run_kernel(seed, true);
    ASSERT_EQ(evt.cycles, ref.cycles);
    ASSERT_EQ(evt.ticks, ref.ticks);
    ASSERT_EQ(evt.values, ref.values);
    ASSERT_EQ(evt.stats.edges, ref.stats.edges);
    ASSERT_EQ(evt.stats.domain_edges, ref.stats.domain_edges);
    // Both kernels must hit (and roll back) the same strict-device
    // throws at the same steps — the shared validate phase guarantees
    // the conditions are evaluated on identical settled values.
    ASSERT_EQ(evt.throws, ref.throws);
    ASSERT_TRUE(evt.vcd == ref.vcd)
        << "VCD bytes differ: " << tb::vcd_difference_report(evt.vcd, ref.vcd);
    // The event kernel must never do more comb work than the sweep.
    ASSERT_LE(evt.stats.evals, ref.stats.evals);
    // The plain build, alone and alternating with the observed one,
    // computes exactly what the observed build does.
    expect_same_run(evt, run_kernel(seed, false, Observe::kNothing),
                    "plain build");
    expect_same_run(evt, run_kernel(seed, false, Observe::kTracerSwitching),
                    "switching builds");
    ASSERT_FALSE(::testing::Test::HasFailure());
    strict_throws += evt.throws;
    if (evt.stats.domain_edges.size() > 1) ++multi_domain;
    if (evt.sram_pages > 0) ++sram_paged;
  }
  // The generator must actually exercise the multi-domain machinery,
  // not degenerate into single-clock designs — and the strict devices
  // must genuinely throw (and be retried) somewhere in the sweep, and
  // the SRAMs must fill pages.
  EXPECT_GT(multi_domain, count / 2);
  if (count >= 20) {
    EXPECT_GT(strict_throws, 0u);
    EXPECT_GT(sram_paged, 0u);
  }
}

// ------------------------------------------------------------------
// Snapshot / fault-injection / replay mode
//
// For each seed (HWPAT_FUZZ_SNAP_BASE/HWPAT_FUZZ_SNAP_SEEDS): run the
// design uninterrupted, snapshotting at a random quiet step; run it
// again with a random fault plan armed past the snapshot point, let
// the fault fire, restore the snapshot, and replay the remainder.
// The replayed half must be byte-identical to the uninterrupted run —
// values, every counter, and the VCD bytes — and the snapshot itself
// must round-trip bit-stably, including across simulator instances.
// ------------------------------------------------------------------

/// One step with the strict-device retry protocol of run_kernel():
/// suppress the random pressure after a caught ProtocolError, re-fire
/// the tick, re-enable afterwards.  FaultInjected passes through.
std::uint64_t step_with_retry(Simulator& sim, FuzzDesign& d) {
  std::uint64_t throws = 0;
  for (int tries = 0;; ++tries) {
    try {
      sim.step();
      break;
    } catch (const ProtocolError&) {
      if (d.suppress == nullptr || tries > 0) throw;
      ++throws;
      d.suppress->write(true);
    }
  }
  if (d.suppress != nullptr) d.suppress->write(false);
  return throws;
}

/// Runs the full scenario for one (seed, kernel) pair.  Returns false
/// when the seed was skipped (no quiet snapshot point — pathological
/// designs that throw on every remaining step).  Reports whether the
/// injected fault fired.
bool run_snapshot_scenario(unsigned seed, bool full_sweep,
                           bool* fault_fired) {
  std::mt19937 rng(seed ^ 0x5eedu);
  const std::string tag =
      "snap_" + std::to_string(seed) + (full_sweep ? "_ref" : "_evt");

  // --- Uninterrupted reference run, snapshotting on the way ---------
  FuzzDesign d1(seed);
  const int steps = d1.steps;
  const int snap_at =
      1 + static_cast<int>(rng() % static_cast<unsigned>(steps - 2));
  rtl::Snapshot blob;
  int eff = 0;  ///< effective (quiet) snapshot step, >= snap_at
  RunResult ref;
  const std::string ref_path = tag + "_ref.vcd";
  {
    Simulator sim(d1, {.full_sweep = full_sweep});
    sim.reset();
    int done = 0;
    for (; done < snap_at; ++done) ref.throws += step_with_retry(sim, d1);
    // A step retried after a strict throw leaves the suppress
    // re-enable write pending, which save_snapshot() correctly
    // refuses to capture — shift to the first quiet step.  The shift
    // is deterministic (throws are deterministic per design), so the
    // fault run below lands on the same step.
    for (;;) {
      try {
        blob = sim.save_snapshot();
        break;
      } catch (const Error&) {
        if (done >= steps - 1) return false;  // no quiet point: skip seed
        ref.throws += step_with_retry(sim, d1);
        ++done;
      }
    }
    eff = done;
    sim.open_vcd(ref_path);
    for (; done < steps; ++done) ref.throws += step_with_retry(sim, d1);
    ref.cycles = sim.cycle();
    ref.ticks = sim.now();
    ref.stats = sim.stats();
    ref.values = final_values(d1);
  }
  ref.vcd = tb::slurp_and_remove(ref_path);

  // --- Fault run: crash past the snapshot point, restore, replay ----
  FuzzDesign d2(seed);
  static constexpr const char* kPoints[] = {"check", "edge", "settle",
                                            "commit"};
  const std::string plan = std::string(kPoints[rng() % 4]) + "@" +
                           std::to_string(eff + 1 +
                                          static_cast<int>(rng() % 3)) +
                           "+" + std::to_string(rng() % 2);
  RunResult rep;
  const std::string rep_path = tag + "_rep.vcd";
  {
    Simulator sim(d2, {.full_sweep = full_sweep, .fault_plan = plan});
    sim.reset();
    for (int done = 0; done < eff; ++done)
      rep.throws += step_with_retry(sim, d2);
    // Cross-instance determinism: an independently constructed design
    // stepped to the same point serializes to the identical blob.
    const rtl::Snapshot blob2 = sim.save_snapshot();
    EXPECT_EQ(blob2.bytes(), blob.bytes())
        << "snapshot not deterministic across instances (plan " << plan
        << ")";
    // Run into the armed fault (or to the end if it never becomes
    // eligible); everything from here until the restore is the
    // "crashed" timeline the snapshot must erase.
    for (int extra = eff; extra < steps; ++extra) {
      try {
        (void)step_with_retry(sim, d2);
      } catch (const rtl::FaultInjected&) {
        break;
      }
    }
    *fault_fired = sim.fault_fired();
    // Restore the other instance's blob (cross-instance restore) and
    // require the round trip to be bit-stable.
    sim.restore_snapshot(blob);
    const rtl::Snapshot blob3 = sim.save_snapshot();
    EXPECT_EQ(blob3.bytes(), blob.bytes())
        << "snapshot/restore/snapshot not bit-stable (plan " << plan
        << ")";
    sim.open_vcd(rep_path);
    for (int done = eff; done < steps; ++done)
      rep.throws += step_with_retry(sim, d2);
    rep.cycles = sim.cycle();
    rep.ticks = sim.now();
    rep.stats = sim.stats();
    rep.values = final_values(d2);
  }
  rep.vcd = tb::slurp_and_remove(rep_path);

  // --- The replayed timeline must be indistinguishable --------------
  EXPECT_EQ(rep.cycles, ref.cycles) << "plan " << plan;
  EXPECT_EQ(rep.ticks, ref.ticks) << "plan " << plan;
  EXPECT_EQ(rep.values, ref.values) << "plan " << plan;
  EXPECT_EQ(rep.throws, ref.throws) << "plan " << plan;
  EXPECT_EQ(rep.stats.steps, ref.stats.steps);
  EXPECT_EQ(rep.stats.settles, ref.stats.settles);
  EXPECT_EQ(rep.stats.deltas, ref.stats.deltas);
  EXPECT_EQ(rep.stats.evals, ref.stats.evals);
  EXPECT_EQ(rep.stats.commits, ref.stats.commits);
  EXPECT_EQ(rep.stats.commit_changes, ref.stats.commit_changes);
  EXPECT_EQ(rep.stats.seq_touches, ref.stats.seq_touches);
  EXPECT_EQ(rep.stats.seq_skips, ref.stats.seq_skips);
  EXPECT_EQ(rep.stats.edges, ref.stats.edges);
  EXPECT_EQ(rep.stats.domain_edges, ref.stats.domain_edges);
  EXPECT_TRUE(rep.vcd == ref.vcd)
      << "replayed VCD bytes differ (plan " << plan
      << "): " << tb::vcd_difference_report(rep.vcd, ref.vcd);
  return true;
}

TEST(FuzzKernel, SnapshotFaultRestoreReplaysByteIdentically) {
  const unsigned base = env_or("HWPAT_FUZZ_SNAP_BASE", 1);
  const unsigned count = env_or("HWPAT_FUZZ_SNAP_SEEDS", 25);
  std::uint64_t ran = 0, skipped = 0, fired = 0;
  for (unsigned seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (replay: HWPAT_FUZZ_SNAP_BASE=" + std::to_string(seed) +
                 " HWPAT_FUZZ_SNAP_SEEDS=1 ./test_fuzz_kernel)");
    bool f = false;
    if (!run_snapshot_scenario(seed, false, &f)) {
      ++skipped;
      continue;
    }
    ++ran;
    if (f) ++fired;
    ASSERT_FALSE(::testing::Test::HasFailure());
    ASSERT_TRUE(run_snapshot_scenario(seed, true, &f));
    if (f) ++fired;
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
  // The mode must genuinely exercise the machinery: most seeds find a
  // quiet snapshot point, and the injected faults actually fire.
  EXPECT_GT(ran, skipped);
  if (count >= 10) { EXPECT_GT(fired, 0u); }
}

}  // namespace
}  // namespace hwpat
