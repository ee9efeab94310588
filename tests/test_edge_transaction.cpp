// Transactional clock-edge events.
//
// A clock-edge event must be all-or-nothing: when a strict device
// raises ProtocolError, the event aborts as a perfect no-op — no
// domain's on_clock() ran (the validate phase fires first, from settled
// inputs), no pending write survives to leak into the next settle, no
// counter moved, and time did not advance — so a caught-and-retried
// step() re-fires the same tick exactly as if the throw never happened.
//
// The regression these tests pin down: fire_edges() used to bump
// edges/domain_edges/act_skips per domain *before* later domains ran,
// and a ProtocolError thrown by a strict device mid-event left the
// earlier domains' on_clock() writes sitting in the pending list — the
// next settle committed those leaked writes, so a "retried same tick"
// actually advanced state and double-counted edges.
#include <gtest/gtest.h>

#include <memory>

#include "devices/async_fifo.hpp"
#include "devices/fifo.hpp"
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

/// Register counter: out <= out + 1 on every edge of its domain.  Its
/// value is the witness that an aborted event really ran nobody's
/// on_clock() — in the pre-fix kernel, a counter in a domain ordered
/// before the throwing device advanced (and its write leaked) anyway.
struct EdgeCounter : Module {
  Bus& out;
  EdgeCounter(Module* parent, std::string name, Bus& o)
      : Module(parent, std::move(name)), out(o) {}
  void on_clock() override { out.write(out.read() + 1); }
  void declare_state() override { register_seq(out); }
};

/// Three-domain design around one strict AsyncFifo: a write-domain
/// counter (domain index 0, so its edges run FIRST within a combined
/// event), an unrelated third-domain counter, and a read side whose
/// rd_en is driven straight from a testbench bit — asserting it while
/// the FIFO is empty forces the underflow ProtocolError.
struct TxTop : Module {
  ClockDomain wr_dom{"wrclk", 1};
  ClockDomain rd_dom{"rdclk", 3};
  ClockDomain aux_dom{"auxclk", 5};

  Bit wr_en{*this, "wr_en"};
  Bus wr_data{*this, "wr_data", 8};
  Bit full{*this, "full"};
  Bit rd_en{*this, "rd_en"};
  Bus rd_data{*this, "rd_data", 8};
  Bit empty{*this, "empty"};
  Bus wcnt{*this, "wcnt", 16};
  Bus acnt{*this, "acnt", 16};

  EdgeCounter wc{this, "wc", wcnt};
  EdgeCounter ac{this, "ac", acnt};
  devices::AsyncFifo fifo;

  TxTop()
      : Module(nullptr, "tx"),
        fifo(this, "fifo", {.width = 8, .depth = 4, .strict = true},
             {wr_en, wr_data, full, rd_en, rd_data, empty}, &wr_dom,
             &rd_dom) {
    set_clock_domain(&wr_dom);
    ac.set_clock_domain(&aux_dom);
  }
  void declare_state() override { declare_seq_state(); }
};

struct Observed {
  std::uint64_t cycle = 0, tick = 0;
  std::uint64_t edges = 0, act_skips = 0, seq_touches = 0, steps = 0;
  std::vector<std::uint64_t> domain_edges;
  Word wcnt = 0, acnt = 0;
  int fifo_size = 0;

  static Observed of(const Simulator& sim, const TxTop& d) {
    const auto& s = sim.stats();
    return Observed{sim.cycle(),       sim.now(),     s.edges,
                    s.act_skips,       s.seq_touches, s.steps,
                    s.domain_edges,    d.wcnt.read(), d.acnt.read(),
                    d.fifo.size()};
  }
  friend bool operator==(const Observed& a, const Observed& b) = default;
};

/// The headline regression: an underflow aborts a 3-domain event as a
/// no-op, and the completed run is indistinguishable from one where
/// the illegal read was never attempted.
void expect_interrupted_run_equals_clean_run(bool full_sweep) {
  SCOPED_TRACE(std::string("full_sweep=") + (full_sweep ? "1" : "0"));
  constexpr int kSteps = 12;

  // Clean run: rd_en stays deasserted throughout.
  TxTop clean;
  Simulator ref(clean, {.full_sweep = full_sweep});
  ref.reset();
  ref.step(kSteps);
  const Observed want = Observed::of(ref, clean);

  // Interrupted run: rd_en is asserted from reset, so the first
  // read-domain edge (tick 3 — which is also a write-domain edge, and
  // the write domain is ordered first in the event) underflows.
  TxTop d;
  Simulator sim(d, {.full_sweep = full_sweep});
  sim.reset();
  d.rd_en.write(true);
  int caught = 0;
  int done = 0;
  while (done < kSteps) {
    try {
      sim.step();
      ++done;
    } catch (const ProtocolError& e) {
      ++caught;
      ASSERT_LE(caught, 1) << e.what();
      EXPECT_NE(std::string(e.what()).find("read while empty"),
                std::string::npos)
          << e.what();
      // The aborted event must be a perfect no-op: the write-domain
      // counter did not advance even though its domain fired first in
      // the aborted event, nothing is half-counted, time stands still.
      const Observed after = Observed::of(sim, d);
      EXPECT_EQ(after.cycle, 2u);
      EXPECT_EQ(after.tick, 2u);
      EXPECT_EQ(after.wcnt, 2u);  // ticks 1 and 2 only
      EXPECT_EQ(after.edges, 2u);
      EXPECT_EQ(after.fifo_size, 0);
      // Withdraw the illegal read and retry the same tick.
      d.rd_en.write(false);
    }
  }
  EXPECT_EQ(caught, 1);
  EXPECT_EQ(Observed::of(sim, d), want);
}

TEST(EdgeTransaction, InterruptedThreeDomainRunMatchesCleanRun) {
  expect_interrupted_run_equals_clean_run(false);
}

TEST(EdgeTransaction, InterruptedRunMatchesCleanRunUnderFullSweep) {
  expect_interrupted_run_equals_clean_run(true);
}

TEST(EdgeTransaction, ResetAfterAbortedEventClearsSchedulerState) {
  TxTop d;
  Simulator sim(d);
  sim.reset();
  d.rd_en.write(true);
  EXPECT_THROW(sim.step(3), ProtocolError);
  // reset() must clear firing_ (stale indices from the unwound event)
  // and the pending list; a fresh run must then be byte-equal in
  // counters to a never-threw fresh run.
  sim.reset();
  for (std::size_t i = 0; i < sim.domain_count(); ++i)
    EXPECT_FALSE(sim.last_event_fired(i)) << i;
  sim.reset_stats();
  d.rd_en.write(false);
  sim.step(12);
  TxTop clean;
  Simulator ref(clean);
  ref.reset();
  ref.step(12);
  EXPECT_EQ(Observed::of(sim, d), Observed::of(ref, clean));
}

/// Single-domain, sync FifoCore: the strict pre-check aborts the event
/// before the FIFO (or anything else) mutated, under both kernels.
void expect_sync_fifo_transactional(bool full_sweep) {
  SCOPED_TRACE(std::string("full_sweep=") + (full_sweep ? "1" : "0"));
  struct FifoTop : Module {
    Bit wr_en{*this, "wr_en"};
    Bus wr_data{*this, "wr_data", 8};
    Bit rd_en{*this, "rd_en"};
    Bus rd_data{*this, "rd_data", 8};
    Bit empty{*this, "empty"};
    Bit full{*this, "full"};
    Bus level{*this, "level", 8};
    Bus cnt{*this, "cnt", 16};
    EdgeCounter c{this, "c", cnt};
    devices::FifoCore fifo{this,
                           "fifo",
                           {.width = 8, .depth = 2, .strict = true},
                           {wr_en, wr_data, rd_en, rd_data, empty, full,
                            level}};
    FifoTop() : Module(nullptr, "ftop") {}
    void declare_state() override { declare_seq_state(); }
  } d;
  Simulator sim(d, {.full_sweep = full_sweep});
  sim.reset();
  // Fill the depth-2 FIFO.
  d.wr_en.write(true);
  d.wr_data.write(0x5a);
  sim.step(2);
  ASSERT_EQ(d.fifo.size(), 2);
  const auto cnt_before = d.cnt.read();
  const auto edges_before = sim.stats().edges;
  // Overflow attempt: aborts before the edge counter advanced.
  try {
    sim.step();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("write while full"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(d.fifo.size(), 2);
  EXPECT_EQ(d.cnt.read(), cnt_before);
  EXPECT_EQ(sim.stats().edges, edges_before);
  EXPECT_EQ(sim.cycle(), 2u);
  // Retried tick with simultaneous read+write: legal (the read frees
  // the slot), and the counter advances exactly once.
  d.rd_en.write(true);
  sim.step();
  EXPECT_EQ(d.fifo.size(), 2);
  EXPECT_EQ(d.cnt.read(), cnt_before + 1);
  EXPECT_EQ(sim.cycle(), 3u);
}

TEST(EdgeTransaction, SyncFifoOverflowAbortsEventInEventKernel) {
  expect_sync_fifo_transactional(false);
}

TEST(EdgeTransaction, SyncFifoOverflowAbortsEventInFullSweep) {
  expect_sync_fifo_transactional(true);
}

/// A sequential-state contract violation (caught mid-event, after the
/// offending on_clock() ran) cannot undo C++-side state — but its
/// pending writes must be drained, never committed by a later settle.
TEST(EdgeTransaction, ContractViolationWritesNeverLeakIntoNextSettle) {
  struct Violator : Module {
    Bus& out;
    Violator(Module* parent, Bus& o) : Module(parent, "bad"), out(o) {}
    void on_clock() override { out.write(0xEE); }
    // Declares state but does NOT register `out`: the runtime check
    // must flag the write.
    void declare_state() override { declare_seq_state(); }
  };
  struct Top : Module {
    Bus leaked{*this, "leaked", 8};
    Violator v{this, leaked};
    Top() : Module(nullptr, "vtop") {}
    void declare_state() override { declare_seq_state(); }
  } d;
  Simulator sim(d);  // check_seq_contract defaults on
  sim.reset();
  EXPECT_THROW(sim.step(), ProtocolError);
  EXPECT_EQ(sim.stats().edges, 0u);
  // The leaked write must have been rolled back, not left pending: an
  // explicit settle must not commit it.
  sim.settle();
  EXPECT_EQ(d.leaked.read(), 0u);
  EXPECT_EQ(sim.now(), 0u);
}

/// The same contract check on a two-domain design.  Domain b's
/// activation list runs an opaque module that writes a signal owned by
/// the domain-a top and then a declared module, all onto the one
/// pending list, so a mark left stale after the opaque call would blame
/// the declared module for the opaque write.
TEST(EdgeTransaction, MultiPartitionContractBlamesOnlyTheDeclaredWriter) {
  struct OpaqueWriter : Module {  // no declaration: may write anything
    Bus& out;
    OpaqueWriter(Module* parent, Bus& o) : Module(parent, "opaque"), out(o) {}
    void on_clock() override { out.write(out.read() + 1); }
  };
  struct ArmedWriter : Module {
    Bus& reg;
    Bus& stray;
    const bool& armed;
    ArmedWriter(Module* parent, Bus& r, Bus& s, const bool& arm)
        : Module(parent, "decl"), reg(r), stray(s), armed(arm) {}
    void on_clock() override {
      reg.write(reg.read() + 1);
      if (armed) stray.write(stray.read() + 1);  // not registered
    }
    void declare_state() override { register_seq(reg); }
  };
  struct Top : Module {
    ClockDomain da{"da", 1};
    ClockDomain db{"db", 1};
    bool armed = false;
    // Owned by the domain-a top: unregistered ones have affinity a.
    Bus ca{*this, "ca", 16};
    Bus shared{*this, "shared", 16};
    Bus stray{*this, "stray", 16};
    Bus reg{*this, "reg", 16};
    EdgeCounter wa{this, "wa", ca};
    OpaqueWriter ow{this, shared};
    ArmedWriter dw{this, reg, stray, armed};
    Top() : Module(nullptr, "ctop") {
      set_clock_domain(&da);
      ow.set_clock_domain(&db);
      dw.set_clock_domain(&db);
    }
    void declare_state() override { declare_comb_only(); }
  } d;
  Simulator sim(d);  // check_seq_contract defaults on
  ASSERT_EQ(sim.domain_count(), 2u);
  ASSERT_EQ(d.shared.partition(), 0);
  ASSERT_EQ(d.stray.partition(), 0);
  ASSERT_EQ(d.reg.partition(), 1);
  sim.reset();
  EXPECT_NO_THROW(sim.step(20));
  ASSERT_EQ(d.shared.read(), 20u);
  ASSERT_EQ(d.reg.read(), 20u);

  const std::uint64_t edges = sim.stats().edges;
  d.armed = true;
  try {
    sim.step();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'ctop.decl'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'ctop.stray'"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("opaque"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("shared"), std::string::npos) << msg;
  }
  EXPECT_EQ(sim.stats().edges, edges);
  sim.settle();
  EXPECT_EQ(d.stray.read(), 0u);
  EXPECT_EQ(d.shared.read(), 20u);
  EXPECT_EQ(d.reg.read(), 20u);
}

/// A throw from eval_comb() mid-settle leaves partially evaluated state
/// behind; after the documented reset() recovery, stepping on has to
/// match a run that never threw exactly — no stale worklist entry or
/// pending write may survive the reset.
TEST(EdgeTransaction, ResetAfterEvalThrowMatchesRunThatNeverThrew) {
  struct Inc : Module {  // comb: out = a + 1, may be armed to throw
    const Bus& a;
    Bus& out;
    const bool& armed;
    Inc(Module* p, std::string n, const Bus& ia, Bus& o, const bool& arm)
        : Module(p, std::move(n)), a(ia), out(o), armed(arm) {}
    void eval_comb() override {
      if (armed) throw Error("armed eval bomb");
      out.write(a.read() + 1);
    }
    void declare_state() override { declare_comb_only(); }
  };
  struct Top : Module {
    ClockDomain da{"da", 1};
    ClockDomain db{"db", 1};
    bool armed = false;
    const bool never = false;
    Bus ca{*this, "ca", 16};
    Bus cb{*this, "cb", 16};
    Bus a1{*this, "a1", 16}, a2{*this, "a2", 16}, a3{*this, "a3", 16};
    Bus b1{*this, "b1", 16}, b2{*this, "b2", 16};
    EdgeCounter wa{this, "wa", ca};  // activity source, domain a
    EdgeCounter wb{this, "wb", cb};  // activity source, domain b
    Inc ia1{this, "ia1", ca, a1, never};
    Inc ia2{this, "ia2", a1, a2, never};
    Inc ia3{this, "ia3", a2, a3, never};
    Inc ib1{this, "ib1", cb, b1, never};
    // The bomb sits in domain b's chain, so the throw abandons a delta
    // in which domain a's chain has work too.
    Inc ib2{this, "ib2", b1, b2, armed};
    Top() : Module(nullptr, "bombtop") {
      set_clock_domain(&da);
      wb.set_clock_domain(&db);
      ib1.set_clock_domain(&db);
      ib2.set_clock_domain(&db);
    }
    void declare_state() override { declare_seq_state(); }
  };
  auto scenario = [](bool bomb) {
    Top d;
    Simulator sim(d);
    sim.reset();
    sim.step(3);  // both domains fire every tick: both chains dirty
    if (bomb) {
      d.armed = true;
      EXPECT_THROW(sim.step(), Error);
      EXPECT_TRUE(sim.needs_recovery());
      d.armed = false;
    }
    // reset_stats() BEFORE reset(): leftovers of the aborted settle
    // would be evaluated inside the reset()-settle itself, so that
    // settle must be part of the compared counters.
    sim.reset_stats();
    sim.reset();
    sim.step(5);
    return std::tuple{sim.stats().evals, sim.stats().commits,
                      d.a3.read(), d.b2.read()};
  };
  EXPECT_EQ(scenario(true), scenario(false));
}

/// Domain-filtered run(): the predicate is only evaluated after
/// events where the named domain fired, with identical results.
TEST(EdgeTransaction, DomainFilteredRunSkipsForeignEvents) {
  // Domain order follows first appearance in elaboration order: the
  // top and its counter are wrclk (0), the aux counter introduces
  // auxclk (1), the FIFO's read side introduces rdclk (2).
  TxTop d;
  Simulator sim(d);
  ASSERT_EQ(sim.domain_info(0).name, "wrclk");
  ASSERT_EQ(sim.domain_info(1).name, "auxclk");
  sim.reset();
  // Wait for the third aux edge (tick 15), a condition that only
  // changes on auxclk edges.
  std::uint64_t filtered_checks = 0;
  const rtl::RunStatus st = sim.run(
      [&] {
        ++filtered_checks;
        return d.acnt.read() >= 3;
      },
      1000, 1);
  ASSERT_TRUE(st.ok()) << sim.progress_report();
  EXPECT_EQ(d.acnt.read(), 3u);
  EXPECT_EQ(sim.now(), 15u);
  // Unfiltered reference on a fresh design: same event count consumed.
  TxTop ref;
  Simulator rsim(ref);
  rsim.reset();
  std::uint64_t unfiltered_checks = 0;
  const rtl::RunStatus rst = rsim.run(
      [&] {
        ++unfiltered_checks;
        return ref.acnt.read() >= 3;
      },
      1000);
  ASSERT_TRUE(rst.ok()) << rsim.progress_report();
  EXPECT_EQ(st.steps, rst.steps);
  EXPECT_EQ(rsim.now(), 15u);
  // The filter must have skipped the foreign-domain-only events: one
  // initial check plus one per aux edge, versus one per event plus one.
  EXPECT_EQ(filtered_checks, 1u + 3u);
  EXPECT_EQ(unfiltered_checks, rst.steps + 1u);
  // Out-of-range domain index is rejected (API misuse, not an outcome).
  EXPECT_THROW((void)sim.run([] { return true; }, 10, 99), Error);
}

}  // namespace
}  // namespace hwpat
