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
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/iterator.hpp"
#include "core/stream_core.hpp"
#include "devices/async_fifo.hpp"
#include "devices/fifo.hpp"
#include "devices/linebuffer.hpp"
#include "rtl/clock.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"
#include "video/stream.hpp"

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

/// One-domain counterpart of TxTop: a counter and a strict sync FIFO on
/// the built-in default domain, with rd_en driven from the testbench.
struct SyncTxTop : Module {
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
  SyncTxTop() : Module(nullptr, "stx") {}
  void declare_state() override { declare_seq_state(); }
};

/// Steps `warm` events, then asserts rd_en on the empty FIFO so the
/// next event that fires the read domain underflows in its validate
/// phase.  The aborted event fires no domain and leaves now() and
/// cycle() alone; with rd_en withdrawn, the retried step() fires tick
/// `retry_tick` on exactly the domains named in `retry_fires`.
void expect_aborted_event_fires_no_domain(
    Simulator& sim, Bit& rd_en, int warm, std::uint64_t retry_tick,
    const std::set<std::string>& retry_fires) {
  SCOPED_TRACE(std::to_string(sim.domain_count()) + " domain(s)");
  sim.reset();
  sim.step(warm);
  const std::uint64_t now = sim.now();
  const std::uint64_t cycle = sim.cycle();
  ASSERT_TRUE(sim.last_event_fired(0));
  rd_en.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
  for (std::size_t i = 0; i < sim.domain_count(); ++i)
    EXPECT_FALSE(sim.last_event_fired(i)) << "domain " << i;
  EXPECT_EQ(sim.now(), now);
  EXPECT_EQ(sim.cycle(), cycle);
  rd_en.write(false);
  sim.step();
  EXPECT_EQ(sim.now(), retry_tick);
  EXPECT_EQ(sim.cycle(), cycle + 1);
  for (std::size_t i = 0; i < sim.domain_count(); ++i) {
    const std::string name = sim.domain_info(i).name;
    EXPECT_EQ(sim.last_event_fired(i), retry_fires.count(name) == 1) << name;
  }
}

TEST(EdgeTransaction, AbortedEventFiresNoDomainWhateverTheDomainCount) {
  {
    SyncTxTop d;
    Simulator sim(d);
    ASSERT_EQ(sim.domain_count(), 1u);
    expect_aborted_event_fires_no_domain(sim, d.rd_en, 4, 5, {"clk"});
    EXPECT_EQ(d.cnt.read(), 5u);
  }
  {
    // Tick 6 fires wrclk and rdclk; auxclk's next edge is tick 10.
    TxTop d;
    Simulator sim(d);
    ASSERT_EQ(sim.domain_count(), 3u);
    expect_aborted_event_fires_no_domain(sim, d.rd_en, 5, 6,
                                         {"wrclk", "rdclk"});
    EXPECT_EQ(d.wcnt.read(), 6u);
    EXPECT_EQ(d.acnt.read(), 1u);
  }
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

/// A register two modules declare: the contract check cannot name one
/// owner for it, so it scans the writer's declaration instead.  Both
/// declarers write it (taking turns, so each is the first writer on its
/// edges) without a ProtocolError; a third declared module that writes
/// it without declaring it is blamed by its path.
TEST(EdgeTransaction, RegisterDeclaredByTwoModulesChecksEachWriter) {
  struct TurnWriter : Module {  // out <= out + 1 when out % 2 == turn
    Bus& out;
    const Word turn;
    TurnWriter(Module* parent, std::string name, Bus& o, Word t)
        : Module(parent, std::move(name)), out(o), turn(t) {}
    void on_clock() override {
      if (out.read() % 2 == turn) out.write(out.read() + 1);
    }
    void declare_state() override { register_seq(out); }
  };
  struct Intruder : Module {
    Bus& own;
    Bus& shared;
    const bool& armed;
    Intruder(Module* parent, Bus& o, Bus& s, const bool& arm)
        : Module(parent, "intruder"), own(o), shared(s), armed(arm) {}
    void on_clock() override {
      own.write(own.read() + 1);
      if (armed) shared.write(shared.read() + 7);  // not registered
    }
    void declare_state() override { register_seq(own); }
  };
  struct Top : Module {
    bool armed = false;
    Bus shared{*this, "shared", 16};
    Bus own{*this, "own", 16};
    // Elaborated first, so its write is the one the pending list sees.
    Intruder intruder{this, own, shared, armed};
    TurnWriter even{this, "even", shared, 0};
    TurnWriter odd{this, "odd", shared, 1};
    Top() : Module(nullptr, "twotop") {}
    void declare_state() override { declare_comb_only(); }
  } d;
  Simulator sim(d);  // check_seq_contract defaults on
  sim.reset();
  EXPECT_NO_THROW(sim.step(12));
  ASSERT_EQ(d.shared.read(), 12u);
  ASSERT_EQ(d.own.read(), 12u);

  const std::uint64_t edges = sim.stats().edges;
  d.armed = true;
  try {
    sim.step();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'twotop.intruder'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'twotop.shared'"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("even"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("odd"), std::string::npos) << msg;
  }
  EXPECT_EQ(sim.stats().edges, edges);
  sim.settle();
  EXPECT_EQ(d.shared.read(), 12u);
  EXPECT_EQ(d.own.read(), 12u);
}

/// A register one module declares, written by another declared module:
/// the per-signal owner lookup must blame the writer, not accept the
/// write because *some* module declared the signal.
TEST(EdgeTransaction, RegisterOfAnotherModuleIsBlamedOnTheWriter) {
  struct Owner : Module {
    Bus& reg;
    Owner(Module* parent, Bus& r) : Module(parent, "owner"), reg(r) {}
    void on_clock() override { reg.write(reg.read() + 1); }
    void declare_state() override { register_seq(reg); }
  };
  struct Borrower : Module {
    Bus& reg;
    Borrower(Module* parent, Bus& r) : Module(parent, "borrower"), reg(r) {}
    void on_clock() override { reg.write(reg.read() + 2); }
    void declare_state() override { declare_seq_state(); }
  };
  struct Top : Module {
    Bus reg{*this, "reg", 16};
    // Elaborated first, so its write is the one the pending list sees.
    Borrower borrower{this, reg};
    Owner owner{this, reg};
    Top() : Module(nullptr, "borrowtop") {}
    void declare_state() override { declare_comb_only(); }
  } d;
  Simulator sim(d);
  sim.reset();
  try {
    sim.step();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'borrowtop.borrower'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'borrowtop.reg'"), std::string::npos) << msg;
  }
  EXPECT_EQ(sim.stats().edges, 0u);
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

// ---------------------------------------------------------------------
// The validate phase of every strict class: an illegal operation of the
// class aborts an edge on which strict FIFOs in its own domain and in
// another domain make legal moves, and nobody moves.
// ---------------------------------------------------------------------

/// The wires of one FifoCore, driven by the test.
struct FifoPins {
  Bit wr_en, rd_en, empty, full;
  Bus wr_data, rd_data, level;
  FifoPins(Module& owner, const std::string& p)
      : wr_en(owner, p + "_wr_en"),
        rd_en(owner, p + "_rd_en"),
        empty(owner, p + "_empty"),
        full(owner, p + "_full"),
        wr_data(owner, p + "_wr_data", 8),
        rd_data(owner, p + "_rd_data", 8),
        level(owner, p + "_level", 8) {}
  devices::FifoPorts ports() {
    return {wr_en, wr_data, rd_en, rd_data, empty, full, level};
  }
};

/// Two domains, both firing every tick.  `other` is the top's and is
/// elaborated first, so its on_clock() calls run first in an event; in
/// `own`, the FIFO is elaborated before the class under test, which a
/// derived design adds.  Each FIFO holds one element after
/// prime_fifos().
struct AtomicTop : Module {
  ClockDomain other{"other", 1};
  ClockDomain own{"own", 1};
  FifoPins po{*this, "fo"}, pw{*this, "fw"};
  devices::FifoCore f_other{this, "f_other",
                            {.width = 8, .depth = 2, .strict = true},
                            po.ports()};
  devices::FifoCore f_own{this, "f_own",
                          {.width = 8, .depth = 2, .strict = true},
                          pw.ports()};

  explicit AtomicTop(std::string name) : Module(nullptr, std::move(name)) {
    set_clock_domain(&other);
    f_own.set_clock_domain(&own);
  }
  void declare_state() override { declare_comb_only(); }

  void prime_fifos(Simulator& sim) {
    po.wr_en.write(true);
    pw.wr_en.write(true);
    sim.step();
    po.wr_en.write(false);
    pw.wr_en.write(false);
  }
  /// The legal half of the edge: both FIFOs pop their element.
  void arm_fifo_pops(bool on) {
    po.rd_en.write(on);
    pw.rd_en.write(on);
  }
};

/// The input iterator over an empty read buffer.  Elaborated before its
/// container, so its own check is the one that fires.
struct InIterTop : AtomicTop {
  core::StreamWires w{*this, "rb", 8, 8};
  core::StreamInputIterator it{this, "rbuffer_it",
                               {.traversal = core::Traversal::Forward,
                                .role = core::IterRole::Input},
                               core::ContainerKind::ReadBuffer,
                               w.consumer()};
  core::CoreStreamContainer rbuf{this, "rbuffer",
                                 {.kind = core::ContainerKind::ReadBuffer,
                                  .elem_bits = 8, .depth = 2},
                                 w.impl()};
  InIterTop() : AtomicTop("intop") {
    it.set_clock_domain(&own);
    rbuf.set_clock_domain(&own);
  }
  void prime(Simulator&, int) {}
  /// 0: a strobe the iterator does not implement; 1: advance while the
  /// buffer is empty.
  void arm_violation(int kind, bool on) {
    (kind == 0 ? it.client().write : it.client().inc).write(on);
  }
};

/// The output iterator over a depth-1 write buffer, filled by prime().
struct OutIterTop : AtomicTop {
  core::StreamWires w{*this, "wb", 8, 8};
  core::StreamOutputIterator it{this, "wbuffer_it",
                                {.traversal = core::Traversal::Forward,
                                 .role = core::IterRole::Output},
                                core::ContainerKind::WriteBuffer,
                                w.producer()};
  core::CoreStreamContainer wbuf{this, "wbuffer",
                                 {.kind = core::ContainerKind::WriteBuffer,
                                  .elem_bits = 8, .depth = 1},
                                 w.impl()};
  OutIterTop() : AtomicTop("outtop") {
    it.set_clock_domain(&own);
    wbuf.set_clock_domain(&own);
  }
  void prime(Simulator& sim, int) {
    it.client().write.write(true);
    it.client().wdata.write(0x42);
    sim.step();
    it.client().write.write(false);
  }
  /// 0: a strobe the iterator does not implement; 1: write while the
  /// buffer is full.
  void arm_violation(int kind, bool on) {
    (kind == 0 ? it.client().read : it.client().write).write(on);
  }
};

/// A 3-wide line buffer whose one-column FIFO prime() fills.
struct LineBufTop : AtomicTop {
  Bit wr_en{*this, "wr_en"}, sof{*this, "sof"}, wr_ready{*this, "wr_ready"};
  Bit rd_en{*this, "rd_en"}, col_valid{*this, "col_valid"};
  Bus wr_data{*this, "wr_data", 8}, col_data{*this, "col_data", 24};
  devices::LineBuffer3 lb{this, "lb",
                          {.pixel_width = 8, .line_width = 3,
                           .col_fifo_depth = 1, .strict = true},
                          {wr_en, wr_data, sof, wr_ready, rd_en, col_data,
                           col_valid}};
  LineBufTop() : AtomicTop("lbtop") { lb.set_clock_domain(&own); }
  /// Two lines and one pixel: one column, so the FIFO is full.  For a
  /// read violation the column is then read, so the FIFO is empty.
  void prime(Simulator& sim, int kind) {
    wr_en.write(true);
    sof.write(true);
    sim.step();
    sof.write(false);
    sim.step(6);
    wr_en.write(false);
    if (kind == 0) {
      rd_en.write(true);
      sim.step();
      rd_en.write(false);
    }
  }
  /// 0: a column read while the FIFO is empty; 1: a column pushed into
  /// the full FIFO.
  void arm_violation(int kind, bool on) {
    (kind == 0 ? rd_en : wr_en).write(on);
  }
};

/// A strict-rate VGA sink on a read buffer's consumer wires, which the
/// test drives: prime() lets it take a pixel, so it is streaming.
struct VgaSinkTop : AtomicTop {
  core::StreamWires w{*this, "rb", 8, 8};
  video::VgaSink vga{this, "vga",
                     {.width = 4, .height = 2, .strict_rate = true},
                     w.consumer()};
  VgaSinkTop() : AtomicTop("sinktop") { vga.set_clock_domain(&own); }
  void prime(Simulator& sim, int) {
    w.can_pop.write(true);
    w.front.write(0x11);
    sim.step();
  }
  /// 0: no pixel while streaming at the display rate (an underrun).
  void arm_violation(int, bool on) { w.can_pop.write(!on); }
};

/// Runs the property on a fresh `Top` and a twin under one kernel: the
/// violation aborts the edge with `expect` in the message; the state is
/// the blob saved before the step; now() and cycle() stand still; the
/// aborted step is indistinguishable, Stats and blob, from a settle()
/// on the twin (a step always settles first, and the blob carries the
/// Stats); and the retried step throws the same message.  Then the
/// withdrawn violation lets the legal pops complete.
template <typename Top>
void expect_violation_aborts_atomically(int kind, bool full_sweep,
                                        const std::string& expect) {
  Top d, twin;
  SCOPED_TRACE(d.name() + " kind " + std::to_string(kind) +
               (full_sweep ? " full_sweep" : ""));
  Simulator sim(d, {.full_sweep = full_sweep});
  Simulator ref(twin, {.full_sweep = full_sweep});
  for (auto [top, s] : {std::pair{&d, &sim}, std::pair{&twin, &ref}}) {
    s->reset();
    top->prime(*s, kind);
    top->prime_fifos(*s);
    top->arm_fifo_pops(true);
    top->arm_violation(kind, true);
    s->settle();
  }
  ASSERT_EQ(d.f_other.size(), 1);
  ASSERT_EQ(d.f_own.size(), 1);
  const rtl::Snapshot before = sim.save_snapshot();
  const std::uint64_t now = sim.now(), cycle = sim.cycle();

  std::string msg;
  try {
    sim.step();
    FAIL() << "the violation did not throw";
  } catch (const ProtocolError& e) {
    msg = e.what();
  }
  EXPECT_THAT(msg, ::testing::HasSubstr(expect));
  EXPECT_EQ(d.f_other.size(), 1) << "the other domain's FIFO popped";
  EXPECT_EQ(d.f_own.size(), 1) << "the own domain's FIFO popped";
  EXPECT_EQ(sim.now(), now);
  EXPECT_EQ(sim.cycle(), cycle);
  ref.settle();
  tb::expect_stats_eq(sim.stats(), ref.stats(), "aborted step vs settle");
  const rtl::Snapshot after = sim.save_snapshot();
  EXPECT_TRUE(after == ref.save_snapshot())
      << "the aborted step left other state than a settle";
  try {
    sim.step();
    FAIL() << "the retried step did not throw";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(std::string(e.what()), msg);
  }
  // Only the Stats header of the blob may differ from `before`: a
  // restore of it is the state before the step, and stepping on from
  // there with the violation withdrawn pops both FIFOs.
  sim.restore_snapshot(before);
  d.arm_violation(kind, false);
  EXPECT_NO_THROW(sim.step());
  EXPECT_EQ(d.f_other.size(), 0);
  EXPECT_EQ(d.f_own.size(), 0);
}

TEST(EdgeTransaction, StreamInputIteratorChecksBeforeAnyEdge) {
  for (const bool full_sweep : {false, true}) {
    expect_violation_aborts_atomically<InIterTop>(
        0, full_sweep,
        "iterator 'intop.rbuffer_it': operation 'write' strobed but not "
        "implemented");
    expect_violation_aborts_atomically<InIterTop>(
        1, full_sweep, "iterator 'intop.rbuffer_it': advance while not ready");
  }
}

TEST(EdgeTransaction, StreamOutputIteratorChecksBeforeAnyEdge) {
  for (const bool full_sweep : {false, true}) {
    expect_violation_aborts_atomically<OutIterTop>(
        0, full_sweep,
        "iterator 'outtop.wbuffer_it': operation 'read' strobed but not "
        "implemented");
    expect_violation_aborts_atomically<OutIterTop>(
        1, full_sweep, "iterator 'outtop.wbuffer_it': write while not ready");
  }
}

TEST(EdgeTransaction, LineBuffer3ChecksBeforeAnyEdge) {
  for (const bool full_sweep : {false, true}) {
    expect_violation_aborts_atomically<LineBufTop>(
        0, full_sweep, "LineBuffer3 'lbtop.lb': column read while empty");
    expect_violation_aborts_atomically<LineBufTop>(
        1, full_sweep, "LineBuffer3 'lbtop.lb': column FIFO overflow");
  }
}

TEST(EdgeTransaction, VgaSinkChecksBeforeAnyEdge) {
  for (const bool full_sweep : {false, true})
    expect_violation_aborts_atomically<VgaSinkTop>(
        0, full_sweep, "VGA sink 'sinktop.vga': pixel underrun");
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
