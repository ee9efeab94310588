// Ablations of the design choices DESIGN.md calls out.
//
// 1. Wrapper dissolution — what Table 3 would look like if iterators
//    were *registered* components instead of renaming wrappers: each
//    iterator would pay a data register + valid bit and a cycle of
//    latency.  This quantifies exactly what the paper's "dissolved at
//    synthesis" property saves.
// 2. Dead-operation elimination — resources of generated interfaces
//    with full vs pruned method/op sets.
// 3. Arbitration policy — completion time of two containers sharing
//    one SRAM under round-robin vs fixed priority.
//
// Shape check (exit 1 on failure): registered iterators cost more FFs
// than dissolved ones, both pruned rows are smaller than the full
// ones, and each policy grants both queues once per element.
#include <cstdio>

#include "bench_util.hpp"
#include "common/text.hpp"
#include "core/iterator.hpp"
#include "core/stream_sram.hpp"
#include "core/vector.hpp"
#include "designs/design.hpp"
#include "devices/arbiter.hpp"
#include "estimate/tech.hpp"
#include "meta/codegen.hpp"
#include "rtl/simulator.hpp"

namespace {

using namespace hwpat;

// ------------------------------------------------------------------
// 1. wrapper dissolution
// ------------------------------------------------------------------

bool ablate_dissolution() {
  std::printf("ablation 1: wrapper dissolution (Table 3 deltas if "
              "iterators were registered)\n\n");
  const designs::Saa2VgaConfig f{.width = 640, .height = 480,
                                 .buffer_depth = 512,
                                 .device = devices::DeviceKind::FifoCore};
  auto d = designs::make_saa2vga_pattern(f);
  const auto base = estimate::estimate(*d);

  // A registered iterator costs: elem-wide data register + valid bit,
  // plus the handshake gate.  Two iterators in the design.
  rtl::PrimitiveTally t = estimate::collect(*d);
  constexpr int kIterators = 2, kElem = 8;
  for (int i = 0; i < kIterators; ++i) {
    t.regs(kElem + 1);
    t.lut(2);
    t.depth(2);
  }
  const auto reg =
      estimate::fold(t, estimate::uses_external_ram(*d));

  TextTable tt;
  tt.header({"iterators", "FF", "LUT", "note"});
  tt.row({"dissolved wrappers (paper)", std::to_string(base.ff),
          std::to_string(base.lut), "renaming only"});
  tt.row({"registered components", std::to_string(reg.ff),
          std::to_string(reg.lut),
          "+1 pipeline stage per iterator (adds latency too)"});
  std::printf("%s", tt.str().c_str());
  std::printf("saved by dissolution: %d FF, %d LUT (%.1f%% of the "
              "design's FFs)\n\n",
              reg.ff - base.ff, reg.lut - base.lut,
              100.0 * (reg.ff - base.ff) / base.ff);
  return reg.ff > base.ff;
}

// ------------------------------------------------------------------
// 2. dead-operation elimination
// ------------------------------------------------------------------

bool ablate_deadops() {
  std::printf("ablation 2: dead-operation elimination\n\n");

  // (a) generated container interfaces: port counts full vs pruned.
  meta::ContainerSpec full{.name = "rbuffer",
                           .kind = core::ContainerKind::ReadBuffer,
                           .device = devices::DeviceKind::FifoCore,
                           .elem_bits = 8,
                           .depth = 512,
                           .bus_bits = 0,
                           .addr_bits = 16,
                           .base_addr = 0,
                           .used_methods = {},
                           .shared_device = false};
  meta::ContainerSpec pruned = full;
  pruned.used_methods = {meta::Method::Pop};
  const auto uf = meta::generate_container(full);
  const auto up = meta::generate_container(pruned);

  // (b) vector sequential iterator datapath: all ops vs read-only.
  rtl::Module top(nullptr, "abl");
  core::RandomWires rw(top, "v", 8, 8);
  core::IterWires iw_a(top, "a", 8, 8), iw_b(top, "b", 8, 8);
  core::VectorContainer vec(&top, "vec",
                            {.elem_bits = 8, .length = 256},
                            rw.impl());
  core::VectorSeqIterator bidir(
      &top, "bidir",
      {.traversal = core::Traversal::Bidirectional,
       .role = core::IterRole::InputOutput},
      {.length = 256}, rw.client(), iw_a);
  core::VectorSeqIterator ro(
      &top, "ro",
      {.traversal = core::Traversal::Forward,
       .role = core::IterRole::Input,
       .used_ops = core::OpSet{core::Op::Read}},
      {.length = 256}, rw.client(), iw_b);
  rtl::PrimitiveTally tb2, tr;
  bidir.report(tb2);
  ro.report(tr);
  const auto rb = estimate::fold(tb2, false);
  const auto rr = estimate::fold(tr, false);

  TextTable tt;
  tt.header({"artifact", "full interface", "pruned", "saving"});
  tt.row({"rbuffer_fifo ports",
          std::to_string(uf.entity.ports.size()),
          std::to_string(up.entity.ports.size()),
          std::to_string(uf.entity.ports.size() -
                         up.entity.ports.size()) +
              " ports"});
  tt.row({"vector seq iterator LUTs", std::to_string(rb.lut),
          std::to_string(rr.lut),
          std::to_string(rb.lut - rr.lut) + " LUTs"});
  std::printf("%s\n", tt.str().c_str());
  return up.entity.ports.size() < uf.entity.ports.size() && rr.lut < rb.lut;
}

// ------------------------------------------------------------------
// 3. arbitration policy
// ------------------------------------------------------------------

struct SharedTb : rtl::Module {
  core::StreamWires qa_w, qb_w;
  core::SramMasterWires ma, mb, ms;
  core::SramStreamContainer qa, qb;
  devices::SramArbiter arb;
  devices::ExternalSram sram;
  std::size_t fed_a = 0, got_a = 0, fed_b = 0, got_b = 0, total;
  std::uint64_t done_a = 0, done_b = 0;

  SharedTb(devices::ArbPolicy pol, std::size_t n)
      : Module(nullptr, "tb"),
        qa_w(*this, "qa", 8, 16),
        qb_w(*this, "qb", 8, 16),
        ma(*this, "ma", 8, 16),
        mb(*this, "mb", 8, 16),
        ms(*this, "ms", 8, 16),
        qa(this, "qa",
           {.kind = core::ContainerKind::Queue, .elem_bits = 8,
            .capacity = 16, .base_addr = 0x000},
           qa_w.impl(), ma.master()),
        qb(this, "qb",
           {.kind = core::ContainerKind::Queue, .elem_bits = 8,
            .capacity = 16, .base_addr = 0x100},
           qb_w.impl(), mb.master()),
        arb(this, "arb", pol,
            {{&ma.req, &ma.we, &ma.addr, &ma.wdata, &ma.ack, &ma.rdata},
             {&mb.req, &mb.we, &mb.addr, &mb.wdata, &mb.ack, &mb.rdata}},
            {&ms.req, &ms.we, &ms.addr, &ms.wdata, &ms.ack, &ms.rdata}),
        sram(this, "sram",
             {.data_width = 8, .addr_width = 16},
             ms.device()),
        total(n) {}

  void eval_comb() override {
    qa_w.push.write(fed_a < total && qa_w.can_push.read());
    qa_w.push_data.write(static_cast<Word>(fed_a));
    qa_w.pop.write(got_a < total && qa_w.can_pop.read());
    qb_w.push.write(fed_b < total && qb_w.can_push.read());
    qb_w.push_data.write(static_cast<Word>(fed_b));
    qb_w.pop.write(got_b < total && qb_w.can_pop.read());
  }

  void on_clock() override {
    if (qa_w.push.read() && qa_w.can_push.read()) ++fed_a;
    if (qa_w.pop.read() && qa_w.can_pop.read()) ++got_a;
    if (qb_w.push.read() && qb_w.can_push.read()) ++fed_b;
    if (qb_w.pop.read() && qb_w.can_pop.read()) ++got_b;
  }
};

bool ablate_arbitration() {
  std::printf("ablation 3: arbitration policy under contention (two "
              "queues, one shared SRAM)\n\n");
  TextTable tt;
  tt.header({"policy", "cycles to drain both", "grants A", "grants B"});
  bool fair = true;
  for (auto pol : {devices::ArbPolicy::RoundRobin,
                   devices::ArbPolicy::FixedPriority}) {
    constexpr std::size_t kN = 256;
    SharedTb tb(pol, kN);
    rtl::Simulator sim(tb);
    sim.reset();
    if (!sim.run([&] { return tb.got_a >= kN && tb.got_b >= kN; },
                 5'000'000))
      throw Error("bench_ablation: timeout (" + sim.progress_report() + ")");
    tt.row({pol == devices::ArbPolicy::RoundRobin ? "round-robin"
                                                  : "fixed-priority",
            std::to_string(sim.cycle()),
            std::to_string(tb.arb.grant_counts()[0]),
            std::to_string(tb.arb.grant_counts()[1])});
    fair = fair && tb.arb.grant_counts()[0] == kN &&
           tb.arb.grant_counts()[1] == kN;
  }
  std::printf("%s", tt.str().c_str());
  std::printf("note: the containers are oblivious to the arbiter — the "
              "generated arbitration is protocol-transparent (§3.4).\n\n");
  return fair;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace = benchutil::take_trace_flag_or_exit(argc, argv);
  const bool dissolution = ablate_dissolution();
  const bool deadops = ablate_deadops();
  const bool arbitration = ablate_arbitration();
  const bool ok = dissolution && deadops && arbitration;
  std::printf("shape check: %s — registered iterators cost FFs, pruned "
              "interfaces are smaller, both policies serve both queues\n",
              ok ? "PASS" : "FAIL");
  if (!trace.empty()) {
    SharedTb tb(devices::ArbPolicy::RoundRobin, 256);
    const int rc = benchutil::run_traced(tb, {}, 5'000, trace);
    if (rc != 0) return rc;
  }
  return ok ? 0 : 1;
}
