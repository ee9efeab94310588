// Quickstart: the hardware Iterator pattern in ~60 lines.
//
// Builds the smallest complete pattern instance — a read buffer and a
// write buffer over FIFO cores, one concrete iterator on each, and the
// library copy algorithm between them — then streams a few words
// through it cycle-accurately.
//
//   $ ./quickstart
//
// Everything the algorithm touches is an iterator method port (inc /
// read / write of Table 2); it has no idea FIFOs are underneath, which
// is why section 3.3 of the paper can swap them for SRAMs without
// touching the model (see examples/saa2vga.cpp for that).  The ports
// an iterator's client() hands out are the buffers' own wires: the
// wrapper dissolves, as it does at synthesis.
#include <cstdio>

#include "core/algorithm.hpp"
#include "core/iterator.hpp"
#include "core/stream_core.hpp"
#include "rtl/simulator.hpp"

using namespace hwpat;

namespace {

/// The whole design: containers, iterators, algorithm, plus a tiny
/// testbench feeder/drainer driven from this module's own processes.
struct Quickstart : rtl::Module {
  core::StreamWires rb_w, wb_w;    // container method wires
  core::AlgoWires ctl;
  core::CoreStreamContainer rbuffer, wbuffer;
  core::StreamInputIterator rbuffer_it;
  core::StreamOutputIterator wbuffer_it;
  core::CopyFsm copy;

  std::vector<Word> to_send{10, 20, 30, 40, 50};
  std::size_t sent = 0;
  std::vector<Word> received;

  Quickstart()
      : Module(nullptr, "quickstart"),
        rb_w(*this, "rb", 8, 16),
        wb_w(*this, "wb", 8, 16),
        ctl(*this, "ctl"),
        rbuffer(this, "rbuffer",
                {.kind = core::ContainerKind::ReadBuffer, .elem_bits = 8,
                 .depth = 16},
                rb_w.impl()),
        wbuffer(this, "wbuffer",
                {.kind = core::ContainerKind::WriteBuffer, .elem_bits = 8,
                 .depth = 16},
                wb_w.impl()),
        rbuffer_it(this, "rbuffer_it",
                   {.traversal = core::Traversal::Forward,
                    .role = core::IterRole::Input},
                   core::ContainerKind::ReadBuffer, rb_w.consumer()),
        wbuffer_it(this, "wbuffer_it",
                   {.traversal = core::Traversal::Forward,
                    .role = core::IterRole::Output},
                   core::ContainerKind::WriteBuffer, wb_w.producer()),
        copy(this, "copy", {}, rbuffer_it.client(), wbuffer_it.client(),
             ctl.control()) {}

  void eval_comb() override {
    ctl.start.write(true);  // the paper's endless copy loop
    rb_w.push.write(sent < to_send.size() && rb_w.can_push.read());
    rb_w.push_data.write(sent < to_send.size() ? to_send[sent] : 0);
    wb_w.pop.write(wb_w.can_pop.read());
  }

  void on_clock() override {
    if (sent < to_send.size() && rb_w.can_push.read()) ++sent;
    if (wb_w.can_pop.read()) received.push_back(wb_w.front.read());
  }
};

}  // namespace

int main() {
  Quickstart top;
  rtl::Simulator sim(top);
  sim.open_vcd("quickstart.vcd");
  sim.reset();
  if (!sim.run([&] { return top.received.size() == top.to_send.size(); },
               1000))
    throw hwpat::Error("quickstart: timeout (" + sim.progress_report() +
                       ")");

  std::printf("copied %zu words through the pattern in %llu cycles:\n",
              top.received.size(),
              static_cast<unsigned long long>(sim.cycle()));
  for (std::size_t i = 0; i < top.received.size(); ++i)
    std::printf("  sent %2llu -> received %2llu\n",
                static_cast<unsigned long long>(top.to_send[i]),
                static_cast<unsigned long long>(top.received[i]));
  std::printf("waveform written to quickstart.vcd\n");
  return top.received == top.to_send ? 0 : 1;
}
