// Regenerates Figures 4 and 5 of the paper: the VHDL entities the
// metaprogramming backend produces for the read-buffer container over a
// FIFO device (Fig. 4) and over an external SRAM (Fig. 5), plus the
// concrete iterators for both bindings.  The generated files are also
// written under gen_vhdl/ for inspection.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "meta/codegen.hpp"

namespace {

using namespace hwpat;

void emit(const hdl::DesignUnit& u, const std::string& header) {
  std::printf("---- %s ----\n%s\n", header.c_str(),
              meta::to_vhdl(u).c_str());
  std::filesystem::create_directories("gen_vhdl");
  std::ofstream out("gen_vhdl/" + u.entity.name + ".vhd");
  out << meta::to_vhdl(u);
}

}  // namespace

int main() {
  meta::ContainerSpec fifo;
  fifo.name = "rbuffer";
  fifo.kind = core::ContainerKind::ReadBuffer;
  fifo.device = devices::DeviceKind::FifoCore;
  fifo.elem_bits = 8;
  fifo.depth = 512;

  meta::ContainerSpec sram = fifo;
  sram.device = devices::DeviceKind::Sram;
  sram.addr_bits = 16;

  emit(meta::generate_container(fifo),
       "Figure 4: read buffer over a FIFO device");
  emit(meta::generate_container(sram),
       "Figure 5: read buffer over an SRAM device (implementation-"
       "interface delta)");

  // The concrete iterators for both bindings — the wrappers that
  // "dissolve at synthesis".
  meta::IteratorSpec it_fifo{.name = "it",
                             .traversal = core::Traversal::Forward,
                             .role = core::IterRole::Input,
                             .used_ops = {},
                             .container = fifo};
  meta::IteratorSpec it_sram = it_fifo;
  it_sram.container = sram;
  emit(meta::generate_iterator(it_fifo),
       "rbuffer_fifo iterator (pure wrapper)");
  emit(meta::generate_iterator(it_sram),
       "rbuffer_sram iterator (pure wrapper)");

  // The §3.3 width-adapted variant: 24-bit pixels over an 8-bit bus.
  meta::IteratorSpec it_rgb = it_sram;
  it_rgb.container.elem_bits = 24;
  it_rgb.container.bus_bits = 8;
  emit(meta::generate_iterator(it_rgb),
       "width-adapting iterator: 24-bit pixel over 8-bit bus (3 "
       "accesses/element)");

  std::printf("generated files written to gen_vhdl/\n");
  return 0;
}
