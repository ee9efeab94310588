// Common device-level definitions: the catalogue of physical storage
// devices containers can be mapped onto (§3.4 of the paper), and their
// platform characterisation data (the paper characterised every physical
// device of the XESS XSB-300E board: access times, area, ...).
#pragma once

#include <cstddef>
#include <string>

#include "common/bits.hpp"

namespace hwpat::rtl {
class Module;
}

namespace hwpat::devices {

/// Physical storage devices available on the modelled platform.
enum class DeviceKind {
  FifoCore,       ///< on-chip FIFO macro built from block RAM
  LifoCore,       ///< on-chip LIFO (stack) macro built from block RAM
  Sram,           ///< external asynchronous static RAM (off-chip)
  BlockRam,       ///< on-chip dual-port block RAM
  LineBuffer3,    ///< special 3-line buffer delivering pixel columns
  AsyncFifoCore,  ///< dual-clock FIFO macro (gray-coded CDC pointers)
};

[[nodiscard]] std::string to_string(DeviceKind k);

/// Platform characterisation of a device binding (the design-space data
/// of §3.4): how many cycles one element access costs, and whether the
/// storage consumes on-chip block RAM.
struct DeviceTraits {
  int read_cycles = 1;   ///< cycles per element read (when not empty)
  int write_cycles = 1;  ///< cycles per element write (when not full)
  bool on_chip = true;   ///< false for external memories (no BRAM cost)
  bool random_access = false;
};

[[nodiscard]] DeviceTraits traits_of(DeviceKind k);

/// A memory device's testbench preload check, made before it writes a
/// word: throws Error naming `dev`'s path, the offset, the word count
/// and the memory size when `count` words from `offset` do not fit its
/// `size`-word memory.  The check never forms offset + count, which
/// wraps for an offset near SIZE_MAX.
void check_preload_fits(const rtl::Module& dev, std::size_t size,
                        std::size_t offset, std::size_t count);

/// A FIFO-style device's construction check on its write-data bus: it
/// stores the bus value as read, so a bus wider than the `width` bits a
/// memory word holds would store words that its own restore refuses
/// (StateReader::fixed_words()).  Throws Error naming `dev`'s path.
void check_data_bus_fits(const rtl::Module& dev, int bus_width, int width);

/// Block RAM macros needed to store `bits` on the modelled FPGA
/// (Spartan-IIE: 4 Kbit per block RAM).
[[nodiscard]] constexpr int bram_macros_for(int bits) {
  constexpr int kBramBits = 4096;
  return hwpat::ceil_div(bits, kBramBits);
}

}  // namespace hwpat::devices
