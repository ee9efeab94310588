#include "devices/device.hpp"

#include "common/error.hpp"
#include "rtl/module.hpp"

namespace hwpat::devices {

std::string to_string(DeviceKind k) {
  switch (k) {
    case DeviceKind::FifoCore: return "fifo";
    case DeviceKind::LifoCore: return "lifo";
    case DeviceKind::Sram: return "sram";
    case DeviceKind::BlockRam: return "bram";
    case DeviceKind::LineBuffer3: return "linebuf3";
    case DeviceKind::AsyncFifoCore: return "async_fifo";
  }
  throw InternalError("unknown DeviceKind");
}

DeviceTraits traits_of(DeviceKind k) {
  switch (k) {
    case DeviceKind::FifoCore:
      return {.read_cycles = 1, .write_cycles = 1, .on_chip = true,
              .random_access = false};
    case DeviceKind::LifoCore:
      return {.read_cycles = 1, .write_cycles = 1, .on_chip = true,
              .random_access = false};
    case DeviceKind::Sram:
      // External SRAM: request/acknowledge handshake, 2 cycles/access
      // with the default timing of the modelled board.
      return {.read_cycles = 2, .write_cycles = 2, .on_chip = false,
              .random_access = true};
    case DeviceKind::BlockRam:
      return {.read_cycles = 1, .write_cycles = 1, .on_chip = true,
              .random_access = true};
    case DeviceKind::LineBuffer3:
      return {.read_cycles = 1, .write_cycles = 1, .on_chip = true,
              .random_access = false};
    case DeviceKind::AsyncFifoCore:
      // One access per edge of the respective side's clock; the 2-flop
      // pointer synchronisers only delay flag visibility, not data.
      return {.read_cycles = 1, .write_cycles = 1, .on_chip = true,
              .random_access = false};
  }
  throw InternalError("unknown DeviceKind");
}

void check_preload_fits(const rtl::Module& dev, std::size_t size,
                        std::size_t offset, std::size_t count) {
  if (offset > size || count > size - offset)
    throw Error("'" + dev.full_name() + "': preload of " +
                std::to_string(count) + " word(s) at offset " +
                std::to_string(offset) + " does not fit its " +
                std::to_string(size) + "-word memory");
}

void check_data_bus_fits(const rtl::Module& dev, int bus_width, int width) {
  if (bus_width > width)
    throw Error("'" + dev.full_name() + "': wr_data bus is " +
                std::to_string(bus_width) + " bits wide, wider than its " +
                std::to_string(width) + "-bit words");
}

}  // namespace hwpat::devices
