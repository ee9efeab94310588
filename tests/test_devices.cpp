// Unit tests of the physical device models: FIFO, LIFO, external SRAM,
// block RAM and the 3-line buffer, including protocol-violation
// failure injection and parameterised width/depth sweeps.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "devices/async_fifo.hpp"
#include "devices/bram.hpp"
#include "devices/fifo.hpp"
#include "devices/lifo.hpp"
#include "devices/linebuffer.hpp"
#include "devices/sram.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat::devices {
namespace {

using rtl::Bit;
using rtl::Bus;
using rtl::Module;
using rtl::Simulator;

// ---------------------------------------------------------------- FIFO

struct FifoTb : Module {
  Bit wr_en{*this, "wr_en"}, rd_en{*this, "rd_en"};
  Bit empty{*this, "empty"}, full{*this, "full"};
  Bus wr_data, rd_data, level;
  FifoCore fifo;

  FifoTb(FifoConfig cfg)
      : Module(nullptr, "tb"),
        wr_data(*this, "wr_data", cfg.width),
        rd_data(*this, "rd_data", cfg.width),
        level(*this, "level", 16),
        fifo(this, "fifo", cfg,
             FifoPorts{wr_en, wr_data, rd_en, rd_data, empty, full,
                       level}) {}
};

TEST(Fifo, StartsEmpty) {
  FifoTb tb({.width = 8, .depth = 4});
  Simulator sim(tb);
  sim.reset();
  EXPECT_TRUE(tb.empty.read());
  EXPECT_FALSE(tb.full.read());
  EXPECT_EQ(tb.level.read(), 0u);
}

TEST(Fifo, ShowAheadPresentsFront) {
  FifoTb tb({.width = 8, .depth = 4});
  Simulator sim(tb);
  sim.reset();
  tb.wr_data.write(0xAB);
  tb.wr_en.write(true);
  sim.step();
  tb.wr_en.write(false);
  sim.step();
  EXPECT_FALSE(tb.empty.read());
  EXPECT_EQ(tb.rd_data.read(), 0xABu);  // visible without rd_en
}

TEST(Fifo, FifoOrderPreserved) {
  FifoTb tb({.width = 8, .depth = 8});
  Simulator sim(tb);
  sim.reset();
  for (Word v : {1, 2, 3}) {
    tb.wr_data.write(v);
    tb.wr_en.write(true);
    sim.step();
  }
  tb.wr_en.write(false);
  sim.step();
  for (Word v : {1, 2, 3}) {
    EXPECT_EQ(tb.rd_data.read(), v);
    tb.rd_en.write(true);
    sim.step();
  }
  tb.rd_en.write(false);
  sim.step();
  EXPECT_TRUE(tb.empty.read());
}

TEST(Fifo, SimultaneousReadWriteKeepsLevel) {
  FifoTb tb({.width = 8, .depth = 4});
  Simulator sim(tb);
  sim.reset();
  tb.wr_data.write(7);
  tb.wr_en.write(true);
  sim.step();
  // Now read and write together every cycle.
  tb.rd_en.write(true);
  for (Word v : {10, 11, 12}) {
    tb.wr_data.write(v);
    sim.step();
    EXPECT_EQ(tb.level.read(), 1u);
  }
}

TEST(Fifo, FullBlocksAndStrictThrows) {
  FifoTb tb({.width = 8, .depth = 2});
  Simulator sim(tb);
  sim.reset();
  tb.wr_en.write(true);
  tb.wr_data.write(1);
  sim.step();
  sim.step();
  EXPECT_TRUE(tb.full.read());
  EXPECT_THROW(sim.step(), ProtocolError);  // write while full
}

TEST(Fifo, ReadWhileEmptyThrowsStrict) {
  FifoTb tb({.width = 8, .depth = 2});
  Simulator sim(tb);
  sim.reset();
  tb.rd_en.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(Fifo, NonStrictIgnoresViolations) {
  FifoTb tb({.width = 8, .depth = 2, .strict = false});
  Simulator sim(tb);
  sim.reset();
  tb.rd_en.write(true);
  sim.step();  // no throw
  EXPECT_TRUE(tb.empty.read());
}

TEST(Fifo, ReportsBramAndControl) {
  FifoTb tb({.width = 8, .depth = 512});
  rtl::PrimitiveTally t;
  tb.fifo.report(t);
  EXPECT_EQ(t.bram, 1);  // 512 x 8 = 4 Kbit
  EXPECT_GT(t.reg_bits, 0);
}

class FifoDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(FifoDepthSweep, FillDrainAtEveryDepth) {
  const int depth = GetParam();
  FifoTb tb({.width = 16, .depth = depth});
  Simulator sim(tb);
  sim.reset();
  tb.wr_en.write(true);
  for (int i = 0; i < depth; ++i) {
    tb.wr_data.write(static_cast<Word>(i * 3));
    sim.step();
  }
  tb.wr_en.write(false);
  sim.settle();
  EXPECT_TRUE(tb.full.read());
  EXPECT_EQ(tb.level.read(), static_cast<Word>(depth));
  tb.rd_en.write(true);
  for (int i = 0; i < depth; ++i) {
    EXPECT_EQ(tb.rd_data.read(), static_cast<Word>(i * 3));
    sim.step();
  }
  tb.rd_en.write(false);
  sim.settle();
  EXPECT_TRUE(tb.empty.read());
}

INSTANTIATE_TEST_SUITE_P(Depths, FifoDepthSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 64));

// ---------------------------------------------------------------- LIFO

struct LifoTb : Module {
  Bit wr_en{*this, "wr_en"}, rd_en{*this, "rd_en"};
  Bit empty{*this, "empty"}, full{*this, "full"};
  Bus wr_data, rd_data, level;
  LifoCore lifo;

  LifoTb(LifoConfig cfg)
      : Module(nullptr, "tb"),
        wr_data(*this, "wr_data", cfg.width),
        rd_data(*this, "rd_data", cfg.width),
        level(*this, "level", 16),
        lifo(this, "lifo", cfg,
             LifoPorts{wr_en, wr_data, rd_en, rd_data, empty, full,
                       level}) {}
};

TEST(Lifo, LifoOrderReversed) {
  LifoTb tb({.width = 8, .depth = 8});
  Simulator sim(tb);
  sim.reset();
  for (Word v : {1, 2, 3}) {
    tb.wr_data.write(v);
    tb.wr_en.write(true);
    sim.step();
  }
  tb.wr_en.write(false);
  sim.settle();
  for (Word v : {3, 2, 1}) {
    EXPECT_EQ(tb.rd_data.read(), v);
    tb.rd_en.write(true);
    sim.step();
    tb.rd_en.write(false);
    sim.settle();
  }
  EXPECT_TRUE(tb.empty.read());
}

TEST(Lifo, PushPopTogetherReplacesTop) {
  LifoTb tb({.width = 8, .depth = 4});
  Simulator sim(tb);
  sim.reset();
  tb.wr_en.write(true);
  tb.wr_data.write(5);
  sim.step();
  tb.wr_data.write(9);
  tb.rd_en.write(true);
  sim.step();
  tb.wr_en.write(false);
  tb.rd_en.write(false);
  sim.settle();
  EXPECT_EQ(tb.level.read(), 1u);
  EXPECT_EQ(tb.rd_data.read(), 9u);
}

TEST(Lifo, UnderflowThrowsStrict) {
  LifoTb tb({.width = 8, .depth = 4});
  Simulator sim(tb);
  sim.reset();
  tb.rd_en.write(true);
  EXPECT_THROW(sim.step(), ProtocolError);
}

// ---------------------------------------------------------------- SRAM

struct SramTb : Module {
  Bit req{*this, "req"}, we{*this, "we"}, ack{*this, "ack"};
  Bus addr, wdata, rdata;
  ExternalSram sram;

  SramTb(SramConfig cfg)
      : Module(nullptr, "tb"),
        addr(*this, "addr", cfg.addr_width),
        wdata(*this, "wdata", cfg.data_width),
        rdata(*this, "rdata", cfg.data_width),
        sram(this, "sram", cfg,
             SramPorts{req, we, addr, wdata, ack, rdata}) {}

  /// Performs one handshake access; returns cycles consumed.
  int access(rtl::Simulator& sim, bool write, Word a, Word d = 0) {
    req.write(true);
    we.write(write);
    addr.write(a);
    wdata.write(d);
    int cycles = 0;
    while (!ack.read()) {
      sim.step();
      ++cycles;
      if (cycles > 100) throw Error("SRAM handshake timeout");
    }
    req.write(false);
    we.write(false);
    sim.step();  // turnaround
    return cycles;
  }
};

TEST(Sram, WriteThenReadBack) {
  SramTb tb({.data_width = 8, .addr_width = 10, .latency = 1});
  Simulator sim(tb);
  sim.reset();
  tb.access(sim, true, 0x2A, 0x5C);
  tb.access(sim, false, 0x2A);
  EXPECT_EQ(tb.rdata.read(), 0x5Cu);
}

TEST(Sram, LatencyIsRespected) {
  SramTb tb({.data_width = 8, .addr_width = 10, .latency = 3});
  Simulator sim(tb);
  sim.reset();
  const int cycles = tb.access(sim, true, 1, 2);
  EXPECT_GE(cycles, 3);
}

TEST(Sram, PreloadAndBackdoor) {
  SramTb tb({.data_width = 8, .addr_width = 10, .latency = 1});
  Simulator sim(tb);
  sim.reset();
  tb.sram.preload(4, {11, 22, 33});
  tb.access(sim, false, 5);
  EXPECT_EQ(tb.rdata.read(), 22u);
  tb.access(sim, true, 6, 44);
  EXPECT_EQ(tb.sram.mem()[6], 44u);
}

TEST(Sram, BackToBackAccessesNeedTurnaround) {
  SramTb tb({.data_width = 8, .addr_width = 8, .latency = 1});
  Simulator sim(tb);
  sim.reset();
  tb.sram.preload(0, {7, 8});
  tb.access(sim, false, 0);
  EXPECT_EQ(tb.rdata.read(), 7u);
  tb.access(sim, false, 1);
  EXPECT_EQ(tb.rdata.read(), 8u);
}

// The address bus must fit the address space, so no access can fall
// outside the memory: the constructor refuses a wider bus, naming the
// device and both widths.
TEST(Sram, RejectsAnAddressBusWiderThanItsAddressSpace) {
  Module top(nullptr, "tb");
  Bit req(top, "req"), we(top, "we"), ack(top, "ack");
  Bus addr(top, "addr", 12), wdata(top, "wdata", 8), rdata(top, "rdata", 8);
  try {
    ExternalSram sram(&top, "sram", {.data_width = 8, .addr_width = 10},
                      SramPorts{req, we, addr, wdata, ack, rdata});
    FAIL() << "a 12-bit address bus over a 10-bit SRAM was accepted";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), ::testing::HasSubstr("'tb.sram'"));
    EXPECT_THAT(e.what(), ::testing::HasSubstr("12 bits"));
    EXPECT_THAT(e.what(), ::testing::HasSubstr("addr_width of 10"));
  }
  EXPECT_TRUE(top.children().empty());
}

/// Calls dev.preload(offset, data), which must throw Error naming the
/// device path, the offset, the word count and the memory size, and
/// leave the memory as it was.
template <typename Dev>
void expect_preload_rejected(Dev& dev, const std::string& path,
                             std::size_t offset,
                             const std::vector<Word>& data) {
  SCOPED_TRACE("offset " + std::to_string(offset));
  const std::vector<Word> before = dev.mem();
  try {
    dev.preload(offset, data);
    FAIL() << "a preload past the end of the memory was accepted";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), ::testing::HasSubstr("'" + path + "'"));
    EXPECT_THAT(e.what(), ::testing::HasSubstr(
                              "preload of " + std::to_string(data.size()) +
                              " word(s) at offset " + std::to_string(offset)));
    EXPECT_THAT(e.what(), ::testing::HasSubstr(
                              std::to_string(before.size()) + "-word memory"));
  }
  EXPECT_EQ(dev.mem(), before);
}

TEST(Sram, PreloadPastTheEndThrowsAndWritesNothing) {
  SramTb tb({.data_width = 8, .addr_width = 4});  // 16 words
  tb.sram.preload(0, {5, 6});
  // SIZE_MAX - 1 + 3 wraps to 1, which an offset + count check lets
  // through to writes before the buffer.
  expect_preload_rejected(tb.sram, "tb.sram", SIZE_MAX - 1, {1, 2, 3});
  expect_preload_rejected(tb.sram, "tb.sram", 15, {1, 2});
  expect_preload_rejected(tb.sram, "tb.sram", 17, {});
  tb.sram.preload(14, {1, 2});  // exactly up to the end fits
  EXPECT_EQ(tb.sram.mem()[15], 2u);
  tb.sram.preload(16, {});
}

TEST(Sram, ResetRestoresAPreloadMadeBeforeConstruction) {
  // The construction baseline keeps a non-zero memory's words, so a
  // preloaded image survives the run that overwrites it.
  SramTb tb({.data_width = 8, .addr_width = 6, .latency = 1});
  tb.sram.preload(3, {0x11, 0x22});
  const std::vector<Word> image = tb.sram.mem();
  Simulator sim(tb);
  sim.reset();
  tb.access(sim, true, 4, 0x99);
  tb.access(sim, true, 40, 0x77);
  ASSERT_EQ(tb.sram.mem()[4], 0x99u);
  sim.reset();
  EXPECT_EQ(tb.sram.mem(), image);
  tb.access(sim, false, 4);
  EXPECT_EQ(tb.rdata.read(), 0x22u);
}

/// Pages of `page` words in `image` that hold a nonzero word.
std::size_t nonzero_pages(const std::vector<Word>& image, std::size_t page) {
  std::size_t n = 0;
  for (std::size_t at = 0; at < image.size(); at += page)
    n += std::any_of(image.begin() + static_cast<std::ptrdiff_t>(at),
                     image.begin() + static_cast<std::ptrdiff_t>(at + page),
                     [](Word w) { return w != 0; });
  return n;
}

/// `tb.sram` holds `ref`: its image; its save in both encodings (the
/// idle state and countdown, the word count, then a tag per page and
/// the words of each page of `ref` that holds a nonzero word); and a
/// restore of that save, and of the version-1 flat image (the words()
/// of `ref`), into an SRAM whose every page is stale, which keeps only
/// the pages that hold a nonzero word.
void expect_sram_holds(SramTb& tb, const std::vector<Word>& ref,
                       std::size_t page) {
  EXPECT_EQ(tb.sram.mem(), ref);
  EXPECT_GE(tb.sram.resident_pages(), nonzero_pages(ref, page));
  rtl::StateWriter v2, v1;
  for (rtl::StateWriter* w : {&v2, &v1}) {
    w->u32(0);  // State::Idle
    w->i32(0);  // countdown
  }
  v2.u64(ref.size());
  for (const Word* p = ref.data(); p != ref.data() + ref.size(); p += page) {
    const bool zero = std::all_of(p, p + page, [](Word w) { return w == 0; });
    v2.u8(zero ? rtl::kWordsZero : rtl::kWordsData);
    if (!zero) v2.array(p, page);
  }
  v1.words(ref);
  const std::vector<std::uint8_t> paged = std::move(v2).take();
  const std::vector<std::uint8_t> flat = std::move(v1).take();
  for (const rtl::Encoding enc :
       {rtl::Encoding::kBlob, rtl::Encoding::kBaseline}) {
    SCOPED_TRACE(enc == rtl::Encoding::kBlob ? "save, blob" : "save, baseline");
    rtl::StateWriter got(enc);
    tb.sram.save_state(got);
    EXPECT_EQ(std::move(got).take(), paged);
  }
  for (const rtl::Encoding enc :
       {rtl::Encoding::kBlob, rtl::Encoding::kBlobV1}) {
    SCOPED_TRACE(enc == rtl::Encoding::kBlob ? "load, version 2"
                                             : "load, version 1");
    SramTb stale(tb.sram.config());
    stale.sram.preload(0, std::vector<Word>(ref.size(), 0xABC));
    rtl::StateReader r(enc == rtl::Encoding::kBlob ? paged : flat, enc);
    stale.sram.load_state(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(stale.sram.mem(), ref);
    EXPECT_EQ(stale.sram.resident_pages(), nonzero_pages(ref, page));
  }
}

// The paged memory against a flat reference image, below, at and above
// one 512-word page: handshake writes (zeros into absent pages too),
// reads and preloads, their addresses clustered around page boundaries
// so that preloads straddle them.
TEST(Sram, PagedMemoryMatchesAFlatReference) {
  for (const int aw : {4, 9, 10, 16}) {
    SCOPED_TRACE("addr_width " + std::to_string(aw));
    const std::size_t size = std::size_t{1} << aw;
    const std::size_t page = std::min<std::size_t>(size, 512);
    SramTb tb({.data_width = 12, .addr_width = aw, .latency = 1});
    Simulator sim(tb);
    sim.reset();
    std::vector<Word> ref(size, 0);

    // Zeros allocate nothing.
    tb.access(sim, true, size - 1, 0);
    tb.sram.preload(0, std::vector<Word>(std::min<std::size_t>(size, 3), 0));
    EXPECT_EQ(tb.sram.resident_pages(), 0u);

    std::mt19937_64 rng(static_cast<std::uint64_t>(aw));
    const auto near_boundary = [&] {
      const std::size_t edge = (rng() % (size / page + 1)) * page;
      const std::size_t a = edge + rng() % 8 - 4;
      return std::min(a, size - 1);  // a below 0 wrapped past size - 1
    };
    const auto datum = [&]() -> Word { return rng() % 3 == 0 ? 0 : rng(); };
    for (int op = 0; op < 300; ++op) {
      const std::size_t a =
          rng() % 2 == 0 ? near_boundary() : rng() % size;
      switch (rng() % 3) {
        case 0: {
          const Word d = datum();
          tb.access(sim, true, a, d);
          ref[a] = truncate(d, 12);
          break;
        }
        case 1:
          tb.access(sim, false, a);
          ASSERT_EQ(tb.rdata.read(), ref[a]) << "read of " << a;
          break;
        default: {
          std::vector<Word> data(std::min<std::size_t>(1 + rng() % 12,
                                                       size - a));
          for (Word& w : data) w = datum();
          tb.sram.preload(a, data);
          for (std::size_t i = 0; i < data.size(); ++i)
            ref[a + i] = truncate(data[i], 12);
        }
      }
    }
    ASSERT_GT(nonzero_pages(ref, page), 0u);
    expect_sram_holds(tb, ref, page);

    // Resident pages of zeros save and restore like absent ones.
    std::fill(ref.begin(), ref.end(), Word{0});
    tb.sram.preload(0, ref);
    ASSERT_GT(tb.sram.resident_pages(), 0u);
    expect_sram_holds(tb, ref, page);
  }
}

TEST(Sram, ReportsNoFpgaResources) {
  SramTb tb({.data_width = 8, .addr_width = 8});
  rtl::PrimitiveTally t;
  tb.sram.report(t);
  EXPECT_TRUE(t.empty());  // off-chip
}

// ---------------------------------------------------------------- BRAM

struct BramTb : Module {
  Bit a_en{*this, "a_en"}, a_we{*this, "a_we"}, b_en{*this, "b_en"};
  Bus a_addr, a_wdata, a_rdata, b_addr, b_rdata;
  BlockRam ram;

  BramTb(BramConfig cfg)
      : Module(nullptr, "tb"),
        a_addr(*this, "a_addr", 10),
        a_wdata(*this, "a_wdata", cfg.data_width),
        a_rdata(*this, "a_rdata", cfg.data_width),
        b_addr(*this, "b_addr", 10),
        b_rdata(*this, "b_rdata", cfg.data_width),
        ram(this, "ram", cfg,
            BramPorts{a_en, a_we, a_addr, a_wdata, a_rdata, b_en, b_addr,
                      b_rdata}) {}
};

TEST(Bram, SynchronousWriteAndRead) {
  BramTb tb({.data_width = 8, .depth = 64});
  Simulator sim(tb);
  sim.reset();
  tb.a_en.write(true);
  tb.a_we.write(true);
  tb.a_addr.write(9);
  tb.a_wdata.write(0x77);
  sim.step();
  tb.a_we.write(false);
  sim.step();  // read issued
  EXPECT_EQ(tb.a_rdata.read(), 0x77u);
}

TEST(Bram, DualPortReadsIndependently) {
  BramTb tb({.data_width = 8, .depth = 64});
  Simulator sim(tb);
  sim.reset();
  tb.ram.preload(0, {10, 20, 30});
  tb.a_en.write(true);
  tb.a_addr.write(1);
  tb.b_en.write(true);
  tb.b_addr.write(2);
  sim.step();
  EXPECT_EQ(tb.a_rdata.read(), 20u);
  EXPECT_EQ(tb.b_rdata.read(), 30u);
}

TEST(Bram, ReadFirstOnWrite) {
  BramTb tb({.data_width = 8, .depth = 16});
  Simulator sim(tb);
  sim.reset();
  tb.ram.preload(3, {0x11});
  tb.a_en.write(true);
  tb.a_we.write(true);
  tb.a_addr.write(3);
  tb.a_wdata.write(0x99);
  sim.step();
  EXPECT_EQ(tb.a_rdata.read(), 0x11u);  // old value
  EXPECT_EQ(tb.ram.mem()[3], 0x99u);    // new value stored
}

TEST(Bram, PreloadPastTheEndThrowsAndWritesNothing) {
  BramTb tb({.data_width = 8, .depth = 16});
  tb.ram.preload(0, {5, 6});
  expect_preload_rejected(tb.ram, "tb.ram", SIZE_MAX - 1, {1, 2, 3});
  expect_preload_rejected(tb.ram, "tb.ram", 15, {1, 2});
  expect_preload_rejected(tb.ram, "tb.ram", 17, {});
  tb.ram.preload(14, {1, 2});  // exactly up to the end fits
  EXPECT_EQ(tb.ram.mem()[15], 2u);
  tb.ram.preload(16, {});
}

TEST(Bram, ReportsMacroCount) {
  BramTb tb({.data_width = 8, .depth = 1024});  // 8 Kbit -> 2 macros
  rtl::PrimitiveTally t;
  tb.ram.report(t);
  EXPECT_EQ(t.bram, 2);
}

// ---------------------------------------------------------- LineBuffer

struct LbTb : Module {
  Bit wr_en{*this, "wr_en"}, sof{*this, "sof"}, wr_ready{*this, "wr_ready"};
  Bit rd_en{*this, "rd_en"}, col_valid{*this, "col_valid"};
  Bus wr_data, col_data;
  LineBuffer3 lb;

  LbTb(LineBuffer3Config cfg)
      : Module(nullptr, "tb"),
        wr_data(*this, "wr_data", cfg.pixel_width),
        col_data(*this, "col_data", 3 * cfg.pixel_width),
        lb(this, "lb", cfg,
           LineBuffer3Ports{wr_en, wr_data, sof, wr_ready, rd_en, col_data,
                            col_valid}) {}
};

TEST(LineBuffer, ColumnsMatchReference) {
  constexpr int kW = 5, kH = 4, kPix = 8;
  LbTb tb({.pixel_width = kPix, .line_width = kW, .col_fifo_depth = 8});
  Simulator sim(tb);
  sim.reset();

  // Image: pixel(x, y) = 10*y + x (distinct everywhere).
  std::vector<Word> cols;
  int fed = 0;
  const int total = kW * kH;
  while (fed < total || tb.col_valid.read()) {
    if (tb.col_valid.read()) {
      cols.push_back(tb.col_data.read());
      tb.rd_en.write(true);
    } else {
      tb.rd_en.write(false);
    }
    if (fed < total && tb.wr_ready.read()) {
      tb.sof.write(fed == 0);
      tb.wr_data.write(static_cast<Word>(10 * (fed / kW) + fed % kW));
      tb.wr_en.write(true);
      ++fed;
    } else {
      tb.wr_en.write(false);
    }
    sim.step();
  }
  tb.rd_en.write(false);
  tb.wr_en.write(false);

  // Columns appear for y = 2..H-1, x = 0..W-1.
  ASSERT_EQ(cols.size(), static_cast<std::size_t>(kW * (kH - 2)));
  std::size_t i = 0;
  for (int y = 2; y < kH; ++y) {
    for (int x = 0; x < kW; ++x, ++i) {
      const Word newest = 10 * static_cast<Word>(y) + static_cast<Word>(x);
      const Word mid = newest - 10, oldest = newest - 20;
      EXPECT_EQ(cols[i], newest | (mid << kPix) | (oldest << (2 * kPix)))
          << "column (" << x << "," << y << ")";
    }
  }
}

TEST(LineBuffer, OverflowThrowsWhenConsumerStalls) {
  LbTb tb({.pixel_width = 8, .line_width = 4, .col_fifo_depth = 2});
  Simulator sim(tb);
  sim.reset();
  tb.wr_en.write(true);
  tb.sof.write(true);
  sim.step();
  tb.sof.write(false);
  // Never read: after 2 lines + 2 pending columns the FIFO overflows.
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) sim.step();
      },
      ProtocolError);
}

TEST(LineBuffer, SofRestartsFrame) {
  constexpr int kW = 4;
  LbTb tb({.pixel_width = 8, .line_width = kW, .col_fifo_depth = 8});
  Simulator sim(tb);
  sim.reset();
  // Feed one full line, then restart with sof: no column may appear
  // until two full lines of the *new* frame have passed.
  tb.wr_en.write(true);
  tb.sof.write(true);
  tb.wr_data.write(1);
  sim.step();
  tb.sof.write(false);
  for (int i = 0; i < kW - 1; ++i) sim.step();
  // Restart.
  tb.sof.write(true);
  tb.wr_data.write(2);
  sim.step();
  tb.sof.write(false);
  for (int i = 0; i < 2 * kW - 1; ++i) {
    EXPECT_FALSE(tb.col_valid.read());
    sim.step();
  }
  sim.step();
  EXPECT_TRUE(tb.col_valid.read());
}

/// Writes two whole lines and the first pixel of the third into a
/// `w`-wide buffer whose column FIFO holds one column, so it is full.
void fill_one_column(Simulator& sim, LbTb& tb, int w) {
  tb.wr_en.write(true);
  tb.sof.write(true);
  sim.step();
  tb.sof.write(false);
  sim.step(2 * w);
  tb.wr_en.write(false);
  sim.step();
  ASSERT_TRUE(tb.col_valid.read());
  ASSERT_FALSE(tb.wr_ready.read());
}

// The strict overflow check runs before the edge, so it must count what
// the edge does first: a read on the same edge frees the slot the new
// column takes, and sof restarts the row count (no column is pushed).
TEST(LineBuffer, SameEdgeReadAndFrameRestartAreNotOverflows) {
  constexpr int kW = 3;
  LbTb tb({.pixel_width = 8, .line_width = kW, .col_fifo_depth = 1});
  Simulator sim(tb);
  sim.reset();
  fill_one_column(sim, tb, kW);
  const Word first = tb.col_data.read();
  tb.wr_en.write(true);  // pixel (1, 2): pushes a column
  tb.wr_data.write(0x77);
  tb.rd_en.write(true);  // ...while the full FIFO is read
  EXPECT_NO_THROW(sim.step());
  tb.rd_en.write(false);
  tb.sof.write(true);  // a new frame's first pixel: row 0, no column
  EXPECT_NO_THROW(sim.step());
  tb.sof.write(false);
  tb.wr_en.write(false);
  sim.step();
  EXPECT_TRUE(tb.col_valid.read());
  EXPECT_NE(tb.col_data.read(), first);
  EXPECT_EQ(tb.col_data.read() & 0xFF, 0x77u);
  // Full again, third row, no read: that is the overflow.
  tb.wr_en.write(true);
  sim.step(2 * kW - 1);  // rows 0 and 1 of the new frame
  EXPECT_THROW(sim.step(), ProtocolError);
}

TEST(LineBuffer, ReportsTwoLineMemories) {
  LbTb tb({.pixel_width = 8, .line_width = 256, .col_fifo_depth = 4});
  rtl::PrimitiveTally t;
  tb.lb.report(t);
  EXPECT_EQ(t.bram, 2);  // 2 x 2 Kbit lines, one macro each
  EXPECT_GT(t.dist_ram_bits, 0);
}

// ------------------------------------------------- Restored memory words

/// Restores `sim`'s snapshot of `top` with bit `width` set in word `k`
/// of the memory whose word count starts `mem_at` bytes into `dev`'s
/// payload.  Every write and preload stores at most `width` bits, so the
/// restore is refused naming `dev` and the word, the simulator resets,
/// and the intact blob still restores and re-saves byte for byte.
void expect_wide_word_rejected(Simulator& sim, const Module& top,
                               const Module& dev, std::size_t mem_at,
                               std::size_t k, int width) {
  SCOPED_TRACE(dev.full_name() + " word " + std::to_string(k));
  const rtl::Snapshot good = sim.save_snapshot();
  std::vector<std::uint8_t> bytes = good.bytes();
  const std::optional<std::size_t> payload =
      tb::payload_offset(top, dev, bytes.size());
  ASSERT_TRUE(payload) << "no payload in the blob";
  const std::size_t at = *payload + mem_at + 8 + 8 * k;
  ASSERT_LE(at + 8, bytes.size());
  bytes[at + static_cast<std::size_t>(width / 8)] |=
      static_cast<std::uint8_t>(1u << (width % 8));
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "a word wider than " << width << " bits was restored";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(),
                ::testing::HasSubstr("module '" + dev.full_name() + "'"));
    EXPECT_THAT(e.what(), ::testing::HasSubstr(
                              "memory word " + std::to_string(k) + " is " +
                              std::to_string(width) + " bits wide"));
    EXPECT_THAT(e.what(), ::testing::HasSubstr("reset to construction state"));
  }
  EXPECT_EQ(sim.now(), 0u);
  sim.restore_snapshot(good);
  EXPECT_EQ(sim.save_snapshot(), good);
}

// The FIFO, LIFO and async FIFO store their wr_data as read, so a bus
// wider than their words is refused at construction: its words would
// fail the restore check above.
TEST(Fifo, RejectsAWriteBusWiderThanItsWords) {
  Module top(nullptr, "tb");
  Bit wr_en(top, "wr_en"), rd_en(top, "rd_en");
  Bit empty(top, "empty"), full(top, "full");
  Bus wr_data(top, "wr_data", 9), rd_data(top, "rd_data", 8);
  Bus level(top, "level", 8);
  const auto expect_refused = [&](const std::string& path, auto build) {
    try {
      build();
      FAIL() << "a 9-bit wr_data bus over 8-bit words was accepted";
    } catch (const Error& e) {
      EXPECT_THAT(e.what(), ::testing::HasSubstr("'" + path + "'"));
      EXPECT_THAT(e.what(), ::testing::HasSubstr(
                                "wr_data bus is 9 bits wide, wider than "
                                "its 8-bit words"));
    }
  };
  expect_refused("tb.fifo", [&] {
    FifoCore f(&top, "fifo", {.width = 8, .depth = 4},
               {wr_en, wr_data, rd_en, rd_data, empty, full, level});
  });
  expect_refused("tb.lifo", [&] {
    LifoCore l(&top, "lifo", {.width = 8, .depth = 4},
               {wr_en, wr_data, rd_en, rd_data, empty, full, level});
  });
  expect_refused("tb.afifo", [&] {
    AsyncFifo a(&top, "afifo", {.width = 8, .depth = 4},
                {wr_en, wr_data, full, rd_en, rd_data, empty});
  });
  EXPECT_TRUE(top.children().empty());
}

TEST(Fifo, RestoredWordWiderThanItsWidthIsRejected) {
  FifoTb tb({.width = 8, .depth = 4});
  Simulator sim(tb);
  sim.reset();
  tb.wr_en.write(true);
  for (const Word v : {0x12, 0x34}) {
    tb.wr_data.write(v);
    sim.step();
  }
  tb.wr_en.write(false);
  sim.settle();
  // Payload: head, count, then the memory.
  expect_wide_word_rejected(sim, tb, tb.fifo, 16, 1, 8);
}

TEST(Lifo, RestoredWordWiderThanItsWidthIsRejected) {
  LifoTb tb({.width = 8, .depth = 4});
  Simulator sim(tb);
  sim.reset();
  tb.wr_en.write(true);
  tb.wr_data.write(0x56);
  sim.step();
  tb.wr_en.write(false);
  sim.settle();
  // Payload: count, then the memory.
  expect_wide_word_rejected(sim, tb, tb.lifo, 8, 0, 8);
}

TEST(Bram, RestoredWordWiderThanItsDataIsRejected) {
  BramTb tb({.data_width = 8, .depth = 16});
  Simulator sim(tb);
  sim.reset();
  tb.a_en.write(true);
  tb.a_we.write(true);
  tb.a_addr.write(3);
  tb.a_wdata.write(0x99);
  sim.step();
  tb.a_we.write(false);
  sim.settle();
  // Payload: the memory.
  expect_wide_word_rejected(sim, tb, tb.ram, 0, 3, 8);
}

TEST(AsyncFifo, RestoredWordWiderThanItsWidthIsRejected) {
  struct AsyncTb : Module {
    Bit wr_en{*this, "wr_en"}, rd_en{*this, "rd_en"};
    Bit full{*this, "full"}, empty{*this, "empty"};
    Bus wr_data{*this, "wr_data", 8}, rd_data{*this, "rd_data", 8};
    AsyncFifo fifo{this, "afifo", {.width = 8, .depth = 4},
                   {wr_en, wr_data, full, rd_en, rd_data, empty}};
    AsyncTb() : Module(nullptr, "tb") {}
  } tb;
  Simulator sim(tb);
  sim.reset();
  tb.wr_en.write(true);
  tb.wr_data.write(0x7e);
  sim.step();
  tb.wr_en.write(false);
  sim.settle();
  // The wrapper's payload: the shared memory.
  expect_wide_word_rejected(sim, tb, tb.fifo, 0, 0, 8);
}

TEST(LineBuffer, RestoredWordWiderThanItsMemoryIsRejected) {
  constexpr int kW = 4;
  LbTb tb({.pixel_width = 8, .line_width = kW, .col_fifo_depth = 4});
  Simulator sim(tb);
  sim.reset();
  tb.wr_en.write(true);
  tb.sof.write(true);
  tb.wr_data.write(0x21);
  sim.step();
  tb.sof.write(false);
  sim.step(2 * kW);
  tb.wr_en.write(false);
  sim.settle();
  ASSERT_TRUE(tb.col_valid.read());
  // Payload: two lines of 8-bit pixels, then the column queue, whose
  // words pack three pixels (24 bits).
  constexpr std::size_t kLine = 8 + 8 * kW;
  expect_wide_word_rejected(sim, tb, tb.lb, 0, 1, 8);
  expect_wide_word_rejected(sim, tb, tb.lb, kLine, 2, 8);
  expect_wide_word_rejected(sim, tb, tb.lb, 2 * kLine, 0, 24);
}

}  // namespace
}  // namespace hwpat::devices
