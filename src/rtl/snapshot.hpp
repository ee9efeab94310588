// Snapshot: versioned, self-describing serialization of complete
// simulator state.
//
// A snapshot captures everything the kernel needs to replay
// deterministically from the capture point: every signal's committed
// value (the simulator encodes them in bulk from its dense value
// arrays: a Bus as a u64, a Bit as a byte), every module's internal C++
// state (via the Module::save_state/load_state hooks), and the
// scheduler (tick, per-domain next edges, stats counters).  The blob is guarded by a
// topology hash of the elaborated design so restoring into a
// mismatched or differently-parameterized design throws Error instead
// of silently corrupting.
//
// StateWriter/StateReader are the little-endian byte codecs the hooks
// write through.  All multi-byte integers are stored little-endian
// regardless of host order, so blobs are portable across builds of the
// same design.  StateReader throws Error on any truncated read, which
// is what turns a corrupted blob into a clean failure.
//
// The codec is bulk: on a little-endian host an integer — or a whole
// array of them, such as a device memory or a frame buffer — already
// is its own wire encoding, so it moves with one memcpy.  Only
// big-endian hosts take the per-byte shift loops.  Elaboration (the
// construction-time baseline), reset() (its reload) and snapshots all
// go through this codec, so each costs the state's size at memcpy
// speed.
//
// Blobs are version 2: a paged memory (paged_words(): an external
// SRAM's 2^addr_width words, kept in pages that exist only once
// written) stores a tag byte per page and the words of the pages that
// hold a nonzero word only, so an SRAM-bound design's two 2^16-word
// memories cost 256 tag bytes plus the pages its buffers touched, not
// 1 MiB.  The construction baseline uses the same page layout and an
// encoding of its own for flat word arrays (Encoding::kBaseline), in
// which an all-zero array stores no words at all.  Version-1 blobs,
// whose paged memories carry the flat image, still restore
// (Encoding::kBlobV1).
#pragma once

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace hwpat::rtl {

namespace le {

/// Encodes n integers as consecutive little-endian fields at dst.
template <typename T>
void store(std::uint8_t* dst, const T* src, std::size_t n) {
  static_assert(std::is_integral_v<T>);
  if (n == 0) return;  // src may be null for an empty array
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, n * sizeof(T));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<std::make_unsigned_t<T>>(src[i]);
      for (std::size_t b = 0; b < sizeof(T); ++b)
        dst[i * sizeof(T) + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

/// Decodes n little-endian fields at src into dst.
template <typename T>
void load(T* dst, const std::uint8_t* src, std::size_t n) {
  static_assert(std::is_integral_v<T>);
  if (n == 0) return;  // dst may be null for an empty array
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, n * sizeof(T));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::make_unsigned_t<T> v = 0;
      for (std::size_t b = 0; b < sizeof(T); ++b)
        v |= static_cast<std::make_unsigned_t<T>>(src[i * sizeof(T) + b])
             << (8 * b);
      dst[i] = static_cast<T>(v);
    }
  }
}

}  // namespace le

/// The OR of n words, folded in blocks of 32 (a loop compilers
/// vectorize).  Stops after the first block whose fold has a bit of
/// `stop` set, so a test for zero (the default) ends at the first set
/// bit and a width check at the first word too wide.
[[nodiscard]] inline Word or_fold(const Word* p, std::size_t n,
                                  Word stop = ~Word{0}) {
  constexpr std::size_t kBlock = 32;
  Word acc = 0;
  std::size_t i = 0;
  for (; i + kBlock <= n && (acc & stop) == 0; i += kBlock)
    for (std::size_t k = 0; k < kBlock; ++k) acc |= p[i + k];
  if ((acc & stop) != 0) return acc;
  for (; i < n; ++i) acc |= p[i];
  return acc;
}

/// A word array kept in pages of equal length, in address order: a null
/// page is absent and reads as zeros (StateWriter::paged_words()).
using WordPages = std::vector<std::unique_ptr<Word[]>>;

/// How StateWriter and StateReader lay out the two memory fields.
///
///   kBlob      blob version 2, what save_snapshot() writes.  words():
///              u64 count, then the words.  paged_words(): u64 count,
///              then per page in address order a tag byte, kWordsZero
///              for a page that reads as all zeros (nothing follows) or
///              kWordsData followed by the page's words.
///   kBaseline  the Simulator's in-memory construction baseline (written
///              at elaboration, read back by reset()); it never reaches
///              a blob.  As kBlob, but words() puts a tag byte after its
///              count and stores an all-zero array as the tag alone.
///   kBlobV1    blob version 1, read only.  As kBlob, but paged_words()
///              is the flat image: u64 count, then every word, an absent
///              page as zeros.
///
/// Every other field encodes the same way in all three.
enum class Encoding : std::uint8_t { kBlob, kBaseline, kBlobV1 };

/// Tag bytes of a page (paged_words()) and of a baseline word array.
inline constexpr std::uint8_t kWordsZero = 0;  ///< all zero, no words
inline constexpr std::uint8_t kWordsData = 1;  ///< the words follow

/// Opaque serialized simulator state.  Produced by
/// Simulator::save_snapshot(), consumed by Simulator::restore_snapshot().
/// The raw bytes are exposed so snapshots can be written to disk,
/// compared for bit-stability, or (in tests) deliberately corrupted.
class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::size_t size_bytes() const { return bytes_.size(); }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }

  friend bool operator==(const Snapshot&, const Snapshot&) = default;

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Append-only little-endian encoder for snapshot payloads.
class StateWriter {
 public:
  explicit StateWriter(Encoding enc = Encoding::kBlob) : enc_(enc) {
    HWPAT_ASSERT(enc != Encoding::kBlobV1 && "version 1 is read only");
  }

  /// Pre-sizes the buffer, so a writer whose final size is known up
  /// front never reallocates (and never re-copies a large payload).
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { le::store(grow(4), &v, 1); }
  void u64(std::uint64_t v) { le::store(grow(8), &v, 1); }

  void boolean(bool v) { u8(v ? 1 : 0); }
  void word(Word v) { u64(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(int v) { i64(v); }

  void bytes(const void* p, std::size_t n) {
    if (n == 0) return;
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  /// n integers as consecutive little-endian fields, no length prefix
  /// (the reader must know n): one append on little-endian hosts.
  template <typename T>
  void array(const T* p, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(p, n * sizeof(T));
    } else {
      le::store(grow(n * sizeof(T)), p, n);
    }
  }

  /// n one-bit values held in Words as one byte each (0/1), like
  /// boolean().
  void bits(const Word* p, std::size_t n) {
    std::uint8_t* dst = grow(n);
    for (std::size_t i = 0; i < n; ++i) dst[i] = p[i] != 0 ? 1 : 0;
  }

  /// Length-prefixed word vector: u64 count, then the words.  The
  /// baseline encoding puts a tag byte after the count and stores an
  /// all-zero vector as the tag alone.
  void words(const std::vector<Word>& v) {
    u64(v.size());
    if (enc_ == Encoding::kBaseline) {
      const bool zero = or_fold(v.data(), v.size()) == 0;
      u8(zero ? kWordsZero : kWordsData);
      if (zero) return;
    }
    array(v.data(), v.size());
  }

  /// A memory of `pages` (each `page_words` long): its word count, then
  /// per page a tag, and the words of a page that holds a nonzero word.
  /// Absent pages cost one byte each and no scan.
  void paged_words(const WordPages& pages, std::size_t page_words) {
    u64(pages.size() * page_words);
    for (const std::unique_ptr<Word[]>& p : pages) {
      if (p && or_fold(p.get(), page_words) != 0) {
        u8(kWordsData);
        array(p.get(), page_words);
      } else {
        u8(kWordsZero);
      }
    }
  }

  /// Reserves a 4-byte length slot; patch it later with patch_u32().
  [[nodiscard]] std::size_t mark_u32() {
    const std::size_t at = buf_.size();
    u32(0);
    return at;
  }

  void patch_u32(std::size_t at, std::uint32_t v) {
    le::store(buf_.data() + at, &v, 1);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  [[nodiscard]] std::vector<std::uint8_t> take() && {
    return std::move(buf_);
  }

 private:
  /// Appends n bytes (zeroed) and returns where they start.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  Encoding enc_;
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder.  Every read validates the
/// remaining byte count and throws SnapshotError("snapshot: truncated
/// ...") on underrun, so corrupted blobs fail loudly instead of
/// reading junk.  Element counts are checked by division, so a
/// corrupted length near 2^64 reads as truncation, never as a wrapped
/// byte count.  The reader must be built with the encoding the bytes
/// were written in.
class StateReader {
 public:
  StateReader(const std::uint8_t* data, std::size_t size,
              Encoding enc = Encoding::kBlob)
      : data_(data), size_(size), enc_(enc) {}

  explicit StateReader(const std::vector<std::uint8_t>& bytes,
                       Encoding enc = Encoding::kBlob)
      : StateReader(bytes.data(), bytes.size(), enc) {}

  std::uint8_t u8() {
    need(1, 1, "u8");
    return data_[pos_++];
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    array(&v, 1, "u32");
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    array(&v, 1, "u64");
    return v;
  }

  /// StateWriter::boolean() writes 0 or 1; any other byte is one no
  /// save produces, so it throws instead of reading as true.
  bool boolean() {
    const std::uint8_t b = u8();
    if (b > 1)
      throw SnapshotError("snapshot: boolean byte " + std::to_string(b) +
                          " is neither 0 nor 1 — corrupted blob");
    return b == 1;
  }
  Word word() { return u64(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  int i32() { return static_cast<int>(i64()); }

  /// i32() that must lie in [lo, hi].  Devices load every scalar that
  /// later indexes their memory (or drives their state machine) through
  /// this, checked against the construction-time config, so a corrupted
  /// blob fails here naming `field` instead of indexing out of bounds.
  int i32_in(int lo, int hi, const char* field) {
    return static_cast<int>(in_range(i64(), lo, hi, field));
  }
  /// u32() that must lie in [lo, hi] (an enum stored as its index).
  std::uint32_t u32_in(std::uint32_t lo, std::uint32_t hi,
                       const char* field) {
    return static_cast<std::uint32_t>(in_range(u32(), lo, hi, field));
  }

  void bytes(void* p, std::size_t n) {
    need(n, 1, "raw bytes");
    if (n != 0) std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n, 1, "string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// Mirror of StateWriter::array(): n little-endian fields into p.
  template <typename T>
  void array(T* p, std::size_t n, const char* what = "integer array") {
    need(n, sizeof(T), what);
    le::load(p, data_ + pos_, n);
    pos_ += n * sizeof(T);
  }

  /// Mirror of StateWriter::bits(): each byte into a Word as it is.  A
  /// byte above 1 is no bit value; the caller rejects it with the name
  /// of what it belongs to.
  void bits(Word* p, std::size_t n) {
    need(n, 1, "bit array");
    for (std::size_t i = 0; i < n; ++i) p[i] = data_[pos_ + i];
    pos_ += n;
  }

  /// Mirror of StateWriter::words() for a vector whose length is part
  /// of the state (a capture buffer that grows): resized to the stored
  /// count.  The baseline tag is read before the count is checked
  /// against the bytes left, since an elided array has no bytes.
  void words(std::vector<Word>& out) {
    const std::uint64_t n = u64();
    if (enc_ == Encoding::kBaseline && !data_tag("word-array")) {
      out.assign(static_cast<std::size_t>(n), Word{0});
      return;
    }
    need(n, sizeof(Word), "word vector");
    out.resize(static_cast<std::size_t>(n));
    array(out.data(), out.size(), "word vector");
  }

  /// Mirror of StateWriter::words() for a fixed-size memory of
  /// `width`-bit words, overwritten in place.  The stored count must
  /// equal mem.size() (memory_count()), and a stored word with a bit
  /// above `width` is one no write stores, so it throws naming the
  /// word's index.
  void fixed_words(std::vector<Word>& mem, int width) {
    memory_count(mem.size());
    if (enc_ == Encoding::kBaseline && !data_tag("word-array")) {
      std::fill(mem.begin(), mem.end(), Word{0});
      return;
    }
    (void)load_words(mem.data(), mem.size(), 0, width);
  }

  /// Mirror of StateWriter::paged_words(), with fixed_words()'s count,
  /// truncation and width checks (a word named by its address, its
  /// index in the flat image).  A page tagged all zero is dropped, and
  /// a data page is allocated if absent or overwritten in place.  No
  /// save writes a tag other than kWordsZero or kWordsData, or a data
  /// page of zeros, so either throws naming the page.  A version-1
  /// blob's flat image is read page by page, and a page whose stored
  /// words are all zero is dropped.
  void paged_words(WordPages& pages, std::size_t page_words, int width) {
    memory_count(pages.size() * page_words);
    if (enc_ == Encoding::kBlobV1) {
      need(pages.size() * page_words, sizeof(Word), "memory");
      std::unique_ptr<Word[]> spare;  // loads a page that is absent
      for (std::size_t i = 0; i < pages.size(); ++i) {
        std::unique_ptr<Word[]>& page = pages[i];
        if (!page && !spare)
          spare = std::make_unique_for_overwrite<Word[]>(page_words);
        Word* dst = page ? page.get() : spare.get();
        if (load_words(dst, page_words, i * page_words, width) == 0)
          page.reset();
        else if (!page)
          page = std::move(spare);
      }
      return;
    }
    for (std::size_t i = 0; i < pages.size(); ++i) {
      std::unique_ptr<Word[]>& page = pages[i];
      if (!data_tag("memory page", i)) {
        page.reset();
        continue;
      }
      need(page_words, sizeof(Word), "memory page");
      if (!page) page = std::make_unique_for_overwrite<Word[]>(page_words);
      if (load_words(page.get(), page_words, i * page_words, width) == 0)
        throw SnapshotError("snapshot: memory page " + std::to_string(i) +
                            " (words " + std::to_string(i * page_words) +
                            " to " + std::to_string((i + 1) * page_words - 1) +
                            ") is stored as data but holds only zeros — "
                            "corrupted blob");
    }
  }

  [[nodiscard]] std::size_t consumed() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  /// Reads a tag byte and returns whether data follows (kWordsData)
  /// or not (kWordsZero).  Any other byte throws naming `what` (and
  /// `index` when it is not npos).
  bool data_tag(const char* what, std::size_t index = std::string::npos) {
    const std::uint8_t tag = u8();
    if (tag == kWordsData) return true;
    if (tag == kWordsZero) return false;
    throw SnapshotError(
        "snapshot: " + std::string(what) +
        (index == std::string::npos ? "" : " " + std::to_string(index)) +
        " tag " + std::to_string(tag) + " is neither " +
        std::to_string(kWordsZero) + " (all zero) nor " +
        std::to_string(kWordsData) + " (data) — corrupted blob");
  }

  /// Reads n words (at addresses base, base + 1, ...) into p and
  /// returns their OR.  A word with a bit above `width` throws naming
  /// its address; one OR-fold answers both that and 'all zero?'.
  Word load_words(Word* p, std::size_t n, std::size_t base, int width) {
    array(p, n, "memory");
    const Word wide = ~mask_of(width);
    const Word acc = or_fold(p, n, wide);
    if ((acc & wide) != 0) too_wide(p, n, base, width);
    return acc;
  }

  /// Reads a fixed-size memory's stored word count, which must equal its
  /// size: a memory never changes size, so any other count means the
  /// blob was saved from a differently sized memory (which the topology
  /// hash cannot see) or was corrupted.
  void memory_count(std::size_t size) {
    const std::uint64_t n = u64();
    if (n != size)
      throw SnapshotError("snapshot: memory holds " + std::to_string(size) +
                          " word(s) but the blob stores " +
                          std::to_string(n) +
                          " — saved from a differently sized memory, or "
                          "corrupted");
  }

  /// Throws naming the first of n loaded words (at addresses base,
  /// base + 1, ...) that has a bit above `width`.
  [[noreturn]] static void too_wide(const Word* p, std::size_t n,
                                    std::size_t base, int width) {
    std::size_t k = 0;
    while (k + 1 < n && truncate(p[k], width) == p[k]) ++k;
    char hex[17];
    const auto end = std::to_chars(hex, hex + sizeof hex, p[k], 16).ptr;
    throw SnapshotError("snapshot: memory word " + std::to_string(base + k) +
                        " is " + std::to_string(width) +
                        (width == 1 ? " bit" : " bits") +
                        " wide and cannot hold the value 0x" +
                        std::string(hex, end) + " — corrupted blob");
  }

  /// Throws unless `count` elements of `elem` bytes each remain.
  void need(std::uint64_t count, std::size_t elem, const char* what) const {
    const std::size_t have = size_ - pos_;
    if (count <= have / elem) return;
    const std::string bytes =
        count <= UINT64_MAX / elem
            ? std::to_string(count * elem)
            : std::to_string(count) + " x " + std::to_string(elem);
    throw SnapshotError("snapshot: truncated blob (need " + bytes +
                        " more byte(s) for " + what + ", have " +
                        std::to_string(have) + " of " +
                        std::to_string(size_) + ")");
  }

  static std::int64_t in_range(std::int64_t v, std::int64_t lo,
                               std::int64_t hi, const char* field) {
    if (v >= lo && v <= hi) return v;
    throw SnapshotError("snapshot: " + std::string(field) + " = " +
                        std::to_string(v) + " is outside its valid range [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        "] — corrupted blob");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  Encoding enc_;
  std::size_t pos_ = 0;
};

}  // namespace hwpat::rtl
