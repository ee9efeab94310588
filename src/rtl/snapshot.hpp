// Snapshot: versioned, self-describing serialization of complete
// simulator state.
//
// A snapshot captures everything the kernel needs to replay
// deterministically from the capture point: every signal's committed
// value, every module's internal C++ state (via the
// Module::save_state/load_state hooks), and the scheduler (tick,
// per-domain next edges, stats counters).  The blob is guarded by a
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
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

  /// Raw-bytes escape hatch for trivially-copyable values whose layout
  /// is process-internal (Signal<T> kOther payloads).  Not stable
  /// across compilers — signals carrying such types should be rare.
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
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

  /// n bools as one byte each (0/1), like boolean().
  void bools(const bool* p, std::size_t n) {
    std::uint8_t* dst = grow(n);
    for (std::size_t i = 0; i < n; ++i) dst[i] = p[i] ? 1 : 0;
  }

  /// Length-prefixed word vector: u64 count, then the words.
  void words(const std::vector<Word>& v) {
    u64(v.size());
    array(v.data(), v.size());
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

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder.  Every read validates the
/// remaining byte count and throws SnapshotError("snapshot: truncated
/// ...") on underrun, so corrupted blobs fail loudly instead of
/// reading junk.  Element counts are checked by division, so a
/// corrupted length near 2^64 reads as truncation, never as a wrapped
/// byte count.
class StateReader {
 public:
  StateReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  explicit StateReader(const std::vector<std::uint8_t>& bytes)
      : StateReader(bytes.data(), bytes.size()) {}

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

  bool boolean() { return u8() != 0; }
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

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    bytes(&v, sizeof v);
    return v;
  }

  /// Mirror of StateWriter::array(): n little-endian fields into p.
  template <typename T>
  void array(T* p, std::size_t n, const char* what = "integer array") {
    need(n, sizeof(T), what);
    le::load(p, data_ + pos_, n);
    pos_ += n * sizeof(T);
  }

  /// Mirror of StateWriter::bools(): any non-zero byte reads as true.
  void bools(bool* p, std::size_t n) {
    need(n, 1, "bool array");
    for (std::size_t i = 0; i < n; ++i) p[i] = data_[pos_ + i] != 0;
    pos_ += n;
  }

  /// Mirror of StateWriter::words() for a vector whose length is part
  /// of the state (a capture buffer that grows): resized to the stored
  /// count.
  void words(std::vector<Word>& out) {
    const std::uint64_t n = u64();
    need(n, sizeof(Word), "word vector");
    out.resize(static_cast<std::size_t>(n));
    array(out.data(), out.size(), "word vector");
  }

  /// Mirror of StateWriter::words() for a fixed-size memory, overwritten
  /// in place.  The stored count must equal mem.size(): a memory never
  /// changes size, so any other count means the blob was saved from a
  /// differently sized memory (which the topology hash cannot see) or
  /// was corrupted.
  void fixed_words(std::vector<Word>& mem) {
    const std::uint64_t n = u64();
    if (n != mem.size())
      throw SnapshotError("snapshot: memory holds " +
                          std::to_string(mem.size()) +
                          " word(s) but the blob stores " +
                          std::to_string(n) +
                          " — saved from a differently sized memory, or "
                          "corrupted");
    array(mem.data(), mem.size(), "memory");
  }

  [[nodiscard]] std::size_t consumed() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
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
  std::size_t pos_ = 0;
};

}  // namespace hwpat::rtl
