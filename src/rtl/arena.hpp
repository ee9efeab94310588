// Per-simulator arena: a chunked bump allocator that owns every byte of
// the elaborated graph's kernel-side storage — the SoA hot-state arrays,
// the CSR fanout pool, the dirty worklist, the pending-commit list and
// the per-domain activation lists (see simulator.hpp).  Allocation only
// moves a cursor; deallocation is a no-op; destruction walks the chunk
// chain and frees it whole, so tearing a simulator down costs a handful
// of free() calls no matter how large the design grew — and a fresh
// simulator (a SweepDriver job, a run_forked() branch) never pays
// per-node heap traffic to elaborate.
//
// Thread safety: none.  An arena belongs to one Simulator, and a
// Simulator runs on one thread at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace hwpat::rtl {

class Arena {
 public:
  /// `first_chunk` sizes the initial reservation; later chunks double
  /// (geometric growth keeps the chunk count logarithmic in the total).
  explicit Arena(std::size_t first_chunk = 64 * 1024)
      : next_chunk_(first_chunk) {}

  ~Arena() { release_all(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = reinterpret_cast<std::uintptr_t>(cur_);
    p = (p + (align - 1)) & ~(static_cast<std::uintptr_t>(align) - 1);
    if (p + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
      grow(bytes + align);
      p = reinterpret_cast<std::uintptr_t>(cur_);
      p = (p + (align - 1)) & ~(static_cast<std::uintptr_t>(align) - 1);
    }
    cur_ = reinterpret_cast<std::byte*>(p + bytes);
    used_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Allocates and value-initializes an array of `n` trivially
  /// destructible Ts (the SoA arrays: ints, Words, flags).
  /// Nothing is ever destroyed individually — teardown is the chunk
  /// free — hence the restriction.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena arrays are never destroyed element-wise");
    if (n == 0) return nullptr;
    T* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    std::uninitialized_value_construct_n(p, n);
    return p;
  }

  /// Bytes handed out to callers (excludes alignment slack).
  [[nodiscard]] std::size_t bytes_used() const { return used_; }
  /// Bytes reserved from the system across all chunks.
  [[nodiscard]] std::size_t bytes_reserved() const { return reserved_; }
  /// Number of chunks the teardown free walks.
  [[nodiscard]] std::size_t chunk_count() const { return chunks_; }

 private:
  struct ChunkHeader {
    ChunkHeader* next;
    std::size_t size;  ///< including this header
  };

  void grow(std::size_t at_least) {
    std::size_t want = next_chunk_;
    while (want < at_least + sizeof(ChunkHeader) + alignof(std::max_align_t))
      want *= 2;
    auto* raw = static_cast<std::byte*>(std::malloc(want));
    if (raw == nullptr) throw std::bad_alloc();
    auto* h = reinterpret_cast<ChunkHeader*>(raw);
    h->next = head_;
    h->size = want;
    head_ = h;
    cur_ = raw + sizeof(ChunkHeader);
    end_ = raw + want;
    reserved_ += want;
    ++chunks_;
    next_chunk_ = want * 2;
  }

  void release_all() {
    ChunkHeader* h = head_;
    while (h != nullptr) {
      ChunkHeader* next = h->next;
      std::free(h);
      h = next;
    }
    head_ = nullptr;
    cur_ = end_ = nullptr;
  }

  ChunkHeader* head_ = nullptr;
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t next_chunk_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
  std::size_t chunks_ = 0;
};

/// Minimal std allocator over an Arena, for the kernel's long-lived
/// containers (CSR pools, worklist, pending list, activation lists).
/// deallocate() is a no-op: a container that regrows abandons its old
/// block in the arena, bounded by the usual geometric doubling, and the
/// whole footprint dies with the arena.  Two allocators compare equal
/// iff they share the arena — all kernel containers do, which is what
/// makes their swap()s (worklist handoff per delta) well-defined.
template <typename T>
class ArenaAlloc {
 public:
  using value_type = T;

  explicit ArenaAlloc(Arena* a) : arena_(a) {}
  template <typename U>
  ArenaAlloc(const ArenaAlloc<U>& o) : arena_(o.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}

  [[nodiscard]] Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAlloc& a, const ArenaAlloc& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAlloc& a, const ArenaAlloc& b) {
    return a.arena_ != b.arena_;
  }

 private:
  Arena* arena_;
};

/// std::vector whose storage lives in a simulator's arena.
template <typename T>
using ArenaVector = std::vector<T, ArenaAlloc<T>>;

}  // namespace hwpat::rtl
