#pragma once
// Pass-lifetime recycling arena — the zero-allocation steady-state engine.
//
// A decode pass (and a training iteration) allocates a storm of tensors
// whose lifetimes all end by the pass boundary. The general-purpose
// allocator charges per-object costs (and p99 jitter) for a lifetime
// pattern that needs none. `Arena` is the alternative: an aligned bump
// pointer over retained slabs, plus exact-size free lists for tensor
// payloads. Allocation pops a released block of the same size or bumps;
// `reset()` reclaims everything in O(1) at the pass boundary. Slabs grow
// geometrically while the working set is being discovered (warm-up) and
// are retained across resets, so steady state performs zero heap traffic
// — the property tests/runtime/test_alloc_decode.cpp locks at 0.
//
// Recycling. A tensor payload (`Buffer`) released before the next reset
// goes onto the free list of its size (rounded to kAlign), so the arena
// holds roughly the bytes live at once rather than every byte the pass
// ever allocated. Three guards keep a block from being handed out while
// anything can still read it:
//   * Generation: every reset starts a new generation; a release from an
//     older one is ignored (its bytes were already reclaimed wholesale).
//   * Owner thread: only a release on a thread whose `Arena::current()` is
//     the block's arena recycles it. A peer dropping a payload it received
//     is a no-op, exactly as before recycling.
//   * Open scratch: while a mark() is open (a `ScratchBuffer` is alive),
//     releases are ignored, so rewind() never hands out bytes that also
//     sit on a free list.
// `ScratchBuffer` keeps the plain LIFO bump (mark/rewind) and never uses
// the free lists.
//
// Threading model: the active arena is a thread-local *context*
// (`Arena::current()`), installed by `ArenaScope` for the duration of a
// pass. Tensor and scratch constructors consult the context; code that
// must allocate long-lived state mid-pass (KV growth, optimizer slots)
// suspends it with `ArenaPause`. An Arena object itself is single-
// threaded: one owner thread allocates from it at a time. Cross-thread
// *reads* of arena-backed payloads are safe under the same fences that
// make any tensor hand-off safe; the owner must simply not reset until
// consumers are done (in this codebase, pass/iteration barriers guarantee
// that), and a payload handed to a peer is never recycled by the owner
// (the peer holds the only handle, and its release is a no-op).
//
// Debug and sanitizer builds scrub bytes as they leave a tensor's hands
// (recycled blocks, rewound scratch, reset slabs): `fill_debug_nan`
// writes a NaN pattern, so a stale read breaks a bitwise anchor, and
// under AddressSanitizer the bytes are also poisoned until handed out
// again, so a stale read aborts.
//
// Contributor rule (see core/hanayo.hpp): pass-lifetime buffers come
// from the arena — never bare `new` / `std::vector::resize` on a hot
// path. If the alloc ratchet trips, move the buffer into the arena
// rather than raising the budget.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hanayo::tensor {

/// Overwrites `bytes` at `p` with a quiet-NaN pattern in Debug and
/// sanitizer builds (a no-op in Release): the one helper for bytes that
/// must not be read before they are written again.
void fill_debug_nan(void* p, int64_t bytes);

class Arena {
 public:
  /// Payload alignment: one cache line, enough for any SIMD width we use.
  static constexpr int64_t kAlign = 64;

  /// `reserve_bytes` > 0 pre-allocates one slab of that size up front so
  /// a correctly-sized arena never grows at all (pass `sim/memory`-derived
  /// estimates here). 0 starts empty and discovers the working set during
  /// warm-up via geometric slab growth.
  explicit Arena(int64_t reserve_bytes = 0);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` (rounded up to kAlign), growing by a new slab
  /// only when every retained slab is exhausted. Never fails for
  /// reasonable sizes; throws std::bad_alloc like any allocator would.
  /// Never consults the free lists (scratch and raw users).
  void* alloc(int64_t bytes);

  /// A tensor payload: pops a released block of the same kAlign-rounded
  /// size if one is free, else bumps.
  void* acquire(int64_t bytes);

  /// Offers back a payload born in generation `gen` (see the guards in the
  /// header comment). Must only be called on the owner thread; ignored
  /// when `gen` is stale, a mark is open or the free-list table is full.
  void recycle(void* p, int64_t bytes, uint64_t gen);

  /// Identifies the current reset epoch. Drawn from a process-wide
  /// counter, so no two arenas (or epochs) ever share one.
  uint64_t generation() const { return gen_; }

  float* alloc_floats(int64_t n) {
    return static_cast<float*>(alloc(n * static_cast<int64_t>(sizeof(float))));
  }

  /// O(1) reclamation of every allocation since construction/last reset:
  /// starts a new generation and empties the free lists. Slabs are
  /// retained: after warm-up, reset + re-allocate touches the heap zero
  /// times. Callers own the proof that no consumer still reads
  /// arena-backed payloads (pass barriers provide it in this repo).
  void reset();

  /// A LIFO checkpoint for nested scratch (kernel pack panels): rewind
  /// frees everything bumped since the matching mark(). Releases are not
  /// recycled while any mark is open.
  struct Mark {
    size_t slab;
    int64_t used;
  };
  Mark mark() {
    ++open_marks_;
    return Mark{cur_, used_};
  }
  void rewind(Mark m);

  /// After warm-up a frozen arena asserts (Debug) on any further slab
  /// growth — the canary that a "steady state" still discovers new
  /// working set. Release builds grow gracefully.
  void freeze(bool on = true) { frozen_ = on; }

  /// Total bytes across retained slabs.
  int64_t reserved() const;
  /// Peak bytes bumped at once since construction (recycled blocks are
  /// reused, not re-bumped) — the number to feed back into reserve_bytes
  /// when pre-sizing.
  int64_t high_water() const { return high_water_; }
  /// Slab-growth events since construction (0 after warm-up = steady).
  int64_t grow_count() const { return grow_count_; }

  /// The calling thread's active arena context, or nullptr when
  /// allocations should go to the general-purpose heap.
  static Arena* current();

 private:
  friend class ArenaScope;
  friend class ArenaPause;

  struct Slab {
    char* raw;   // owning pointer (new char[])
    char* base;  // kAlign-aligned payload start
    int64_t cap;
  };

  /// One exact-size free list; `bytes == 0` marks an unused table entry.
  /// The link to the next free block is stored in the block itself.
  struct FreeList {
    int64_t bytes;
    void* head;
  };
  /// Distinct payload sizes recycled per generation (open addressing,
  /// power of two). A size that finds the table full is not recycled.
  static constexpr int kFreeLists = 256;

  void grow(int64_t min_bytes);
  int64_t live_bytes() const;
  FreeList* free_list(int64_t bytes, bool insert);

  std::vector<Slab> slabs_;
  size_t cur_ = 0;     // slab currently being bumped
  int64_t used_ = 0;   // bytes bumped in slabs_[cur_]
  int64_t next_cap_ = 0;
  int64_t high_water_ = 0;
  int64_t grow_count_ = 0;
  uint64_t gen_ = 0;
  int open_marks_ = 0;
  bool frozen_ = false;
  FreeList free_[kFreeLists] = {};
};

/// RAII arena context: installs `a` as the calling thread's active arena
/// and — crucially — resets it at ENTRY, not exit. Resetting at the top
/// of the next pass (rather than the bottom of the current one) means
/// arena-backed payloads stay valid through the pass barrier that
/// publishes them to other threads; the destructor only restores the
/// previous context.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& a);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
};

/// A pass-lifetime float scratch panel with a LIFO discipline: drawn from
/// the active arena under mark/rewind when one is installed, otherwise
/// backed by a caller-supplied grow-only vector (typically thread_local at
/// the use site) with geometric growth. Either way, steady state performs
/// zero heap allocations; the arena path additionally keeps pool-free
/// threads from accumulating unbounded per-thread buffers.
class ScratchBuffer {
 public:
  ScratchBuffer(int64_t n_floats, std::vector<float>& fallback);
  ~ScratchBuffer();
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  float* data() { return p_; }

 private:
  float* p_ = nullptr;
  Arena* arena_ = nullptr;
  Arena::Mark mark_{};
};

/// Suspends the active arena for allocations that must outlive the pass
/// (KV-cache growth, lazily-created optimizer state): inside the pause,
/// Tensor/scratch constructors fall back to the heap.
class ArenaPause {
 public:
  ArenaPause();
  ~ArenaPause();
  ArenaPause(const ArenaPause&) = delete;
  ArenaPause& operator=(const ArenaPause&) = delete;

 private:
  Arena* prev_;
};

}  // namespace hanayo::tensor
