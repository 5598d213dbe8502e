#include "tensor/arena.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define HANAYO_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define HANAYO_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define HANAYO_POISON(p, n) ((void)(p), (void)(n))
#define HANAYO_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace hanayo::tensor {

namespace {

// The active arena is a per-thread context so a pass running on one
// worker never sees another worker's arena. Plain pointer: install and
// lookup are both single-thread operations.
thread_local Arena* t_current = nullptr;

// First slab when no reservation was given: big enough that the tiny
// models in tests warm up in one or two growth events, small enough not
// to matter on a laptop.
constexpr int64_t kDefaultFirstSlab = 1 << 20;  // 1 MiB

int64_t align_up(int64_t n) {
  return (n + Arena::kAlign - 1) & ~(Arena::kAlign - 1);
}

// Generations are process-wide, so a payload that outlives its arena can
// never match the generation of a later arena at the same address.
std::atomic<uint64_t> g_generation{0};

uint64_t next_generation() {
  return g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Bytes that just left a tensor's hands: NaN-filled (Debug/sanitizer) and
// poisoned (ASan) until handed out again.
void scrub(void* p, int64_t bytes) {
  if (bytes <= 0) return;
  HANAYO_UNPOISON(p, static_cast<size_t>(bytes));  // parts may be poisoned
  fill_debug_nan(p, bytes);
  HANAYO_POISON(p, static_cast<size_t>(bytes));
}

}  // namespace

void fill_debug_nan([[maybe_unused]] void* p, [[maybe_unused]] int64_t bytes) {
#if !defined(NDEBUG) || defined(HANAYO_SANITIZE_BUILD)
  constexpr uint32_t kNaN = 0x7FC0DEADu;  // quiet NaN, recognisable payload
  auto* w = static_cast<unsigned char*>(p);
  for (int64_t i = 0; i + 4 <= bytes; i += 4) std::memcpy(w + i, &kNaN, 4);
#endif
}

Arena* Arena::current() { return t_current; }

Arena::Arena(int64_t reserve_bytes) {
  // Reserve the slab directory itself up front: pushing a new slab during
  // warm-up must not make the vector reallocate mid-pass and muddy the
  // "what allocated?" picture. 32 geometric slabs cover any realistic
  // growth run.
  slabs_.reserve(32);
  gen_ = next_generation();
  next_cap_ = std::max<int64_t>(reserve_bytes, kDefaultFirstSlab);
  if (reserve_bytes > 0) grow(reserve_bytes);
  grow_count_ = 0;  // the up-front reservation is not "growth"
}

Arena::~Arena() {
  for (Slab& s : slabs_) {
    HANAYO_UNPOISON(s.raw, static_cast<size_t>(s.cap + kAlign));
    delete[] s.raw;
  }
}

void Arena::grow(int64_t min_bytes) {
  // A frozen arena growing means the steady state still discovers new
  // working set — exactly the bug class this assert exists to catch.
  assert(!frozen_ && "Arena grew after freeze(): pass working set not "
                     "covered by warm-up/reservation");
  const int64_t cap = align_up(std::max(min_bytes, next_cap_));
  next_cap_ = cap * 2;  // geometric: growth events are log-bounded
  char* raw = new char[static_cast<size_t>(cap + kAlign)];
  char* base = reinterpret_cast<char*>(
      align_up(reinterpret_cast<int64_t>(raw)));
  slabs_.push_back(Slab{raw, base, cap});
  HANAYO_POISON(base, static_cast<size_t>(cap));
  ++grow_count_;
  cur_ = slabs_.size() - 1;
  used_ = 0;
}

int64_t Arena::live_bytes() const {
  int64_t n = used_;
  for (size_t i = 0; i < cur_; ++i) n += slabs_[i].cap;
  return n;
}

void* Arena::alloc(int64_t bytes) {
  const int64_t need = align_up(std::max<int64_t>(bytes, 1));
  // Walk forward over retained slabs before growing: a reset arena
  // re-fills the same slabs in the same order, heap-free.
  while (cur_ < slabs_.size() && used_ + need > slabs_[cur_].cap) {
    ++cur_;
    used_ = 0;
  }
  if (cur_ >= slabs_.size()) grow(need);
  char* p = slabs_[cur_].base + used_;
  used_ += need;
  high_water_ = std::max(high_water_, live_bytes());
  HANAYO_UNPOISON(p, static_cast<size_t>(bytes));
  return p;
}

Arena::FreeList* Arena::free_list(int64_t bytes, bool insert) {
  // Fibonacci hash of the size in cache lines (top 8 bits), linear probing.
  static_assert(kFreeLists == 256, "the hash below yields 8 bits");
  size_t h = static_cast<size_t>(
      (static_cast<uint64_t>(bytes / kAlign) * 0x9E3779B97F4A7C15ull) >> 56);
  for (int probe = 0; probe < kFreeLists; ++probe, ++h) {
    FreeList& f = free_[h & (kFreeLists - 1)];
    if (f.bytes == bytes) return &f;
    if (f.bytes == 0) {
      if (!insert) return nullptr;
      f.bytes = bytes;
      return &f;
    }
  }
  return nullptr;
}

void* Arena::acquire(int64_t bytes) {
  const int64_t need = align_up(std::max<int64_t>(bytes, 1));
  FreeList* f = free_list(need, false);
  if (f == nullptr || f->head == nullptr) return alloc(bytes);
  void* p = f->head;
  HANAYO_UNPOISON(p, sizeof(void*));
  std::memcpy(&f->head, p, sizeof(void*));
  HANAYO_POISON(p, sizeof(void*));
  HANAYO_UNPOISON(p, static_cast<size_t>(std::max<int64_t>(bytes, 1)));
  return p;
}

void Arena::recycle(void* p, int64_t bytes, uint64_t gen) {
  if (gen != gen_ || open_marks_ > 0) return;
  const int64_t need = align_up(std::max<int64_t>(bytes, 1));
  FreeList* f = free_list(need, true);
  if (f == nullptr) return;  // table full: reclaimed at the next reset
  scrub(p, need);
  HANAYO_UNPOISON(p, sizeof(void*));
  std::memcpy(p, &f->head, sizeof(void*));
  HANAYO_POISON(p, sizeof(void*));
  f->head = p;
}

void Arena::reset() {
  for (size_t i = 0; i < slabs_.size() && i <= cur_; ++i) {
    scrub(slabs_[i].base, i < cur_ ? slabs_[i].cap : used_);
  }
  cur_ = 0;
  used_ = 0;
  gen_ = next_generation();
  std::fill(std::begin(free_), std::end(free_), FreeList{0, nullptr});
}

void Arena::rewind(Mark m) {
  assert(open_marks_ > 0 && "Arena::rewind without a matching mark()");
  assert(m.slab <= cur_ && (m.slab < cur_ || m.used <= used_));
  for (size_t i = m.slab; i <= cur_ && i < slabs_.size(); ++i) {
    const int64_t from = i == m.slab ? m.used : 0;
    scrub(slabs_[i].base + from, (i == cur_ ? used_ : slabs_[i].cap) - from);
  }
  cur_ = m.slab;
  used_ = m.used;
  --open_marks_;
}

int64_t Arena::reserved() const {
  int64_t n = 0;
  for (const Slab& s : slabs_) n += s.cap;
  return n;
}

ArenaScope::ArenaScope(Arena& a) : prev_(t_current) {
  t_current = &a;
  a.reset();  // reclaim the previous pass now that its barrier has passed
}

ArenaScope::~ArenaScope() { t_current = prev_; }

ArenaPause::ArenaPause() : prev_(t_current) { t_current = nullptr; }

ArenaPause::~ArenaPause() { t_current = prev_; }

ScratchBuffer::ScratchBuffer(int64_t n_floats, std::vector<float>& fallback) {
  if (n_floats <= 0) return;
  if (Arena* ar = t_current) {
    arena_ = ar;
    mark_ = ar->mark();
    p_ = ar->alloc_floats(n_floats);
  } else {
    if (static_cast<int64_t>(fallback.size()) < n_floats) {
      // Geometric, never exact: an exact resize would re-allocate every
      // time a decode context grows by one token.
      fallback.resize(static_cast<size_t>(std::max(
          n_floats, 2 * static_cast<int64_t>(fallback.size()))));
    }
    p_ = fallback.data();
  }
}

ScratchBuffer::~ScratchBuffer() {
  if (arena_ != nullptr) arena_->rewind(mark_);
}

}  // namespace hanayo::tensor
