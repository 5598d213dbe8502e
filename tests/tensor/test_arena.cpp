// Pass-lifetime arena invariants (tensor/arena.hpp).
//
// The serving hot path's zero-allocation claim rests on a handful of
// arena properties: aligned bump allocation, O(1) reset with slabs
// retained, geometric warm-up growth that stops once the working set is
// discovered, LIFO mark/rewind for nested kernel scratch, and a
// thread-local context that Tensor construction consults. Recycling adds
// exact-size free lists for tensor payloads and the three guards that keep
// a recycled block from being handed out while it can still be read
// (generation, owner thread, open scratch mark). Each is pinned here in
// isolation so a regression fails a unit test before it fails the
// end-to-end decode budget (tests/runtime/test_alloc_decode.cpp).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/scale.hpp"
#include "tensor/alloc_stats.hpp"
#include "tensor/arena.hpp"
#include "tensor/tensor.hpp"

using hanayo::tensor::AllocStats;
using hanayo::tensor::Arena;
using hanayo::tensor::ArenaPause;
using hanayo::tensor::ArenaScope;
using hanayo::tensor::ScratchBuffer;
using hanayo::tensor::Shape;
using hanayo::tensor::Tensor;

TEST(Arena, AllocationsAreCacheLineAligned) {
  Arena a;
  for (int64_t n : {1, 3, 63, 64, 65, 1000, 4096}) {
    void* p = a.alloc(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlign, 0u)
        << "size " << n;
  }
}

TEST(Arena, ResetReusesTheSameStorage) {
  Arena a;
  void* first = a.alloc(512);
  a.reset();
  // Same request after reset lands on the same bump cursor.
  EXPECT_EQ(a.alloc(512), first);
}

TEST(Arena, WarmupGrowsThenSteadyStateIsZeroAlloc) {
  Arena a;  // no reserve: working set discovered during warm-up
  const auto pass = [&] {
    ArenaScope scope(a);
    for (int i = 0; i < 16; ++i) {
      Tensor t({8, 32});
      t.zero();
    }
  };
  for (int i = 0; i < 3; ++i) pass();  // warm-up
  const int64_t grown = a.grow_count();
  const AllocStats before = hanayo::tensor::alloc_stats();
  for (int i = 0; i < 8; ++i) pass();  // steady state
  const AllocStats d = hanayo::tensor::alloc_stats() - before;
  EXPECT_EQ(d.allocs, 0) << "steady-state passes must not touch the heap";
  EXPECT_EQ(a.grow_count(), grown) << "steady-state passes must not grow";
  EXPECT_GT(a.high_water(), 0);
}

TEST(Arena, PreSizedArenaNeverGrows) {
  Arena a(int64_t{1} << 20);  // 1 MiB reserve
  ArenaScope scope(a);
  for (int i = 0; i < 32; ++i) (void)a.alloc(4096);
  EXPECT_EQ(a.grow_count(), 0);
  EXPECT_GE(a.reserved(), int64_t{1} << 20);
}

TEST(Arena, MarkRewindIsLifo) {
  Arena a;
  (void)a.alloc(128);
  const Arena::Mark m = a.mark();
  void* inner = a.alloc(256);
  a.rewind(m);
  // Rewind frees the inner allocation: the next request reuses its bytes.
  EXPECT_EQ(a.alloc(256), inner);
}

#ifdef NDEBUG
TEST(Arena, FrozenArenaGrowsGracefullyInRelease) {
  // Release builds keep working past the freeze canary (the assert is
  // Debug-only); growth is still visible in grow_count for diagnostics.
  Arena a(1024);
  a.freeze();
  (void)a.alloc(a.reserved() + 1);  // cannot fit: must grow a new slab
  EXPECT_GE(a.grow_count(), 1);
}
#else
TEST(ArenaDeathTest, FrozenArenaAssertsOnGrowthInDebug) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Arena a(1024);
  a.freeze();
  EXPECT_DEATH((void)a.alloc(a.reserved() + 1), "frozen");
}
#endif

TEST(Arena, TensorsDrawFromTheActiveArenaOnly) {
  Arena a;
  const AllocStats before_scoped = [&] {
    ArenaScope scope(a);
    Tensor warm({4, 4});  // warm-up: the arena grabs its slab
    (void)warm;
    return hanayo::tensor::alloc_stats();
  }();
  {
    ArenaScope scope(a);
    Tensor t({4, 4});
    t.zero();
    const AllocStats d = hanayo::tensor::alloc_stats() - before_scoped;
    EXPECT_EQ(d.allocs, 0) << "scoped Tensor must bump the arena, not new";
    // A pause redirects construction back to the heap (long-lived state).
    ArenaPause pause;
    Tensor heap_backed({4, 4});
    heap_backed.zero();
    const AllocStats d2 = hanayo::tensor::alloc_stats() - before_scoped;
    EXPECT_GE(d2.allocs, 1) << "paused Tensor must come from the heap";
  }
}

TEST(Arena, ScratchBufferUsesArenaUnderScopeAndFallbackOutside) {
  std::vector<float> fallback;
  {  // no active arena: fallback vector grows once, then is reused
    ScratchBuffer s(256, fallback);
    ASSERT_NE(s.data(), nullptr);
    s.data()[0] = 1.0f;
    EXPECT_GE(fallback.size(), 256u);
  }
  Arena a;
  ArenaScope scope(a);
  const int64_t fallback_cap = static_cast<int64_t>(fallback.capacity());
  {
    ScratchBuffer s(int64_t{1} << 16, fallback);
    ASSERT_NE(s.data(), nullptr);
    s.data()[0] = 2.0f;
  }
  EXPECT_EQ(static_cast<int64_t>(fallback.capacity()), fallback_cap)
      << "arena path must not grow the fallback vector";
  EXPECT_GT(a.high_water(), 0) << "scratch must have come from the arena";
}

TEST(Arena, ConcurrentArenasAreIndependent) {
  // One arena per thread (the runtime's model: each worker owns its own);
  // storms of scoped passes must neither corrupt payloads nor leak heap
  // traffic after warm-up.
  const int threads = 4;
  const int passes = hanayo_test::scaled(200);
  std::vector<std::thread> pool;
  std::vector<int> failures(static_cast<size_t>(threads), 0);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t, passes, &failures] {
      Arena a;
      for (int p = 0; p < passes; ++p) {
        ArenaScope scope(a);
        Tensor x({16, 16});
        for (int64_t i = 0; i < x.numel(); ++i) {
          x[i] = static_cast<float>(t * 1000 + p);
        }
        for (int64_t i = 0; i < x.numel(); ++i) {
          if (x[i] != static_cast<float>(t * 1000 + p)) {
            ++failures[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 0; t < threads; ++t) EXPECT_EQ(failures[static_cast<size_t>(t)], 0);
}

// ---- Recycling ----------------------------------------------------------

TEST(ArenaRecycle, ReleaseThenSameSizeAllocReusesTheBlock) {
  Arena a;
  ArenaScope scope(a);
  const float* first = nullptr;
  {
    Tensor t({8, 32});
    first = t.data();
  }
  Tensor same({32, 8});  // same payload size, different shape
  EXPECT_EQ(same.data(), first);
  Tensor other({8, 33});  // a different 64-byte-rounded size
  EXPECT_NE(other.data(), first);
}

TEST(ArenaRecycle, SizesAreRoundedToTheAlignment) {
  Arena a;
  ArenaScope scope(a);
  const float* first = nullptr;
  {
    Tensor t({16});  // 64 bytes
    first = t.data();
  }
  Tensor smaller({3});  // 12 bytes: the same 64-byte class
  EXPECT_EQ(smaller.data(), first);
}

TEST(ArenaRecycle, StaleGenerationReleaseIsIgnored) {
  Arena a;
  Tensor survivor;
  const float* old = nullptr;
  {
    ArenaScope scope(a);
    survivor = Tensor({64});
    old = survivor.data();
  }
  ArenaScope scope(a);  // reset: a new generation
  Tensor first({64});   // the bump cursor restarts at the old block
  EXPECT_EQ(first.data(), old);
  survivor = Tensor();  // releases a block of the previous generation
  Tensor next({64});
  EXPECT_NE(next.data(), old) << "a stale release must not be recycled";
  EXPECT_NE(next.data(), first.data());
}

TEST(ArenaRecycle, ReleaseUnderOpenScratchMarkIsIgnored) {
  Arena a;
  ArenaScope scope(a);
  std::vector<float> fallback;
  const float* scratch_p = nullptr;
  {
    ScratchBuffer s(256, fallback);
    scratch_p = s.data();
    Tensor t({64});  // born above the mark, released under it
    t.zero();
  }
  // The rewind returned both the scratch panel and t's bytes to the bump
  // cursor; t must not also sit on a free list, or the bytes past the
  // panel would be handed out twice.
  std::vector<Tensor> after;
  for (int i = 0; i < 6; ++i) after.emplace_back(Shape{64});
  EXPECT_EQ(after[0].data(), scratch_p) << "rewound bytes are bumped again";
  for (size_t i = 0; i < after.size(); ++i) {
    for (size_t j = i + 1; j < after.size(); ++j) {
      EXPECT_NE(after[i].data(), after[j].data()) << "handed out twice";
    }
  }
}

TEST(ArenaRecycle, ReleaseOnAnotherThreadIsIgnored) {
  Arena a;
  ArenaScope scope(a);
  Tensor t({128});
  const float* p = t.data();
  std::thread peer([moved = std::move(t)]() mutable {
    moved = Tensor();  // the peer drops the payload: must be a no-op
  });
  peer.join();
  Tensor next({128});
  EXPECT_NE(next.data(), p) << "a peer's release must not recycle";
}

TEST(ArenaRecycle, ForwardBackwardCyclesKeepHighWaterFlat) {
  Arena a;
  ArenaScope scope(a);
  // One "iteration" inside a single generation: forward caches one
  // activation per layer and micro-batch, backward frees them in reverse.
  const auto cycle = [] {
    std::vector<Tensor> cache;
    for (int layer = 0; layer < 6; ++layer) {
      Tensor tmp({16, 64});  // a temporary that dies inside the layer
      tmp.zero();
      cache.emplace_back(Shape{16, 32});
    }
    while (!cache.empty()) {
      Tensor grad({16, 32});
      grad.add_(cache.back());
      cache.pop_back();
    }
  };
  cycle();
  const int64_t first = a.high_water();
  for (int i = 0; i < 20; ++i) cycle();
  EXPECT_EQ(a.high_water(), first);
}

TEST(ArenaRecycle, ReleaseUnderArenaPauseIsIgnored) {
  Arena a;
  ArenaScope scope(a);
  Tensor t({64});
  const float* p = t.data();
  {
    ArenaPause pause;  // the owner thread, but no arena installed
    t = Tensor();
  }
  Tensor next({64});
  EXPECT_NE(next.data(), p);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ArenaDeathTest, StaleReadOfRecycledBlockAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // While the block sits on a free list, every byte is poisoned.
  EXPECT_DEATH(
      {
        Arena a;
        ArenaScope scope(a);
        const float* stale = nullptr;
        {
          Tensor t({16});
          stale = t.data();
        }
        volatile float x = stale[4];
        (void)x;
      },
      "use-after-poison");
  // Handed out again to a shorter tensor of the same size class, the bytes
  // past the new tensor's extent stay poisoned.
  EXPECT_DEATH(
      {
        Arena a;
        ArenaScope scope(a);
        const float* stale = nullptr;
        {
          Tensor t({16});
          stale = t.data();
        }
        Tensor reused({3});
        if (reused.data() != stale) std::abort();
        volatile float x = stale[8];
        (void)x;
      },
      "use-after-poison");
}
#elif !defined(NDEBUG) || defined(HANAYO_SANITIZE_BUILD)
TEST(ArenaRecycle, RecycledBlockReadsAsNaNInCheckedBuilds) {
  Arena a;
  ArenaScope scope(a);
  const float* stale = nullptr;
  {
    Tensor t({16}, 1.0f);
    stale = t.data();
  }
  // The first word holds the free-list link; the rest is the NaN fill.
  EXPECT_TRUE(std::isnan(stale[4]));
}
#endif
