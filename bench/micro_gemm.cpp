// GEMM kernel microbenchmarks: seed-naive baseline vs the blocked kernels.
//
// The `Naive*` benchmarks are verbatim copies of the seed's triple-loop
// matmuls (including their data-dependent zero-skip branches), kept here so
// the before/after speedup stays measurable in-repo after tensor/ops.cpp
// moved onto tensor/kernels.hpp. `Blocked*` runs the production kernels;
// the `/threads:N` variants measure the intra-op pool (on a single-core CI
// container they time-slice and show no speedup — run on real hardware for
// scaling numbers).
//
//   ./bench/micro_gemm --benchmark_format=json --benchmark_out=BENCH_gemm.json
//
// items_per_second is FLOP/s (2*m*n*k per multiply).

#include <benchmark/benchmark.h>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace ht = hanayo::tensor;

namespace {

// ---- seed baselines (src/tensor/ops.cpp as of the v0 seed) --------------

ht::Tensor naive_matmul(const ht::Tensor& a, const ht::Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  ht::Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

ht::Tensor naive_matmul_bt(const ht::Tensor& a, const ht::Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  ht::Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
  return c;
}

ht::Tensor naive_matmul_at(const ht::Tensor& a, const ht::Tensor& b) {
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  ht::Tensor c({m, n});
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a.data() + kk * m;
    const float* brow = b.data() + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.data() + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

void set_flops(benchmark::State& state, int64_t n) {
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

// FLOP/s plus a GF/s counter for an m x n x k product.
void set_gflops(benchmark::State& state, int64_t m, int64_t n, int64_t k) {
  const double flops = 2.0 * static_cast<double>(m * n * k);
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  state.counters["GF/s"] = benchmark::Counter(
      flops * 1e-9 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

}  // namespace

// ---- matmul -------------------------------------------------------------

static void BM_NaiveMatmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(1);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul(a, b));
  set_flops(state, n);
}
BENCHMARK(BM_NaiveMatmul)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_BlockedMatmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  ht::IntraOpScope scope(threads);
  ht::Rng rng(1);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  ht::Tensor c({n, n});
  for (auto _ : state) {
    ht::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, n);
}
// UseRealTime: with the intra-op pool the main thread's CPU time covers
// only its own chunk, which would overstate threaded throughput; wall
// clock is the honest denominator.
BENCHMARK(BM_BlockedMatmul)
    ->ArgsProduct({{128, 256, 512}, {1}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlockedMatmul)
    ->ArgsProduct({{512}, {2, 4}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- transposed variants ------------------------------------------------

static void BM_NaiveMatmulBt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(2);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul_bt(a, b));
  set_flops(state, n);
}
BENCHMARK(BM_NaiveMatmulBt)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_BlockedMatmulBt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::IntraOpScope scope(1);
  ht::Rng rng(2);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  ht::Tensor c({n, n});
  for (auto _ : state) {
    ht::matmul_bt_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, n);
}
BENCHMARK(BM_BlockedMatmulBt)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_NaiveMatmulAt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(3);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul_at(a, b));
  set_flops(state, n);
}
BENCHMARK(BM_NaiveMatmulAt)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_BlockedMatmulAt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::IntraOpScope scope(1);
  ht::Rng rng(3);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  ht::Tensor c({n, n});
  for (auto _ : state) {
    ht::matmul_at_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, n);
}
BENCHMARK(BM_BlockedMatmulAt)->Arg(512)->Unit(benchmark::kMillisecond);

// ---- A-panel packing (large-k decode shapes) ----------------------------
//
// Packing copies each A panel into a contiguous MR-strided layout once and
// streams the micro-kernel from the copy: past kPackMinK the copy cost is
// amortised and the inner loop stops striding across full A rows. The
// pack=0 rows time the identical kernel with packing forced off — the
// before/after pair behind the BENCH_gemm packed-speedup claim. Shapes are
// decode-like: skinny m, wide k (hidden → vocab projections).

static void BM_MatmulLargeK(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const bool pack = state.range(2) != 0;
  const int64_t n = 256;
  const bool saved = ht::kernels::gemm_pack_a();
  ht::kernels::set_gemm_pack_a(pack);
  ht::IntraOpScope scope(1);
  ht::Rng rng(5);
  ht::Tensor a = rng.randn({m, k});
  ht::Tensor b = rng.randn({k, n});
  ht::Tensor c({m, n});
  for (auto _ : state) {
    ht::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  ht::kernels::set_gemm_pack_a(saved);
}
BENCHMARK(BM_MatmulLargeK)
    ->ArgsProduct({{8, 64}, {1024, 4096}, {0, 1}})
    ->ArgNames({"m", "k", "pack"})
    ->Unit(benchmark::kMillisecond);

// ---- ragged row blocks (decode projections) ------------------------------
//
// A decode pass pushes each stream through every Linear projection and the
// LM head as gemm(1, n, k); prefill tails leave a few rows short of a full
// MR register block. Those rows run the one-row vector tiles vecmat uses.
// (n, k) are the serving model's shapes: qkv 192x64, out-proj 64x64, MLP
// up 256x64 and down 64x256, LM head 512x64.

static void BM_RowGemm(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  ht::IntraOpScope scope(1);
  ht::Rng rng(6);
  ht::Tensor a = rng.randn({m, k});
  ht::Tensor b = rng.randn({k, n});
  ht::Tensor c({m, n});
  for (auto _ : state) {
    ht::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, m, n, k);
}
BENCHMARK(BM_RowGemm)
    ->ArgNames({"m", "n", "k"})
    ->Args({1, 192, 64})
    ->Args({1, 64, 64})
    ->Args({1, 256, 64})
    ->Args({1, 64, 256})
    ->Args({1, 512, 64})
    ->Args({3, 192, 64})
    ->Args({3, 64, 64})
    ->Args({3, 256, 64})
    ->Args({3, 64, 256})
    ->Args({3, 512, 64});

// ---- training backward shapes (gemm_bt / gemm_at) ------------------------
//
// A Linear layer's backward runs dx = dy W^T through gemm_bt and
// dW += x^T dy through gemm_at; attention's score gradients add more of
// both. gemm_bt packs B^T through register-block transposes before the
// ordinary gemm; gemm_at reads A^T in place through its strides. (m, n, k)
// are the training benchmark's shapes: 32 and 64 tokens per micro-batch,
// hidden 64 and 192, MLP 256 and 768.

static void BM_TransposePack(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t cols = state.range(1);
  ht::Rng rng(7);
  ht::Tensor src = rng.randn({rows, cols});
  ht::Tensor dst({cols, rows});
  for (auto _ : state) {
    ht::kernels::transpose_pack(src.data(), rows, cols, cols, dst.data());
    benchmark::ClobberMemory();
    benchmark::DoNotOptimize(dst.data());
  }
  state.counters["ns/elem"] = benchmark::Counter(
      static_cast<double>(rows * cols) * 1e-9 *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TransposePack)
    ->ArgNames({"rows", "cols"})
    ->Args({64, 192})
    ->Args({192, 768})
    ->Args({768, 192})
    ->Args({32, 32});

static void BM_GemmBtTrain(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  ht::IntraOpScope scope(1);
  ht::Rng rng(8);
  ht::Tensor a = rng.randn({m, k});
  ht::Tensor b = rng.randn({n, k});
  ht::Tensor c({m, n});
  for (auto _ : state) {
    ht::matmul_bt_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, m, n, k);
}
BENCHMARK(BM_GemmBtTrain)
    ->ArgNames({"m", "n", "k"})
    ->Args({32, 64, 192})
    ->Args({32, 256, 64})
    ->Args({64, 192, 768})
    ->Args({64, 768, 192});

static void BM_GemmAtTrain(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  ht::IntraOpScope scope(1);
  ht::Rng rng(9);
  ht::Tensor a = rng.randn({k, m});
  ht::Tensor b = rng.randn({k, n});
  ht::Tensor c({m, n});
  for (auto _ : state) {
    ht::matmul_at_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, m, n, k);
}
BENCHMARK(BM_GemmAtTrain)
    ->ArgNames({"m", "n", "k"})
    ->Args({64, 192, 32})
    ->Args({256, 64, 32})
    ->Args({192, 768, 64});

// ---- accumulate forms (gradient path: no temporary, no zero pass) -------

static void BM_MatmulAtAccum(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::IntraOpScope scope(1);
  ht::Rng rng(4);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  ht::Tensor grad({n, n});
  for (auto _ : state) {
    ht::matmul_at_accum(a, b, grad);
    benchmark::DoNotOptimize(grad.data());
  }
  set_flops(state, n);
}
BENCHMARK(BM_MatmulAtAccum)->Arg(256)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
