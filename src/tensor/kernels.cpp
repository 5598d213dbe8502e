#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/arena.hpp"
#include "tensor/parallel.hpp"

namespace hanayo::tensor::kernels {

namespace {

// Register micro-tile: MR rows of A against NR columns of B/C, sized per
// ISA so the accumulator tile exactly fills the SIMD register file
// (measured on a 2.1 GHz AVX-512 Xeon: 8x3 zmm accumulators ~130 GF/s vs
// ~21 GF/s for the seed's naive loop; the 6x2 ymm shape is the AVX2
// sweet spot at ~70 GF/s).
#if defined(__AVX512F__)
constexpr int64_t MR = 8;   // rows per register tile
constexpr int64_t NV = 3;   // vectors per row
constexpr int64_t VLEN = 16;  // floats per vector
#else
constexpr int64_t MR = 6;
constexpr int64_t NV = 2;
constexpr int64_t VLEN = 8;
#endif
constexpr int64_t NR = NV * VLEN;
// K-panel so the streamed B rows stay cache-resident between row blocks.
constexpr int64_t KC = 256;
// Unroll of the k loop inside the micro-kernel (hides FMA latency).
constexpr int64_t KU = 2;
// Problems below this many flops are not worth a trip through the pool.
constexpr int64_t kParallelFlops = int64_t{1} << 18;

// A-panel packing engages for k at least this deep: below it the pack
// traffic (m*k extra reads+writes) outweighs the contiguous-load win in
// the micro-kernel. Decode-shaped gemms (m = 1, no full MR block) never
// pack regardless.
constexpr int64_t kPackMinK = 64;

std::atomic<bool> g_pack_a{true};

// C[MR x NR] += A-panel * B-panel over kc steps. The accumulator tile is
// expressed as explicit VLEN-wide vector values (GCC/Clang vector
// extension) so it provably lives in SIMD registers — written as a plain
// float array the compiler spills it to the stack once this kernel is
// inlined into the blocking loops, which costs ~10x. Lane j of a vector is
// column j of C, so each element still accumulates one multiply-add per kk
// in ascending-kk order, the same sequence as the scalar edge kernel.
// `noinline` keeps the register allocation of this leaf isolated from the
// caller's loop nest. On compilers without the extension the scalar edge
// kernel below handles everything.
#if defined(__GNUC__) || defined(__clang__)
#define HANAYO_VECTOR_KERNEL 1
typedef float vf __attribute__((vector_size(VLEN * sizeof(float)),
                                aligned(alignof(float))));

// Scalar-to-vector broadcast. The braced form compiles to one
// vbroadcastss; arithmetic splats like `vf{} + x` cost an extra vector add
// (x + 0.0f is not foldable under signed-zero semantics). A macro rather
// than a function: returning a wide vector by value trips GCC's unfixable
// -Wpsabi ABI note on pre-AVX targets.
#if defined(__AVX512F__)
#define HANAYO_SPLAT(x) \
  (vf) { x, x, x, x, x, x, x, x, x, x, x, x, x, x, x, x }
#else
#define HANAYO_SPLAT(x) \
  (vf) { x, x, x, x, x, x, x, x }
#endif

// One k step for a register tile of MR x NVt vectors.
template <int64_t NVt>
inline void micro_step(int64_t kk, const float* a, int64_t lda,
                       const float* b, int64_t ldb, vf acc[MR][NVt]) {
  vf bv[NVt];
  for (int64_t q = 0; q < NVt; ++q)
    std::memcpy(&bv[q], b + kk * ldb + VLEN * q, sizeof(vf));
  for (int64_t r = 0; r < MR; ++r) {
    const vf avv = HANAYO_SPLAT(a[r * lda + kk]);
    for (int64_t q = 0; q < NVt; ++q) acc[r][q] += avv * bv[q];
  }
}

// Full-height register tile covering NVt vectors of columns; NVt < NV
// instantiations serve the column tail so it stays vectorised. When
// `load_c` is false the accumulators start from zero instead of reading C,
// so an overwriting gemm never needs a separate output-clearing pass
// (0 + ascending-k FMAs is the same per-element sequence either way).
template <int64_t NVt>
__attribute__((noinline)) void micro_tile(int64_t kc, const float* a,
                                          int64_t lda, const float* b,
                                          int64_t ldb, float* c, int64_t ldc,
                                          bool load_c) {
  vf acc[MR][NVt];
  if (load_c) {
    for (int64_t r = 0; r < MR; ++r)
      for (int64_t q = 0; q < NVt; ++q)
        std::memcpy(&acc[r][q], c + r * ldc + VLEN * q, sizeof(vf));
  } else {
    for (int64_t r = 0; r < MR; ++r)
      for (int64_t q = 0; q < NVt; ++q) acc[r][q] = vf{};
  }
  int64_t kk = 0;
  for (; kk + KU <= kc; kk += KU)
    for (int64_t u = 0; u < KU; ++u)
      micro_step<NVt>(kk + u, a, lda, b, ldb, acc);
  for (; kk < kc; ++kk) micro_step<NVt>(kk, a, lda, b, ldb, acc);
  for (int64_t r = 0; r < MR; ++r)
    for (int64_t q = 0; q < NVt; ++q)
      std::memcpy(c + r * ldc + VLEN * q, &acc[r][q], sizeof(vf));
}

// Column tail of nv whole vectors (nv in [1, NV)).
inline void micro_tile_tail(int64_t nv, int64_t kc, const float* a,
                            int64_t lda, const float* b, int64_t ldb,
                            float* c, int64_t ldc, bool load_c) {
  if (nv == 1) {
    micro_tile<1>(kc, a, lda, b, ldb, c, ldc, load_c);
  } else {
    static_assert(NV <= 3, "extend the tail dispatch for wider tiles");
    micro_tile<2>(kc, a, lda, b, ldb, c, ldc, load_c);
  }
}

// Packed-A variants: `ap` is an MR-strided panel (element (r, kk) at
// ap[kk * MR + r]) packed once per thread row-range, so the kk loop walks
// A contiguously instead of striding lda floats per row. The per-element
// FMA sequence is identical to the strided kernel — same values, same
// ascending-kk order — which keeps packed results bitwise equal to
// unpacked ones (locked by KernelsTest.PackABitIdentical).
template <int64_t NVt>
inline void micro_step_packed(int64_t kk, const float* ap, const float* b,
                              int64_t ldb, vf acc[MR][NVt]) {
  vf bv[NVt];
  for (int64_t q = 0; q < NVt; ++q)
    std::memcpy(&bv[q], b + kk * ldb + VLEN * q, sizeof(vf));
  const float* arow = ap + kk * MR;
  for (int64_t r = 0; r < MR; ++r) {
    const vf avv = HANAYO_SPLAT(arow[r]);
    for (int64_t q = 0; q < NVt; ++q) acc[r][q] += avv * bv[q];
  }
}

template <int64_t NVt>
__attribute__((noinline)) void micro_tile_packed(int64_t kc, const float* ap,
                                                 const float* b, int64_t ldb,
                                                 float* c, int64_t ldc,
                                                 bool load_c) {
  vf acc[MR][NVt];
  if (load_c) {
    for (int64_t r = 0; r < MR; ++r)
      for (int64_t q = 0; q < NVt; ++q)
        std::memcpy(&acc[r][q], c + r * ldc + VLEN * q, sizeof(vf));
  } else {
    for (int64_t r = 0; r < MR; ++r)
      for (int64_t q = 0; q < NVt; ++q) acc[r][q] = vf{};
  }
  int64_t kk = 0;
  for (; kk + KU <= kc; kk += KU)
    for (int64_t u = 0; u < KU; ++u)
      micro_step_packed<NVt>(kk + u, ap, b, ldb, acc);
  for (; kk < kc; ++kk) micro_step_packed<NVt>(kk, ap, b, ldb, acc);
  for (int64_t r = 0; r < MR; ++r)
    for (int64_t q = 0; q < NVt; ++q)
      std::memcpy(c + r * ldc + VLEN * q, &acc[r][q], sizeof(vf));
}

inline void micro_tile_tail_packed(int64_t nv, int64_t kc, const float* ap,
                                   const float* b, int64_t ldb, float* c,
                                   int64_t ldc, bool load_c) {
  if (nv == 1) {
    micro_tile_packed<1>(kc, ap, b, ldb, c, ldc, load_c);
  } else {
    micro_tile_packed<2>(kc, ap, b, ldb, c, ldc, load_c);
  }
}

// One-row tile for vecmat: NVt vectors of c over the whole k extent, the
// micro_step multiply-add with a single broadcast row of A.
template <int64_t NVt>
inline void vec_tile(int64_t k, const float* a, const float* b, int64_t ldb,
                     float* c, bool load_c) {
  vf acc[NVt];
  for (int64_t q = 0; q < NVt; ++q) {
    if (load_c) {
      std::memcpy(&acc[q], c + VLEN * q, sizeof(vf));
    } else {
      acc[q] = vf{};
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const vf avv = HANAYO_SPLAT(a[kk]);
    for (int64_t q = 0; q < NVt; ++q) {
      vf bv;
      std::memcpy(&bv, b + kk * ldb + VLEN * q, sizeof(vf));
      acc[q] += avv * bv;
    }
  }
  for (int64_t q = 0; q < NVt; ++q)
    std::memcpy(c + VLEN * q, &acc[q], sizeof(vf));
}
#endif

// Ragged edge tiles (mr < MR and/or nr < NR); same loop structure and the
// same ascending-kk order per element.
inline void micro_edge(int64_t mr, int64_t nr, int64_t kc, const float* a,
                       int64_t lda, const float* b, int64_t ldb, float* c,
                       int64_t ldc, bool load_c) {
  float acc[MR][NR];
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t j = 0; j < nr; ++j) acc[r][j] = load_c ? c[r * ldc + j] : 0.0f;
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = b + kk * ldb;
    for (int64_t r = 0; r < mr; ++r) {
      const float av = a[r * lda + kk];
      for (int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
}

// Pack-panel scratch. Two independent pools because they nest: gemm_bt
// holds its transposed-B panel across the inner gemm call, whose
// gemm_rows may pack A on the same thread — one shared buffer would be
// clobbered mid-product. When the calling thread has an active
// pass-lifetime arena the panel comes from it under a LIFO mark/rewind
// (the B mark strictly encloses the A mark, so rewinds pair up); without
// one (pool worker threads, cold paths) a grow-only thread_local backs it
// with geometric growth, so steady state allocates nothing either way.
std::vector<float>& pack_fallback_b() {
  thread_local std::vector<float> v;
  return v;
}

std::vector<float>& pack_fallback_a() {
  thread_local std::vector<float> v;
  return v;
}

// One thread's share of a gemm: rows [i0, i1) of C. The first k-panel of
// an overwriting gemm starts its accumulators from zero instead of reading
// C, so no separate output-clearing pass is needed. For deep-k problems
// the thread packs its full MR row blocks of A once into MR-strided
// panels, reused across every k-block and the whole column sweep; ragged
// row tails and small problems stream A in place.
void gemm_rows(int64_t i0, int64_t i1, int64_t n, int64_t k, const float* a,
               int64_t lda, const float* b, int64_t ldb, float* c,
               int64_t ldc, bool accumulate) {
  if (k <= 0) {  // degenerate product: all-zero (or untouched) output
    if (!accumulate) {
      for (int64_t i = i0; i < i1; ++i)
        std::memset(c + i * ldc, 0, static_cast<size_t>(n) * sizeof(float));
    }
    return;
  }
#ifdef HANAYO_VECTOR_KERNEL
  const int64_t full_blocks =
      (g_pack_a.load(std::memory_order_relaxed) && k >= kPackMinK &&
       n >= VLEN)
          ? (i1 - i0) / MR
          : 0;
#else
  const int64_t full_blocks = 0;
#endif
  ScratchBuffer apack(full_blocks * k * MR, pack_fallback_a());
#ifdef HANAYO_VECTOR_KERNEL
  if (full_blocks > 0) {
    for (int64_t blk = 0; blk < full_blocks; ++blk) {
      const float* src = a + (i0 + blk * MR) * lda;
      float* panel = apack.data() + blk * k * MR;
      for (int64_t kk = 0; kk < k; ++kk)
        for (int64_t r = 0; r < MR; ++r) panel[kk * MR + r] = src[r * lda + kk];
    }
  }
#endif
  for (int64_t kb = 0; kb < k; kb += KC) {
    const int64_t kc = std::min(KC, k - kb);
    const bool load_c = accumulate || kb > 0;
    for (int64_t i = i0; i < i1; i += MR) {
      const int64_t mr = std::min(MR, i1 - i);
      const float* apanel = a + i * lda + kb;
      const float* bpanel = b + kb * ldb;
      float* crow = c + i * ldc;
      int64_t j = 0;
#ifdef HANAYO_VECTOR_KERNEL
      if (mr == MR) {
        const int64_t blk = (i - i0) / MR;
        if (blk < full_blocks) {
          const float* ap = apack.data() + blk * k * MR + kb * MR;
          for (; j + NR <= n; j += NR)
            micro_tile_packed<NV>(kc, ap, bpanel + j, ldb, crow + j, ldc,
                                  load_c);
          const int64_t nv_tail = (n - j) / VLEN;
          if (nv_tail > 0) {
            micro_tile_tail_packed(nv_tail, kc, ap, bpanel + j, ldb, crow + j,
                                   ldc, load_c);
            j += nv_tail * VLEN;
          }
        } else {
          for (; j + NR <= n; j += NR)
            micro_tile<NV>(kc, apanel, lda, bpanel + j, ldb, crow + j, ldc,
                           load_c);
          const int64_t nv_tail = (n - j) / VLEN;
          if (nv_tail > 0) {
            micro_tile_tail(nv_tail, kc, apanel, lda, bpanel + j, ldb,
                            crow + j, ldc, load_c);
            j += nv_tail * VLEN;
          }
        }
      }
#endif
      // Ragged rows (m % MR) and the sub-vector column remainder.
      for (; j < n; j += NR) {
        micro_edge(mr, std::min(NR, n - j), kc, apanel, lda, bpanel + j, ldb,
                   crow + j, ldc, load_c);
      }
    }
  }
}

}  // namespace

void gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (2 * m * n * std::max<int64_t>(k, 1) < kParallelFlops) {
    gemm_rows(0, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
    return;
  }
  // Partition whole MR row-blocks, so which rows share a register tile —
  // and therefore which micro-kernel touches them — depends only on m,
  // never on the thread count. That keeps results bit-identical for 1 and
  // N threads even if the full and edge kernels round differently.
  const int64_t row_blocks = (m + MR - 1) / MR;
  parallel_for(row_blocks, 1, [&](int64_t b0, int64_t b1) {
    gemm_rows(b0 * MR, std::min(b1 * MR, m), n, k, a, lda, b, ldb, c, ldc,
              accumulate);
  });
}

void gemm_bt(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  ScratchBuffer pack(k * n, pack_fallback_b());
  float* bt = pack.data();
  transpose_pack(b, n, k, ldb, bt);  // n x k -> k x n
  gemm(m, n, k, a, lda, bt, n, c, ldc, accumulate);
}

void gemm_at(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  ScratchBuffer pack(k * m, pack_fallback_b());
  float* at = pack.data();
  transpose_pack(a, k, m, lda, at);  // k x m -> m x k
  gemm(m, n, k, at, k, b, ldb, c, ldc, accumulate);
}

void vecmat(int64_t n, int64_t k, const float* a, const float* b,
            int64_t ldb, float* c, bool accumulate) {
  int64_t j = 0;
#ifdef HANAYO_VECTOR_KERNEL
  for (; j + NR <= n; j += NR)
    vec_tile<NV>(k, a, b + j, ldb, c + j, accumulate);
  for (; j + VLEN <= n; j += VLEN)
    vec_tile<1>(k, a, b + j, ldb, c + j, accumulate);
#endif
  // The sub-vector remainder runs gemm's own edge tile. A per-element
  // scalar loop would not do: GCC may vectorise its products and add them
  // one by one, which no longer fuses into the FMA gemm uses.
  for (; j < n; j += NR) {
    micro_edge(1, std::min(NR, n - j), k, a, k, b + j, ldb, c + j, n,
               accumulate);
  }
}

void set_gemm_pack_a(bool on) {
  g_pack_a.store(on, std::memory_order_relaxed);
}

bool gemm_pack_a() { return g_pack_a.load(std::memory_order_relaxed); }

void transpose_pack(const float* src, int64_t rows, int64_t cols, int64_t ld,
                    float* dst) {
  constexpr int64_t BT = 32;  // tile fits L1 in both orientations
  for (int64_t r0 = 0; r0 < rows; r0 += BT) {
    const int64_t r1 = std::min(r0 + BT, rows);
    for (int64_t c0 = 0; c0 < cols; c0 += BT) {
      const int64_t c1 = std::min(c0 + BT, cols);
      for (int64_t r = r0; r < r1; ++r) {
        const float* s = src + r * ld;
        for (int64_t c = c0; c < c1; ++c) dst[c * rows + r] = s[c];
      }
    }
  }
}

}  // namespace hanayo::tensor::kernels

namespace hanayo::tensor {

namespace {

void check_2d(const Tensor& t, const char* who) {
  if (t.dim() != 2) {
    throw std::invalid_argument(std::string(who) + ": need 2-d tensor");
  }
}

void check_out(const Tensor& out, int64_t m, int64_t n, const char* who) {
  if (out.dim() != 2 || out.size(0) != m || out.size(1) != n) {
    throw std::invalid_argument(std::string(who) + ": output must be " +
                                std::to_string(m) + "x" + std::to_string(n) +
                                ", got " + out.shape_str());
  }
}

}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  check_2d(a, "matmul_into");
  check_2d(b, "matmul_into");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k) throw std::invalid_argument("matmul_into: inner dim mismatch");
  check_out(out, m, n, "matmul_into");
  kernels::gemm(m, n, k, a.data(), k, b.data(), n, out.data(), n, false);
}

void matmul_accum(const Tensor& a, const Tensor& b, Tensor& out) {
  check_2d(a, "matmul_accum");
  check_2d(b, "matmul_accum");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k) throw std::invalid_argument("matmul_accum: inner dim mismatch");
  check_out(out, m, n, "matmul_accum");
  kernels::gemm(m, n, k, a.data(), k, b.data(), n, out.data(), n, true);
}

void matmul_bt_into(const Tensor& a, const Tensor& b, Tensor& out) {
  check_2d(a, "matmul_bt_into");
  check_2d(b, "matmul_bt_into");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  if (b.size(1) != k) throw std::invalid_argument("matmul_bt_into: inner dim mismatch");
  check_out(out, m, n, "matmul_bt_into");
  kernels::gemm_bt(m, n, k, a.data(), k, b.data(), k, out.data(), n, false);
}

void matmul_bt_accum(const Tensor& a, const Tensor& b, Tensor& out) {
  check_2d(a, "matmul_bt_accum");
  check_2d(b, "matmul_bt_accum");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  if (b.size(1) != k) throw std::invalid_argument("matmul_bt_accum: inner dim mismatch");
  check_out(out, m, n, "matmul_bt_accum");
  kernels::gemm_bt(m, n, k, a.data(), k, b.data(), k, out.data(), n, true);
}

void matmul_at_into(const Tensor& a, const Tensor& b, Tensor& out) {
  check_2d(a, "matmul_at_into");
  check_2d(b, "matmul_at_into");
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  if (b.size(0) != k) throw std::invalid_argument("matmul_at_into: inner dim mismatch");
  check_out(out, m, n, "matmul_at_into");
  kernels::gemm_at(m, n, k, a.data(), m, b.data(), n, out.data(), n, false);
}

void matmul_at_accum(const Tensor& a, const Tensor& b, Tensor& out) {
  check_2d(a, "matmul_at_accum");
  check_2d(b, "matmul_at_accum");
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  if (b.size(0) != k) throw std::invalid_argument("matmul_at_accum: inner dim mismatch");
  check_out(out, m, n, "matmul_at_accum");
  kernels::gemm_at(m, n, k, a.data(), m, b.data(), n, out.data(), n, true);
}

void transpose_into(const Tensor& a, Tensor& out) {
  check_2d(a, "transpose_into");
  const int64_t m = a.size(0), n = a.size(1);
  check_out(out, n, m, "transpose_into");
  kernels::transpose_pack(a.data(), m, n, n, out.data());
}

}  // namespace hanayo::tensor
