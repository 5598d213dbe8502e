#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
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
// caller's loop nest. The vector math further down has no scalar form, so
// the extension is required.
#if !defined(__GNUC__) && !defined(__clang__)
#error "tensor/kernels.cpp needs the GCC/Clang vector extension"
#endif
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

// One k step for a register tile of MR x NVt vectors. A is read through
// two strides, element (r, kk) at a[r * lda + kk * ak]: gemm passes ak = 1,
// and gemm_at reads A^T in place with lda = 1 and ak = A's row stride.
template <int64_t NVt>
inline void micro_step(int64_t kk, const float* a, int64_t lda, int64_t ak,
                       const float* b, int64_t ldb, vf acc[MR][NVt]) {
  vf bv[NVt];
  for (int64_t q = 0; q < NVt; ++q)
    std::memcpy(&bv[q], b + kk * ldb + VLEN * q, sizeof(vf));
  for (int64_t r = 0; r < MR; ++r) {
    const vf avv = HANAYO_SPLAT(a[r * lda + kk * ak]);
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
                                          int64_t lda, int64_t ak,
                                          const float* b, int64_t ldb,
                                          float* c, int64_t ldc, bool load_c) {
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
      micro_step<NVt>(kk + u, a, lda, ak, b, ldb, acc);
  for (; kk < kc; ++kk) micro_step<NVt>(kk, a, lda, ak, b, ldb, acc);
  for (int64_t r = 0; r < MR; ++r)
    for (int64_t q = 0; q < NVt; ++q)
      std::memcpy(c + r * ldc + VLEN * q, &acc[r][q], sizeof(vf));
}

// Column tail of nv whole vectors (nv in [1, NV)).
inline void micro_tile_tail(int64_t nv, int64_t kc, const float* a,
                            int64_t lda, int64_t ak, const float* b,
                            int64_t ldb, float* c, int64_t ldc, bool load_c) {
  if (nv == 1) {
    micro_tile<1>(kc, a, lda, ak, b, ldb, c, ldc, load_c);
  } else {
    static_assert(NV <= 3, "extend the tail dispatch for wider tiles");
    micro_tile<2>(kc, a, lda, ak, b, ldb, c, ldc, load_c);
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
// micro_step multiply-add with a single broadcast row of A (a[kk * ak]).
template <int64_t NVt>
inline void vec_tile(int64_t k, const float* a, int64_t ak, const float* b,
                     int64_t ldb, float* c, bool load_c) {
  vf acc[NVt];
  for (int64_t q = 0; q < NVt; ++q) {
    if (load_c) {
      std::memcpy(&acc[q], c + VLEN * q, sizeof(vf));
    } else {
      acc[q] = vf{};
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const vf avv = HANAYO_SPLAT(a[kk * ak]);
    for (int64_t q = 0; q < NVt; ++q) {
      vf bv;
      std::memcpy(&bv, b + kk * ldb + VLEN * q, sizeof(vf));
      acc[q] += avv * bv;
    }
  }
  for (int64_t q = 0; q < NVt; ++q)
    std::memcpy(c + VLEN * q, &acc[q], sizeof(vf));
}

// ---- Register-block transpose --------------------------------------------
// A VLEN x VLEN block is VLEN row vectors. Stage S (S = 1, 2, 4, ...) pairs
// each row i whose bit S is clear with row i + S and swaps bit S of the
// row index with bit S of the lane index: two two-source shuffles per
// pair. After log2(VLEN) stages element (i, l) sits at (l, i). Only data
// moves, so the packed values are exactly the source floats.
template <int64_t S, size_t... L>
inline void swap_index_bit(vf& x, vf& y, std::index_sequence<L...>) {
  const vf lo = __builtin_shufflevector(x, y, (L & S ? VLEN + L - S : L)...);
  const vf hi = __builtin_shufflevector(x, y, (L & S ? VLEN + L : L + S)...);
  x = lo;
  y = hi;
}

// Stage S over all VLEN / 2 row pairs; pair p's low row is p with a zero
// inserted at bit S.
template <int64_t S, size_t... P>
inline void transpose_stage(vf v[VLEN], std::index_sequence<P...>) {
  (swap_index_bit<S>(v[((P & ~(S - 1)) << 1) | (P & (S - 1))],
                     v[(((P & ~(S - 1)) << 1) | (P & (S - 1))) + S],
                     std::make_index_sequence<VLEN>{}),
   ...);
}

template <int64_t S>
inline void transpose_stages(vf v[VLEN]) {
  transpose_stage<S>(v, std::make_index_sequence<VLEN / 2>{});
  if constexpr (2 * S < VLEN) transpose_stages<2 * S>(v);
}

// dst (row stride ldd) = transpose of the VLEN x VLEN block at src (row
// stride ld).
__attribute__((noinline)) void transpose_block(const float* src, int64_t ld,
                                               float* dst, int64_t ldd) {
  vf v[VLEN];
  for (int64_t i = 0; i < VLEN; ++i)
    std::memcpy(&v[i], src + i * ld, sizeof(vf));
  transpose_stages<1>(v);
  for (int64_t i = 0; i < VLEN; ++i)
    std::memcpy(dst + i * ldd, &v[i], sizeof(vf));
}

// ---- Vector math: tanh, exp and the array kernels built on them ---------
// Every routine here runs lane-wise on vf values with no lane-dependent
// branch, and the array kernels route the sub-vector tail through the
// same code on a zero-padded vector. An element's result therefore
// depends only on its own input — never on its index, on the parallel_for
// chunk it lands in or on the thread count — which keeps every bitwise
// identity (Threads ≡ Reference, paged ≡ contiguous, incremental ≡
// full-prefix, 1 ≡ N threads) true by construction. No libm call, no
// -ffast-math. Results are written through an out-reference for the same
// -Wpsabi reason HANAYO_SPLAT is a macro.
typedef int32_t vi __attribute__((vector_size(VLEN * sizeof(int32_t)),
                                  aligned(alignof(int32_t))));

// tanh: Eigen's clamped rational minimax (generic_fast_tanh_float), an odd
// degree-13 numerator over an even degree-6 denominator. |x| < 4e-4
// returns x and |x| >= 9 returns ±1 exactly (float tanh rounds to ±1
// there, and GELU's gradient needs 1 - t*t to vanish). A NaN fails every
// comparison and stays NaN.
inline void vtanh(const vf& in, vf& out) {
  const vf hi = HANAYO_SPLAT(7.90531110763549805f);
  const vf one = HANAYO_SPLAT(1.0f);
  vf x = in > hi ? hi : in;
  x = x < -hi ? -hi : x;
  const vf x2 = x * x;
  vf p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p + -8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  p = x * p;
  vf q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  const vf ax = in < 0.0f ? -in : in;
  const vf sat = in < 0.0f ? -one : one;
  out = ax < 4e-4f ? in : (ax >= 9.0f ? sat : p / q);
}

// exp: the Cephes expf scheme. n = round(x log2 e); r = x - n ln2 with ln2
// split in two (Cody-Waite); exp(r) from a degree-5 polynomial; 2^n
// written straight into the exponent bits. Inputs are clamped to ±88.376
// first, so below about -87.3 the result flushes to 0 rather than to a
// denormal; a NaN lane is clamped too (keeping the int conversion in
// range) and restored at the end.
inline void vexp(const vf& in, vf& out) {
  const vf lim = HANAYO_SPLAT(88.3762626647949f);
  vf x = in < lim ? in : lim;
  x = x > -lim ? x : -lim;
  // floor(x log2 e + 1/2): truncate, then step down where that rounded up.
  const vf fx = x * 1.44269504088896341f + 0.5f;
  vi n = __builtin_convertvector(fx, vi);
  const vi up = __builtin_convertvector(n, vf) > fx;  // -1 where true
  n += up;
  const vf fn = __builtin_convertvector(n, vf);
  x = x - fn * 0.693359375f;
  x = x - fn * -2.12194440e-4f;
  const vf z = x * x;
  vf y = x * 1.9875691500e-4f + 1.3981999507e-3f;
  y = y * x + 8.3334519073e-3f;
  y = y * x + 4.1665795894e-2f;
  y = y * x + 1.6666665459e-1f;
  y = y * x + 5.0000001201e-1f;
  y = y * z + x + 1.0f;
  const vi bits = (n + 127) << 23;  // 2^n; n = -127 gives +0
  vf pow2n;
  std::memcpy(&pow2n, &bits, sizeof(vf));
  out = in == in ? y * pow2n : in;
}

// op(a, b, y) over nvec whole vectors. One out-of-line copy serves both
// the body and the padded tail of map_lanes, so the two cannot be
// scheduled or contracted differently. Plain noinline is not enough on
// GCC: constant propagation would clone a copy for the tail's nvec = 1.
#if defined(__clang__)
#define HANAYO_ONE_COPY __attribute__((noinline))
#else
#define HANAYO_ONE_COPY __attribute__((noipa))
#endif
template <typename Op>
HANAYO_ONE_COPY void lanes(int64_t nvec, const float* a, const float* b,
                           float* y, const Op& op) {
  for (int64_t v = 0; v < nvec; ++v) {
    vf va, vb, vy;
    std::memcpy(&va, a + v * VLEN, sizeof(vf));
    std::memcpy(&vb, b + v * VLEN, sizeof(vf));
    op(va, vb, vy);
    std::memcpy(y + v * VLEN, &vy, sizeof(vf));
  }
}

// y[i] = op(a[i], b[i]) for i in [0, n); y may alias a or b. The
// sub-vector tail is staged through zero-padded vectors.
template <typename Op>
void map_lanes(int64_t n, const float* a, const float* b, float* y,
               const Op& op) {
  const int64_t body = n / VLEN;
  lanes(body, a, b, y, op);
  const int64_t i = body * VLEN;
  if (i == n) return;
  float ta[VLEN] = {}, tb[VLEN] = {}, ty[VLEN];
  const size_t rest = static_cast<size_t>(n - i) * sizeof(float);
  std::memcpy(ta, a + i, rest);
  std::memcpy(tb, b + i, rest);
  lanes(1, ta, tb, ty, op);
  std::memcpy(y + i, ty, rest);
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

// Sub-vector column remainder (nr < VLEN) of an mr-row block: scalar, with
// the same loop structure and the same ascending-kk order per element.
inline void micro_edge(int64_t mr, int64_t nr, int64_t kc, const float* a,
                       int64_t lda, int64_t ak, const float* b, int64_t ldb,
                       float* c, int64_t ldc, bool load_c) {
  float acc[MR][VLEN];
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t j = 0; j < nr; ++j) acc[r][j] = load_c ? c[r * ldc + j] : 0.0f;
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = b + kk * ldb;
    for (int64_t r = 0; r < mr; ++r) {
      const float av = a[r * lda + kk * ak];
      for (int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
}

// vecmat on a row of A read at stride ak; see vecmat for the tiling.
inline void vec_row(int64_t n, int64_t k, const float* a, int64_t ak,
                    const float* b, int64_t ldb, float* c, bool load_c) {
  int64_t j = 0;
  for (; j + 8 * VLEN <= n; j += 8 * VLEN)
    vec_tile<8>(k, a, ak, b + j, ldb, c + j, load_c);
  if (j + 4 * VLEN <= n) {
    vec_tile<4>(k, a, ak, b + j, ldb, c + j, load_c);
    j += 4 * VLEN;
  }
  for (; j + NR <= n; j += NR)
    vec_tile<NV>(k, a, ak, b + j, ldb, c + j, load_c);
  for (; j + VLEN <= n; j += VLEN)
    vec_tile<1>(k, a, ak, b + j, ldb, c + j, load_c);
  // The sub-vector remainder runs gemm's own edge tile. A per-element
  // scalar loop would not do: GCC may vectorise its products and add them
  // one by one, which no longer fuses into the FMA gemm uses.
  if (j < n) micro_edge(1, n - j, k, a, 0, ak, b + j, ldb, c + j, 0, load_c);
}

// Bᵀ pack scratch for gemm_bt, separate from the A-panel pool because the
// two nest: gemm_bt holds its transposed-B panel across the inner gemm
// call, whose gemm_rows may pack A on the same thread — one shared buffer
// would be clobbered mid-product. When the calling thread has an active
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

// One thread's share of a gemm: rows [i0, i1) of C, with A's element
// (i, kk) at a[i * lda + kk * ak]. The first k-panel of an overwriting gemm
// starts its accumulators from zero instead of reading C, so no separate
// output-clearing pass is needed. For deep-k problems the thread packs its
// full MR row blocks of A once into MR-strided panels, reused across every
// k-block and the whole column sweep; small problems stream A in place. A
// ragged row block (fewer than MR rows, so every m = 1 decode projection)
// runs vecmat's row tiles, one row at a time.
void gemm_rows(int64_t i0, int64_t i1, int64_t n, int64_t k, const float* a,
               int64_t lda, int64_t ak, const float* b, int64_t ldb, float* c,
               int64_t ldc, bool accumulate) {
  if (k <= 0) {  // degenerate product: all-zero (or untouched) output
    if (!accumulate) {
      for (int64_t i = i0; i < i1; ++i)
        std::memset(c + i * ldc, 0, static_cast<size_t>(n) * sizeof(float));
    }
    return;
  }
  const int64_t full_blocks =
      (g_pack_a.load(std::memory_order_relaxed) && k >= kPackMinK &&
       n >= VLEN)
          ? (i1 - i0) / MR
          : 0;
  ScratchBuffer apack(full_blocks * k * MR, pack_fallback_a());
  if (full_blocks > 0) {
    for (int64_t blk = 0; blk < full_blocks; ++blk) {
      const float* src = a + (i0 + blk * MR) * lda;
      float* panel = apack.data() + blk * k * MR;
      for (int64_t kk = 0; kk < k; ++kk)
        for (int64_t r = 0; r < MR; ++r)
          panel[kk * MR + r] = src[r * lda + kk * ak];
    }
  }
  for (int64_t kb = 0; kb < k; kb += KC) {
    const int64_t kc = std::min(KC, k - kb);
    const bool load_c = accumulate || kb > 0;
    for (int64_t i = i0; i < i1; i += MR) {
      const int64_t mr = std::min(MR, i1 - i);
      const float* apanel = a + i * lda + kb * ak;
      const float* bpanel = b + kb * ldb;
      float* crow = c + i * ldc;
      int64_t j = 0;
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
            micro_tile<NV>(kc, apanel, lda, ak, bpanel + j, ldb, crow + j,
                           ldc, load_c);
          const int64_t nv_tail = (n - j) / VLEN;
          if (nv_tail > 0) {
            micro_tile_tail(nv_tail, kc, apanel, lda, ak, bpanel + j, ldb,
                            crow + j, ldc, load_c);
            j += nv_tail * VLEN;
          }
        }
        if (j < n)
          micro_edge(MR, n - j, kc, apanel, lda, ak, bpanel + j, ldb,
                     crow + j, ldc, load_c);
      } else {
        for (int64_t r = 0; r < mr; ++r)
          vec_row(n, kc, apanel + r * lda, ak, bpanel, ldb, crow + r * ldc,
                  load_c);
      }
    }
  }
}

// gemm on A read through a row stride lda and a k-stride ak.
void gemm_strided(int64_t m, int64_t n, int64_t k, const float* a,
                  int64_t lda, int64_t ak, const float* b, int64_t ldb,
                  float* c, int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (2 * m * n * std::max<int64_t>(k, 1) < kParallelFlops) {
    gemm_rows(0, m, n, k, a, lda, ak, b, ldb, c, ldc, accumulate);
    return;
  }
  // Partition whole MR row-blocks, so which rows share a register tile —
  // and therefore which micro-kernel touches them — depends only on m,
  // never on the thread count. That keeps results bit-identical for 1 and
  // N threads even if the full and edge kernels round differently.
  const int64_t row_blocks = (m + MR - 1) / MR;
  parallel_for(row_blocks, 1, [&](int64_t b0, int64_t b1) {
    gemm_rows(b0 * MR, std::min(b1 * MR, m), n, k, a, lda, ak, b, ldb, c,
              ldc, accumulate);
  });
}

}  // namespace

void gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate) {
  gemm_strided(m, n, k, a, lda, 1, b, ldb, c, ldc, accumulate);
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
  // A^T's element (i, kk) is A's (kk, i): row stride 1, k-stride lda.
  gemm_strided(m, n, k, a, 1, lda, b, ldb, c, ldc, accumulate);
}

void vecmat(int64_t n, int64_t k, const float* a, const float* b,
            int64_t ldb, float* c, bool accumulate) {
  vec_row(n, k, a, 1, b, ldb, c, accumulate);
}

void tanh(int64_t n, const float* x, float* y) {
  map_lanes(n, x, x, y,
            [](const vf& v, const vf&, vf& out) { vtanh(v, out); });
}

void exp(int64_t n, const float* x, float* y) {
  map_lanes(n, x, x, y,
            [](const vf& v, const vf&, vf& out) { vexp(v, out); });
}

void gelu(int64_t n, const float* x, float* y) {
  map_lanes(n, x, x, y, [](const vf& v, const vf&, vf& out) {
    vf t;
    vtanh(kGeluC * (v + 0.044715f * v * v * v), t);
    out = 0.5f * v * (1.0f + t);
  });
}

void gelu_grad(int64_t n, const float* x, const float* dy, float* dx) {
  map_lanes(n, x, dy, dx, [](const vf& v, const vf& g, vf& out) {
    vf t;
    vtanh(kGeluC * (v + 0.044715f * v * v * v), t);
    const vf sech2 = 1.0f - t * t;
    const vf dinner = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    out = g * (0.5f * (1.0f + t) + 0.5f * v * sech2 * dinner);
  });
}

void softmax_row(float* row, int64_t n, float scale) {
  // Scale in place and take the row max. Both are exact in any order, so
  // the scalar tail agrees with the vector body; a NaN never wins a
  // comparison but reaches every output through the sum.
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  vf vmx = HANAYO_SPLAT(kNegInf);
  int64_t j = 0;
  for (; j + VLEN <= n; j += VLEN) {
    vf v;
    std::memcpy(&v, row + j, sizeof(vf));
    v *= scale;
    std::memcpy(row + j, &v, sizeof(vf));
    vmx = v > vmx ? v : vmx;
  }
  float mx = kNegInf;
  for (int64_t l = 0; l < VLEN; ++l) mx = vmx[l] > mx ? vmx[l] : mx;
  for (; j < n; ++j) {
    row[j] *= scale;
    mx = row[j] > mx ? row[j] : mx;
  }
  map_lanes(n, row, row, row, [mx](const vf& v, const vf&, vf& out) {
    vexp(v - mx, out);
  });
  double denom = 0.0;
  for (j = 0; j < n; ++j) denom += row[j];
  const float inv = static_cast<float>(1.0 / denom);
  for (j = 0; j < n; ++j) row[j] *= inv;
}

void set_gemm_pack_a(bool on) {
  g_pack_a.store(on, std::memory_order_relaxed);
}

bool gemm_pack_a() { return g_pack_a.load(std::memory_order_relaxed); }

void transpose_pack(const float* src, int64_t rows, int64_t cols, int64_t ld,
                    float* dst) {
  // Whole VLEN x VLEN blocks go through registers; the rows % VLEN and
  // cols % VLEN edges are copied one element at a time.
  const int64_t rb = rows - rows % VLEN, cb = cols - cols % VLEN;
  for (int64_t r0 = 0; r0 < rb; r0 += VLEN)
    for (int64_t c0 = 0; c0 < cb; c0 += VLEN)
      transpose_block(src + r0 * ld + c0, ld, dst + c0 * rows + r0, rows);
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = r < rb ? cb : 0; c < cols; ++c)
      dst[c * rows + r] = src[r * ld + c];
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
