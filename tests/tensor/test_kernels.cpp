// The blocked GEMM kernels against a naive reference: odd shapes that don't
// divide the register/cache blocks, degenerate extents, the accumulate
// forms, and the determinism contract — bit-identical results for 1 vs N
// intra-op threads.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace ht = hanayo::tensor;

namespace {

ht::Tensor naive_matmul(const ht::Tensor& a, const ht::Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  ht::Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      c.at(i, j) = acc;
    }
  return c;
}

// Shapes chosen to exercise every edge of the blocking: smaller than one
// micro-tile, exact multiples, one-off remainders, m=1 / k=1 rows, and
// sizes spanning a KC boundary.
struct Mnk {
  int64_t m, n, k;
};
const Mnk kShapes[] = {
    {1, 1, 1},   {1, 17, 1},  {3, 5, 2},    {6, 16, 8},   {7, 17, 9},
    {12, 32, 16}, {13, 33, 31}, {1, 64, 300}, {64, 1, 300}, {37, 41, 259},
    {48, 48, 257},
};

constexpr float kRtol = 1e-4f;
constexpr float kAtol = 1e-5f;

}  // namespace

TEST(Kernels, MatmulIntoMatchesNaiveAcrossShapes) {
  ht::Rng rng(11);
  for (const auto& s : kShapes) {
    ht::Tensor a = rng.randn({s.m, s.k});
    ht::Tensor b = rng.randn({s.k, s.n});
    ht::Tensor out({s.m, s.n});
    ht::matmul_into(a, b, out);
    EXPECT_TRUE(ht::allclose(out, naive_matmul(a, b), kRtol, kAtol))
        << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Kernels, MatmulBtAndAtMatchNaiveAcrossShapes) {
  ht::Rng rng(12);
  for (const auto& s : kShapes) {
    ht::Tensor a = rng.randn({s.m, s.k});
    ht::Tensor b = rng.randn({s.k, s.n});
    const ht::Tensor ref = naive_matmul(a, b);
    ht::Tensor out({s.m, s.n});
    ht::matmul_bt_into(a, ht::transpose(b), out);
    EXPECT_TRUE(ht::allclose(out, ref, kRtol, kAtol))
        << "bt " << s.m << "x" << s.n << "x" << s.k;
    ht::matmul_at_into(ht::transpose(a), b, out);
    EXPECT_TRUE(ht::allclose(out, ref, kRtol, kAtol))
        << "at " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Kernels, EmptyExtentsAreHandled) {
  // k = 0: the product is all zeros (and _into must overwrite stale data).
  ht::Tensor a({3, 0});
  ht::Tensor b({0, 4});
  ht::Tensor out({3, 4}, 7.0f);
  ht::matmul_into(a, b, out);
  for (float v : out.flat()) EXPECT_EQ(v, 0.0f);
  // m = 0 / n = 0: no output, no crash.
  ht::Tensor none({0, 4});
  ht::matmul_into(ht::Tensor({0, 2}), ht::Tensor({2, 4}), none);
  EXPECT_EQ(none.numel(), 0);
}

TEST(Kernels, AccumFormsAddOntoExistingOutput) {
  ht::Rng rng(13);
  ht::Tensor a = rng.randn({9, 23});
  ht::Tensor b = rng.randn({23, 14});
  const ht::Tensor prod = naive_matmul(a, b);

  ht::Tensor acc({9, 14}, 1.5f);
  ht::matmul_accum(a, b, acc);
  ht::Tensor expect = ht::add_scalar(prod, 1.5f);
  EXPECT_TRUE(ht::allclose(acc, expect, kRtol, kAtol));

  // bt/at accumulate forms agree with prod + prior contents too.
  ht::Tensor acc_bt({9, 14}, -0.25f);
  ht::matmul_bt_accum(a, ht::transpose(b), acc_bt);
  EXPECT_TRUE(ht::allclose(acc_bt, ht::add_scalar(prod, -0.25f), kRtol, kAtol));

  ht::Tensor acc_at({9, 14}, 2.0f);
  ht::matmul_at_accum(ht::transpose(a), b, acc_at);
  EXPECT_TRUE(ht::allclose(acc_at, ht::add_scalar(prod, 2.0f), kRtol, kAtol));
}

TEST(Kernels, RepeatedAccumEqualsScaledProduct) {
  ht::Rng rng(14);
  ht::Tensor a = rng.randn({6, 31});
  ht::Tensor b = rng.randn({31, 6});
  ht::Tensor grad({6, 6});
  for (int i = 0; i < 3; ++i) ht::matmul_accum(a, b, grad);
  ht::Tensor expect = ht::mul_scalar(naive_matmul(a, b), 3.0f);
  EXPECT_TRUE(ht::allclose(grad, expect, 3e-4f, 3e-5f));
}

TEST(Kernels, BitIdenticalAcrossIntraOpThreadCounts) {
  // The determinism contract behind the Threads==Reference session
  // equivalence: threads partition output rows only, so every element keeps
  // its ascending-k accumulation order. EXPECT_EQ, not allclose.
  ht::Rng rng(15);
  const Mnk shapes[] = {{64, 48, 96}, {61, 67, 73}, {257, 33, 300}};
  for (const auto& s : shapes) {
    ht::Tensor a = rng.randn({s.m, s.k});
    ht::Tensor b = rng.randn({s.k, s.n});
    ht::Tensor bt = ht::transpose(b);
    ht::Tensor at = ht::transpose(a);

    ht::Tensor r1({s.m, s.n}), r1bt({s.m, s.n}), r1at({s.m, s.n});
    {
      ht::IntraOpScope scope(1);
      ht::matmul_into(a, b, r1);
      ht::matmul_bt_into(a, bt, r1bt);
      ht::matmul_at_into(at, b, r1at);
    }
    for (int threads : {2, 4, 7}) {
      ht::IntraOpScope scope(threads);
      ht::Tensor rn({s.m, s.n}), rnbt({s.m, s.n}), rnat({s.m, s.n});
      ht::matmul_into(a, b, rn);
      ht::matmul_bt_into(a, bt, rnbt);
      ht::matmul_at_into(at, b, rnat);
      for (int64_t i = 0; i < rn.numel(); ++i) {
        ASSERT_EQ(r1[i], rn[i]) << "threads=" << threads << " i=" << i;
        ASSERT_EQ(r1bt[i], rnbt[i]) << "bt threads=" << threads << " i=" << i;
        ASSERT_EQ(r1at[i], rnat[i]) << "at threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(Kernels, PackToggleIsBitIdentical) {
  // A-panel packing is a pure layout transform: the micro-kernel streams
  // the same scalar values in the same ascending-k order from a contiguous
  // MR-strided copy, so toggling it must not change a single bit — across
  // thread counts too. Shapes straddle kPackMinK (packing engages on
  // large-k only) and include remainder rows/cols.
  ht::Rng rng(23);
  const Mnk shapes[] = {{7, 17, 9}, {48, 48, 64}, {61, 67, 300}, {1, 64, 257}};
  const bool saved = ht::kernels::gemm_pack_a();
  for (const auto& s : shapes) {
    ht::Tensor a = rng.randn({s.m, s.k});
    ht::Tensor b = rng.randn({s.k, s.n});
    ht::Tensor bt = ht::transpose(b);
    ht::Tensor at = ht::transpose(a);

    ht::Tensor packed({s.m, s.n}), pbt({s.m, s.n}), pat({s.m, s.n});
    ht::kernels::set_gemm_pack_a(true);
    ht::matmul_into(a, b, packed);
    ht::matmul_bt_into(a, bt, pbt);
    ht::matmul_at_into(at, b, pat);

    ht::Tensor plain({s.m, s.n}), ubt({s.m, s.n}), uat({s.m, s.n});
    ht::kernels::set_gemm_pack_a(false);
    ht::matmul_into(a, b, plain);
    ht::matmul_bt_into(a, bt, ubt);
    ht::matmul_at_into(at, b, uat);

    ht::kernels::set_gemm_pack_a(true);
    ht::Tensor pthr({s.m, s.n});
    {
      ht::IntraOpScope scope(4);
      ht::matmul_into(a, b, pthr);
    }

    for (int64_t i = 0; i < packed.numel(); ++i) {
      ASSERT_EQ(packed[i], plain[i]) << "m=" << s.m << " i=" << i;
      ASSERT_EQ(pbt[i], ubt[i]) << "bt m=" << s.m << " i=" << i;
      ASSERT_EQ(pat[i], uat[i]) << "at m=" << s.m << " i=" << i;
      ASSERT_EQ(packed[i], pthr[i]) << "threads m=" << s.m << " i=" << i;
    }
  }
  ht::kernels::set_gemm_pack_a(saved);
}

TEST(Kernels, VecmatIsBitIdenticalToSingleRowGemm) {
  // Paged attention's scores and probs x V run vecmat on strided page
  // panels; the paged ≡ contiguous decode identity rests on it matching
  // gemm's m = 1 path bit for bit, overwrite and accumulate alike. Widths
  // cover the scalar tail (n < one vector), one and several vectors, and
  // ragged remainders; k = 300 spans a KC boundary.
  ht::Rng rng(29);
  // n = 128, 200, 250 and 512 reach the 8- and 4-vector row tiles on both
  // vector widths, followed by the narrower tiles and the scalar tail.
  const Mnk shapes[] = {{1, 1, 1},    {1, 5, 16},    {1, 16, 16},
                        {1, 17, 7},   {1, 48, 3},    {1, 53, 300},
                        {1, 64, 16},  {1, 128, 64},  {1, 200, 16},
                        {1, 250, 33}, {1, 261, 300}, {1, 512, 7}};
  for (const auto& s : shapes) {
    const int64_t ldb = s.n + 3;  // strided, like a head slice of a page
    ht::Tensor a = rng.randn({s.k});
    ht::Tensor b = rng.randn({s.k, ldb});
    ht::Tensor c0 = rng.randn({s.n});
    for (const bool acc : {false, true}) {
      ht::Tensor want = c0, got = c0;  // value copies
      ht::kernels::gemm(1, s.n, s.k, a.data(), s.k, b.data(), ldb,
                        want.data(), s.n, acc);
      ht::kernels::vecmat(s.n, s.k, a.data(), b.data(), ldb, got.data(), acc);
      for (int64_t j = 0; j < s.n; ++j) {
        ASSERT_EQ(want[j], got[j]) << "n=" << s.n << " k=" << s.k
                                   << " acc=" << acc << " j=" << j;
      }
    }
  }
}

TEST(Kernels, RaggedRowsMatchRowwiseVecmat) {
  // Every row of gemm equals vecmat on that row, bit for bit: rows in full
  // register blocks and rows of the ragged block (fewer than MR rows, run
  // one vector row tile each) alike, so a decode step's m = 1 projection
  // reproduces the prefill row that computed the same token. m covers 1 to
  // MR + 1 and 2 MR - 1 for both register heights (MR = 6 and 8); n hits
  // every row tile width and the scalar tail; k = 257 and 300 cross KC.
  // A, B and C are strided, and the padding between C rows must survive.
  ht::Rng rng(31);
  const int64_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 15};
  const int64_t ns[] = {1, 15, 16, 17, 48, 64, 127, 128, 129, 192, 256, 512};
  const int64_t ks[] = {1, 16, 257, 300};
  for (const int64_t m : ms) {
    for (const int64_t n : ns) {
      for (const int64_t k : ks) {
        const int64_t lda = k + 5, ldb = n + 3, ldc = n + 7;
        const ht::Tensor a = rng.randn({m, lda});
        const ht::Tensor b = rng.randn({k, ldb});
        const ht::Tensor c0 = rng.randn({m, ldc});
        for (const bool acc : {false, true}) {
          ht::Tensor got = c0, want = c0;  // value copies
          ht::kernels::gemm(m, n, k, a.data(), lda, b.data(), ldb, got.data(),
                            ldc, acc);
          for (int64_t i = 0; i < m; ++i)
            ht::kernels::vecmat(n, k, a.data() + i * lda, b.data(), ldb,
                                want.data() + i * ldc, acc);
          for (int64_t i = 0; i < got.numel(); ++i) {
            ASSERT_EQ(want[i], got[i])
                << "m=" << m << " n=" << n << " k=" << k << " acc=" << acc
                << " row=" << i / ldc << " col=" << i % ldc;
          }
        }
      }
    }
  }
}

TEST(Kernels, RowWiseOpsBitIdenticalAcrossThreadCounts) {
  // 129 x 65 stays below the elementwise grain (16,384) and runs in one
  // chunk; 263 x 129 = 33,927 exceeds twice the grain, so gelu and
  // gelu_grad split across threads at boundaries that cut a vector, and
  // the total leaves a ragged sub-vector tail.
  ht::Rng rng(16);
  for (const auto& shape : {ht::Shape{129, 65}, ht::Shape{263, 129}}) {
    const ht::Tensor x = rng.randn(shape);
    const ht::Tensor dy = rng.randn(shape);
    const ht::Tensor bias = rng.randn({shape[1]});

    ht::Tensor sm1, gl1, gg1, ab1, cs1;
    {
      ht::IntraOpScope scope(1);
      sm1 = ht::softmax_lastdim(x);
      gl1 = ht::gelu(x);
      gg1 = ht::gelu_grad(x, dy);
      ab1 = ht::add_bias(x, bias);
      cs1 = ht::col_sum(x);
    }
    {
      ht::IntraOpScope scope(5);
      const ht::Tensor smn = ht::softmax_lastdim(x);
      const ht::Tensor gln = ht::gelu(x);
      const ht::Tensor ggn = ht::gelu_grad(x, dy);
      const ht::Tensor abn = ht::add_bias(x, bias);
      const ht::Tensor csn = ht::col_sum(x);
      for (int64_t i = 0; i < x.numel(); ++i) {
        ASSERT_EQ(sm1[i], smn[i]) << i;
        ASSERT_EQ(gl1[i], gln[i]) << i;
        ASSERT_EQ(gg1[i], ggn[i]) << i;
        ASSERT_EQ(ab1[i], abn[i]) << i;
      }
      for (int64_t j = 0; j < cs1.numel(); ++j) ASSERT_EQ(cs1[j], csn[j]) << j;
    }
  }
}

TEST(Kernels, StridedPanelsMultiplyCorrectly) {
  // The attention path multiplies strided slices of a wider tensor; check
  // the raw-pointer entry points against the dense equivalents.
  ht::Rng rng(17);
  const int64_t t = 7, dk = 5, wide = 3 * dk;
  ht::Tensor panel = rng.randn({t, wide});  // rows hold [q | k | v]
  ht::Tensor q({t, dk}), k({t, dk});
  for (int64_t i = 0; i < t; ++i)
    for (int64_t d = 0; d < dk; ++d) {
      q.at(i, d) = panel.at(i, d);
      k.at(i, d) = panel.at(i, dk + d);
    }
  ht::Tensor dense({t, t});
  ht::matmul_bt_into(q, k, dense);

  ht::Tensor strided({t, t});
  ht::kernels::gemm_bt(t, t, dk, panel.data(), wide, panel.data() + dk, wide,
                       strided.data(), t, false);
  for (int64_t i = 0; i < dense.numel(); ++i) ASSERT_EQ(dense[i], strided[i]);
}

TEST(Kernels, TransposeIntoMatchesElementwise) {
  ht::Rng rng(18);
  ht::Tensor a = rng.randn({37, 53});
  ht::Tensor t({53, 37});
  ht::transpose_into(a, t);
  for (int64_t i = 0; i < 37; ++i)
    for (int64_t j = 0; j < 53; ++j) ASSERT_EQ(t.at(j, i), a.at(i, j));
}

TEST(Kernels, TransposePackMatchesElementwise) {
  // Whole VLEN x VLEN blocks go through register transposes and the edges
  // are copied one by one; sizes straddle both vector widths (8 and 16)
  // and read a strided source.
  ht::Rng rng(19);
  const int64_t sizes[] = {1, 7, 8, 15, 16, 17, 33, 64, 192, 257};
  for (const int64_t rows : sizes) {
    for (const int64_t cols : sizes) {
      const int64_t ld = cols + 3;
      const ht::Tensor src = rng.randn({rows, ld});
      std::vector<float> dst(static_cast<size_t>(rows * cols), -1.0f);
      ht::kernels::transpose_pack(src.data(), rows, cols, ld, dst.data());
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c)
          ASSERT_EQ(dst[static_cast<size_t>(c * rows + r)], src[r * ld + c])
              << rows << "x" << cols << " r=" << r << " c=" << c;
    }
  }
}

namespace {

// C = or += op(A) * op(B) through gemm_at (transpose_a) or gemm_bt, checked
// bit for bit against gemm on explicitly transposed copies. A, B and C are
// strided, and the padding between C rows must survive.
void expect_gemm_on_transposed_copy(bool transpose_a, ht::Rng& rng) {
  // m covers 1, MR - 1, MR, MR + 1 and 2 MR + 3 for both register heights
  // (MR = 6 and 8); k crosses kPackMinK (64) and KC (256).
  const int64_t ms[] = {1, 5, 6, 7, 8, 9, 15, 19, 64, 192};
  const int64_t ns[] = {1, 15, 16, 17, 48, 129};
  const int64_t ks[] = {1, 31, 64, 257, 300};
  for (const int64_t m : ms) {
    for (const int64_t n : ns) {
      for (const int64_t k : ks) {
        const int64_t lda = k + 5, ldb = n + 3, ldc = n + 7;
        const ht::Tensor a = rng.randn({m, lda});  // A (m x k)
        const ht::Tensor b = rng.randn({k, ldb});  // B (k x n)
        const ht::Tensor c0 = rng.randn({m, ldc});
        // The transposed operand, A^T (k x m) or B^T (n x k), with its own
        // row padding.
        const int64_t ldt = (transpose_a ? m : k) + 2;
        ht::Tensor t({transpose_a ? k : n, ldt});
        for (int64_t kk = 0; kk < k; ++kk) {
          if (transpose_a) {
            for (int64_t i = 0; i < m; ++i) t[kk * ldt + i] = a[i * lda + kk];
          } else {
            for (int64_t j = 0; j < n; ++j) t[j * ldt + kk] = b[kk * ldb + j];
          }
        }
        for (const bool acc : {false, true}) {
          ht::Tensor want = c0, got = c0;  // value copies
          ht::kernels::gemm(m, n, k, a.data(), lda, b.data(), ldb,
                            want.data(), ldc, acc);
          if (transpose_a) {
            ht::kernels::gemm_at(m, n, k, t.data(), ldt, b.data(), ldb,
                                 got.data(), ldc, acc);
          } else {
            ht::kernels::gemm_bt(m, n, k, a.data(), lda, t.data(), ldt,
                                 got.data(), ldc, acc);
          }
          for (int64_t i = 0; i < got.numel(); ++i) {
            ASSERT_EQ(want[i], got[i])
                << (transpose_a ? "at" : "bt") << " m=" << m << " n=" << n
                << " k=" << k << " acc=" << acc << " row=" << i / ldc
                << " col=" << i % ldc;
          }
        }
      }
    }
  }
}

}  // namespace

TEST(Kernels, GemmAtIsBitIdenticalToGemmOnTransposedA) {
  // gemm_at reads A^T in place through its strides: same values, same
  // ascending-k order per element as gemm on a transposed copy.
  ht::Rng rng(20);
  expect_gemm_on_transposed_copy(true, rng);
}

TEST(Kernels, GemmBtIsBitIdenticalToGemmOnTransposedB) {
  // matmul_bt_into(a, transpose(b)) ≡ matmul_into(a, b), with n and k off
  // the vector width so the pack takes its scalar edges as well as whole
  // register-transposed blocks.
  ht::Rng rng(21);
  expect_gemm_on_transposed_copy(false, rng);
}

TEST(Kernels, IntoFormsRejectBadOutputShapes) {
  ht::Tensor a({2, 3});
  ht::Tensor b({3, 4});
  ht::Tensor wrong({4, 2});
  EXPECT_THROW(ht::matmul_into(a, b, wrong), std::invalid_argument);
  EXPECT_THROW(ht::matmul_accum(a, b, wrong), std::invalid_argument);
  ht::Tensor bad_inner({4, 4});
  ht::Tensor out({2, 4});
  EXPECT_THROW(ht::matmul_into(a, bad_inner, out), std::invalid_argument);
}

TEST(Parallel, ParallelForCoversRangeExactlyOnce) {
  ht::IntraOpScope scope(4);
  std::vector<std::atomic<int>> hits(1001);
  ht::parallel_for(1001, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, NestedParallelForRunsInline) {
  ht::IntraOpScope scope(4);
  std::atomic<int> total{0};
  ht::parallel_for(8, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      ht::parallel_for(16, 1,
                       [&](int64_t b2, int64_t e2) {
                         total += static_cast<int>(e2 - b2);
                       });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(Parallel, IntraOpScopeRestoresSetting) {
  ht::set_intra_op_threads(1);
  {
    ht::IntraOpScope scope(6);
    EXPECT_EQ(ht::intra_op_threads(), 6);
  }
  EXPECT_EQ(ht::intra_op_threads(), 1);
}
