#pragma once
// Blocked, SIMD-friendly compute kernels for the tensor substrate.
//
// The raw `kernels::gemm*` entry points operate on strided float panels so
// the model layer can multiply slices of larger tensors (per-head Q/K/V
// panels inside a [b, t, 3h] projection, weight matrices inside parameter
// structs) without materialising transposes or copies. The Tensor-level
// `*_into` / `*_accum` wrappers write into caller-owned outputs and
// accumulate into gradients without temporaries.
//
// Determinism contract: for a given problem, every output element is
// accumulated in ascending-k order regardless of blocking, SIMD width or
// the intra-op thread count. Threads partition output *rows* only, so the
// per-element reduction order never changes and results are bit-identical
// for 1 and N intra-op threads — the property the Threads-vs-Reference
// session equivalence tests rely on.

#include "tensor/tensor.hpp"

namespace hanayo::tensor::kernels {

/// C (m x n, row stride ldc) = or += A (m x k, lda) * B (k x n, ldb).
/// Cache-blocked with an MR x NR register micro-kernel whose inner loop is
/// contiguous in B and C rows (vectorisable, FMA-able): MR x NR is 8 x 48
/// on AVX-512 and 6 x 16 otherwise. A ragged row block (fewer than MR
/// rows: every m = 1 decode projection, and the last m % MR rows) runs
/// vecmat's one-row vector tiles, one row at a time. Only the sub-vector
/// column remainder (n % VLEN) takes the scalar edge tile. Which kernel
/// serves a row depends only on m, and all of them run the same ascending-k
/// multiply-add per element, so gemm's row i equals vecmat on that row bit
/// for bit. When `accumulate` is false C is overwritten, otherwise the
/// product is added to it.
void gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate);

/// C (m x n, ldc) = or += A (m x k, lda) * B^T where B is n x k (ldb).
/// B is packed transposed into a per-thread scratch once, then reuses the
/// contiguous-inner-loop kernel; no caller-visible transpose temporary.
void gemm_bt(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// C (m x n, ldc) = or += A^T * B where A is k x m (lda) and B is k x n
/// (ldb). A is packed transposed into a per-thread scratch.
void gemm_at(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// c (n) = or += a (k) * B (k x n, ldb): the m = 1 product, vectorised
/// across c without gemm's packing, k-blocking or scratch. A single row has
/// no other rows to overlap, so each element is one serial FMA chain and
/// only width hides the FMA latency: c is covered by tiles of 8, 4, NV (3
/// on AVX-512, 2 otherwise) and 1 vectors of VLEN (16 or 8) floats, then
/// the scalar edge tile. Every element accumulates one multiply-add per kk
/// in ascending-kk order, starting from zero (or from c) — the sequence
/// gemm(1, n, k, a, k, b, ldb, c, n, accumulate) runs — so the two agree
/// bitwise.
void vecmat(int64_t n, int64_t k, const float* a, const float* b,
            int64_t ldb, float* c, bool accumulate);

/// Elementwise vector math over n floats; y may alias x. Every element
/// runs the same vector instruction sequence (the sub-vector tail is
/// padded to a full vector), so its value depends only on its input: not
/// on its index, its thread chunk or the thread count. No libm call.
/// tanh: within 8 ulp and 5e-7 absolute of tanh on [-12, 12], exactly ±1
/// for |x| >= 9. exp: within 2 ulp on [-87, 0], 0 below about -87.3.
/// NaN in, NaN out for both.
void tanh(int64_t n, const float* x, float* y);
void exp(int64_t n, const float* x, float* y);

/// y = GELU(x), tanh approximation 0.5 x (1 + tanh(sqrt(2/pi) (x +
/// 0.044715 x^3))), on the vector tanh above; y may alias x.
void gelu(int64_t n, const float* x, float* y);
/// dx = dy * GELU'(x) with the same tanh.
void gelu_grad(int64_t n, const float* x, const float* dy, float* dx);

/// In place: row = softmax(scale * row) over n > 0 floats, scale > 0.
/// Scales, takes the max, exponentiates (vector exp), sums in double in
/// ascending order and normalises — the one softmax row every attention
/// path and softmax_lastdim share. A NaN anywhere makes the row NaN.
void softmax_row(float* row, int64_t n, float scale);

/// dst (cols x rows, dense) = transpose of src (rows x cols, row stride
/// ld). Cache-blocked; also the packing primitive behind gemm_bt/gemm_at.
void transpose_pack(const float* src, int64_t rows, int64_t cols, int64_t ld,
                    float* dst);

/// A-panel packing toggle (default on). When enabled, large-k gemms copy
/// each thread's full-MR row blocks of A into contiguous MR-strided
/// panels once and stream the micro-kernel from the packed copy — same
/// values, same ascending-k per-element FMA order, so results stay
/// bitwise identical to the unpacked path (the bench and the kernel
/// tests A/B this switch to prove both claims).
void set_gemm_pack_a(bool on);
bool gemm_pack_a();

}  // namespace hanayo::tensor::kernels

namespace hanayo::tensor {

/// out (m x n) = a (m x k) * b (k x n); out must be pre-shaped {m, n}.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);
/// out += a * b (gradient accumulation without a temporary).
void matmul_accum(const Tensor& a, const Tensor& b, Tensor& out);

/// out (m x n) = a (m x k) * b^T with b (n x k).
void matmul_bt_into(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_bt_accum(const Tensor& a, const Tensor& b, Tensor& out);

/// out (m x n) = a^T * b with a (k x m), b (k x n).
void matmul_at_into(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_at_accum(const Tensor& a, const Tensor& b, Tensor& out);

/// out (n x m) = transpose of 2-d a (m x n); out must be pre-shaped.
void transpose_into(const Tensor& a, Tensor& out);

}  // namespace hanayo::tensor
