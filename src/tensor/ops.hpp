#pragma once
// Numerical ops used by the model substrate.
//
// The GEMM variants and the row-wise ops are backed by the blocked,
// intra-op-parallel kernels in tensor/kernels.hpp. Every op keeps a fixed
// per-element summation order that is independent of blocking and thread
// count — determinism still matters more than raw speed, because the test
// suite compares pipeline-parallel training against a sequential baseline.
// Hot paths that want to avoid the returned temporaries should call the
// `*_into` / `*_accum` forms in tensor/kernels.hpp directly.

#include "tensor/tensor.hpp"

namespace hanayo::tensor {

/// C = A (m×k) * B (k×n). A and B must be 2-d.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A (m×k) * B^T (n×k). Used for backward passes without materialising
/// the transpose.
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// C = A^T (k×m) * B (k×n).
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// 2-d transpose.
Tensor transpose(const Tensor& a);

/// Elementwise binary ops (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

/// Scalar ops.
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

/// Adds a length-n bias row to every row of a (..., n) tensor.
Tensor add_bias(const Tensor& a, const Tensor& bias);
/// In-place form: a += bias on every row (no copy; the Linear epilogue).
void add_bias_(Tensor& a, const Tensor& bias);

/// Column-wise sum of a 2-d tensor -> length-n vector. (Bias gradient.)
Tensor col_sum(const Tensor& a);
/// Accumulating form: out += column sums of a (..., n); out has length n.
/// Columns are split across threads, each summed over rows in ascending
/// order, so the result is thread-count independent.
void col_sum_accum(const Tensor& a, Tensor& out);

/// Full reductions.
float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);

/// Row-wise softmax over the last dimension (any rank; treated as 2-d).
/// Each row runs kernels::softmax_row with scale 1: max, vector exp (within
/// 2 ulp of exp), a double sum in ascending order, normalise.
Tensor softmax_lastdim(const Tensor& a);

/// GELU (tanh approximation) and its derivative given the forward input,
/// on the vector tanh of tensor/kernels.hpp: within 8 ulp and 5e-7
/// absolute of tanh on [-12, 12] and exactly ±1 once |argument| >= 9, so
/// for large |x| gelu(x) is x (or 0) and gelu_grad's factor 1 (or 0). Each
/// element's value depends only on its input, never on the thread count.
Tensor gelu(const Tensor& a);
Tensor gelu_grad(const Tensor& x, const Tensor& dy);

/// max elementwise |a - b|; used heavily in tests.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// true iff all |a-b| <= atol + rtol*|b| elementwise and shapes match.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace hanayo::tensor
