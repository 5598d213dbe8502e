#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace ht = hanayo::tensor;

TEST(Ops, Matmul) {
  ht::Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  ht::Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  ht::Tensor c = ht::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  ht::Tensor a({2, 3});
  ht::Tensor b({2, 3});
  EXPECT_THROW(ht::matmul(a, b), std::invalid_argument);
}

TEST(Ops, MatmulVariantsAgree) {
  ht::Rng rng(7);
  ht::Tensor a = rng.randn({4, 5});
  ht::Tensor b = rng.randn({5, 3});
  ht::Tensor ref = ht::matmul(a, b);
  // matmul_bt(a, b^T) == a b
  EXPECT_TRUE(ht::allclose(ht::matmul_bt(a, ht::transpose(b)), ref, 1e-5f, 1e-6f));
  // matmul_at(a^T, b) == a b
  EXPECT_TRUE(ht::allclose(ht::matmul_at(ht::transpose(a), b), ref, 1e-5f, 1e-6f));
}

TEST(Ops, Transpose) {
  ht::Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  ht::Tensor t = ht::transpose(a);
  EXPECT_EQ(t.size(0), 3);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
}

TEST(Ops, ElementwiseBinary) {
  ht::Tensor a({2}, std::vector<float>{1, 2});
  ht::Tensor b({2}, std::vector<float>{3, 5});
  EXPECT_FLOAT_EQ(ht::add(a, b)[1], 7.0f);
  EXPECT_FLOAT_EQ(ht::sub(b, a)[0], 2.0f);
  EXPECT_FLOAT_EQ(ht::mul(a, b)[1], 10.0f);
}

TEST(Ops, ScalarOps) {
  ht::Tensor a({2}, std::vector<float>{1, 2});
  EXPECT_FLOAT_EQ(ht::add_scalar(a, 1.0f)[0], 2.0f);
  EXPECT_FLOAT_EQ(ht::mul_scalar(a, 3.0f)[1], 6.0f);
}

TEST(Ops, AddBiasAndColSum) {
  ht::Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  ht::Tensor bias({3}, std::vector<float>{10, 20, 30});
  ht::Tensor y = ht::add_bias(a, bias);
  EXPECT_FLOAT_EQ(y.at(1, 2), 36.0f);
  ht::Tensor s = ht::col_sum(a);
  EXPECT_FLOAT_EQ(s[0], 5.0f);
  EXPECT_FLOAT_EQ(s[2], 9.0f);
}

TEST(Ops, Reductions) {
  ht::Tensor a({4}, std::vector<float>{1, -2, 3, -4});
  EXPECT_FLOAT_EQ(ht::sum(a), -2.0f);
  EXPECT_FLOAT_EQ(ht::mean(a), -0.5f);
  EXPECT_FLOAT_EQ(ht::max_abs(a), 4.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  ht::Rng rng(3);
  ht::Tensor a = rng.randn({5, 7});
  ht::Tensor s = ht::softmax_lastdim(a);
  for (int64_t i = 0; i < 5; ++i) {
    float row = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      const float p = s.at(i, j);
      EXPECT_GE(p, 0.0f);
      row += p;
    }
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxIsShiftInvariant) {
  ht::Tensor a({1, 3}, std::vector<float>{1, 2, 3});
  ht::Tensor b({1, 3}, std::vector<float>{101, 102, 103});
  EXPECT_TRUE(ht::allclose(ht::softmax_lastdim(a), ht::softmax_lastdim(b), 1e-5f, 1e-6f));
}

TEST(Ops, GeluValues) {
  ht::Tensor x({3}, std::vector<float>{-1.0f, 0.0f, 1.0f});
  ht::Tensor y = ht::gelu(x);
  EXPECT_NEAR(y[0], -0.1588f, 1e-3f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_NEAR(y[2], 0.8412f, 1e-3f);
}

TEST(Ops, GeluGradMatchesFiniteDifference) {
  ht::Rng rng(11);
  ht::Tensor x = rng.randn({10});
  ht::Tensor dy = ht::Tensor::ones({10});
  ht::Tensor g = ht::gelu_grad(x, dy);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < 10; ++i) {
    ht::Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float fd = (ht::gelu(xp)[i] - ht::gelu(xm)[i]) / (2 * eps);
    EXPECT_NEAR(g[i], fd, 2e-3f) << "at " << i;
  }
}

// ---- Vector math (tensor/kernels.hpp) -----------------------------------

namespace {

// Distance in representable floats between a and b (0 = same float).
int64_t ulp_distance(float a, float b) {
  const auto ordered = [](float f) {
    int32_t i;
    std::memcpy(&i, &f, sizeof(i));
    return i < 0 ? -static_cast<int64_t>(i & 0x7fffffff) : int64_t{i};
  };
  return std::llabs(ordered(a) - ordered(b));
}

// Wider than any ISA's vector (16 floats with AVX-512), so the position
// sweeps below cross every tail shape on every build.
constexpr int64_t kMaxLanes = 16;

}  // namespace

TEST(Ops, VectorTanhMeetsItsAccuracyBound) {
  // Dense grid over [-12, 12], plus values near 0 and the ±9 saturation.
  std::vector<float> x;
  for (int64_t i = -393216; i <= 393216; ++i) x.push_back(static_cast<float>(i) / 32768.0f);
  for (const float v : {1e-30f, 3e-4f, 4e-4f, 5e-4f, 8.999999f, 9.0f, 9.000001f}) {
    x.push_back(v);
    x.push_back(-v);
  }
  std::vector<float> y(x.size());
  ht::kernels::tanh(static_cast<int64_t>(x.size()), x.data(), y.data());
  for (size_t i = 0; i < x.size(); ++i) {
    const double ref = std::tanh(static_cast<double>(x[i]));
    ASSERT_LE(ulp_distance(y[i], static_cast<float>(ref)), 8) << "x=" << x[i];
    ASSERT_LE(std::fabs(y[i] - ref), 5e-7) << "x=" << x[i];
  }
}

TEST(Ops, VectorExpMeetsItsAccuracyBound) {
  std::vector<float> x;
  for (int64_t i = -87 * 8192; i <= 0; ++i) x.push_back(static_cast<float>(i) / 8192.0f);
  for (const float v : {-1e-30f, -1e-7f, -86.99999f}) x.push_back(v);
  std::vector<float> y(x.size());
  ht::kernels::exp(static_cast<int64_t>(x.size()), x.data(), y.data());
  for (size_t i = 0; i < x.size(); ++i) {
    const float ref = static_cast<float>(std::exp(static_cast<double>(x[i])));
    ASSERT_LE(ulp_distance(y[i], ref), 2) << "x=" << x[i];
  }
}

TEST(Ops, VectorMathResultDependsOnlyOnTheInput) {
  // gelu / gelu_grad of a slice must equal the same elements of the full
  // call, whatever the slice's length (tails of every shape) and offset
  // (every lane alignment).
  ht::Rng rng(41);
  const int64_t n = 4 * kMaxLanes + 1;
  const ht::Tensor x = rng.randn({n}, 4.0f);
  const ht::Tensor dy = rng.randn({n});
  std::vector<float> gl(n), gg(n), part(n);
  ht::kernels::gelu(n, x.data(), gl.data());
  ht::kernels::gelu_grad(n, x.data(), dy.data(), gg.data());
  for (int64_t off = 0; off <= kMaxLanes; ++off) {
    for (int64_t len = 1; len <= 3 * kMaxLanes + 1 && off + len <= n; ++len) {
      ht::kernels::gelu(len, x.data() + off, part.data());
      for (int64_t i = 0; i < len; ++i)
        ASSERT_EQ(part[i], gl[off + i]) << "gelu off=" << off << " len=" << len;
      ht::kernels::gelu_grad(len, x.data() + off, dy.data() + off, part.data());
      for (int64_t i = 0; i < len; ++i)
        ASSERT_EQ(part[i], gg[off + i]) << "gelu_grad off=" << off << " len=" << len;
    }
  }
}

TEST(Ops, VectorMathPropagatesNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ht::Tensor x({5}, std::vector<float>{0.5f, nan, -1.0f, 2.0f, 3.0f});
  const ht::Tensor g = ht::gelu(x);
  const ht::Tensor gg = ht::gelu_grad(x, ht::Tensor::ones({5}));
  EXPECT_TRUE(std::isnan(g[1]));
  EXPECT_TRUE(std::isnan(gg[1]));
  EXPECT_FALSE(std::isnan(g[0]) || std::isnan(gg[0]));
  float t = 0.0f, e = 0.0f;
  ht::kernels::tanh(1, &nan, &t);
  ht::kernels::exp(1, &nan, &e);
  EXPECT_TRUE(std::isnan(t));
  EXPECT_TRUE(std::isnan(e));
  const ht::Tensor s = ht::softmax_lastdim(x.reshaped({1, 5}));
  for (int64_t j = 0; j < 5; ++j) EXPECT_TRUE(std::isnan(s[j])) << j;
}

TEST(Ops, GeluSaturatesFinitely) {
  ht::Tensor x({2}, std::vector<float>{30.0f, -30.0f});
  const ht::Tensor g = ht::gelu(x);
  const ht::Tensor gg = ht::gelu_grad(x, ht::Tensor::ones({2}));
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isfinite(g[i])) << i;
    EXPECT_TRUE(std::isfinite(gg[i])) << i;
  }
  EXPECT_FLOAT_EQ(g[0], 30.0f);
  EXPECT_EQ(g[1], 0.0f);
  EXPECT_FLOAT_EQ(gg[0], 1.0f);
  EXPECT_EQ(gg[1], 0.0f);
}

TEST(Ops, SoftmaxRowSpanningEightySumsToOne) {
  // Scores from -40 to 40: exp(x - max) reaches e^-80, far below the
  // largest term, and the row still normalises.
  const int64_t n = 224;
  std::vector<float> row(n);
  for (int64_t j = 0; j < n; ++j)
    row[j] = -40.0f + 80.0f * static_cast<float>(j) / static_cast<float>(n - 1);
  ht::kernels::softmax_row(row.data(), n, 1.0f);
  double total = 0.0;
  for (const float p : row) {
    ASSERT_GE(p, 0.0f);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_GT(row.back(), row[n - 2]);
}

TEST(Ops, MaxAbsDiffAndAllclose) {
  ht::Tensor a({2}, std::vector<float>{1, 2});
  ht::Tensor b({2}, std::vector<float>{1, 2.001f});
  EXPECT_NEAR(ht::max_abs_diff(a, b), 0.001f, 1e-6f);
  EXPECT_FALSE(ht::allclose(a, b, 1e-6f, 1e-6f));
  EXPECT_TRUE(ht::allclose(a, b, 1e-2f, 1e-2f));
  ht::Tensor c({3});
  EXPECT_FALSE(ht::allclose(a, c));
}
