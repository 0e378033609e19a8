// ml::Conv2D against the im2col oracle (tests/conv2d_oracle.hpp), bit for
// bit: forward outputs, input gradients, and parameter gradients from
// backward() and from backward_params(), accumulated over two backward
// calls, on generated shapes and values that include signed zeros and
// 1e6 magnitudes.  The oracle's own contracts are pinned down here too:
// its gemm adds each entry strictly in order, and its im2col path matches
// the direct loop nest.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "conv2d_oracle.hpp"
#include "linalg/kernels.hpp"
#include "ml/conv2d.hpp"
#include "util/rng.hpp"

namespace bcl {
namespace {

using test::ConvOracle;
using test::oracle_of;

void fill_uniform(ml::Tensor& t, Rng& rng) {
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-2.0, 2.0);
}

// Mostly O(1) values, with signed zeros and 1e6 magnitudes mixed in.
double awkward_value(Rng& rng) {
  switch (rng.uniform_u64(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return rng.uniform(-1e6, 1e6);
    default:
      return rng.uniform(-2.0, 2.0);
  }
}

void fill_awkward(ml::Tensor& t, Rng& rng) {
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = awkward_value(rng);
}

// memcmp equality, reporting the first differing entry.
::testing::AssertionResult bitwise_equal(const double* got,
                                         const double* want, std::size_t n) {
  if (std::memcmp(got, want, n * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(got + i, want + i, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "entry " << i << " of " << n << ": " << got[i] << " vs "
             << want[i];
    }
  }
  return ::testing::AssertionFailure();
}

::testing::AssertionResult bitwise_equal(const ml::Tensor& got,
                                         const ml::Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  return bitwise_equal(got.data(), want.data(), got.size());
}

std::vector<double> gradients_of(const ml::Conv2D& conv) {
  std::vector<double> out(conv.parameter_count());
  conv.read_gradients(out.data());
  return out;
}

// --- the oracle's own contracts --------------------------------------------

TEST(ConvOracle, MatmulAbtIsBitwiseSequentialPerEntry) {
  Rng rng(30);
  const std::size_t ma = 5, mb = 11, k = 37;
  std::vector<double> a(ma * k), b(mb * k);
  for (auto& v : a) v = rng.uniform(-3.0, 3.0);
  for (auto& v : b) v = rng.uniform(-3.0, 3.0);
  std::vector<double> c0(ma * mb, 0.0);
  test::matmul_abt(a.data(), ma, b.data(), mb, k, c0.data(), mb);
  std::vector<double> c1(ma * mb, 0.5);  // non-zero seed (the conv bias case)
  test::matmul_abt(a.data(), ma, b.data(), mb, k, c1.data(), mb);
  for (std::size_t i = 0; i < ma; ++i) {
    for (std::size_t j = 0; j < mb; ++j) {
      // The accumulator is seeded with the existing C value and products
      // are added in increasing k — with a zero seed that is exactly
      // dot_seq.
      EXPECT_EQ(c0[i * mb + j],
                kernels::dot_seq(a.data() + i * k, b.data() + j * k, k));
      double seeded = 0.5;
      for (std::size_t kk = 0; kk < k; ++kk) {
        seeded += a[i * k + kk] * b[j * k + kk];
      }
      EXPECT_EQ(c1[i * mb + j], seeded);
    }
  }
}

void compare_im2col_with_direct(std::size_t in_c, std::size_t out_c,
                                std::size_t k, std::size_t pad, std::size_t n,
                                std::size_t h, std::size_t w,
                                std::uint64_t seed) {
  ml::Conv2D layer(in_c, out_c, k, pad);
  Rng init(seed);
  layer.initialize(init);
  ConvOracle im2col = oracle_of(layer);
  ConvOracle direct = oracle_of(layer);

  Rng data(seed + 1);
  ml::Tensor x({n, in_c, h, w});
  fill_uniform(x, data);
  const ml::Tensor y_im2col = im2col.forward_im2col(x);
  const ml::Tensor y_direct = direct.forward_direct(x);
  // Forward is exact: the gemm accumulates each output in the same
  // (ic, kh, kw) order as the direct loops, bias first.
  EXPECT_TRUE(bitwise_equal(y_im2col, y_direct));

  ml::Tensor gy(y_im2col.shape());
  fill_uniform(gy, data);
  const ml::Tensor gx_im2col = im2col.backward_im2col(x, gy);
  const ml::Tensor gx_direct = direct.backward_direct(x, gy);
  const std::vector<double> g_im2col = im2col.gradients();
  const std::vector<double> g_direct = direct.gradients();
  // Backward contributions arrive in a different order (per-position
  // scatter vs per-entry gemm), so agreement is to rounding, not bitwise.
  for (std::size_t i = 0; i < gx_im2col.size(); ++i) {
    EXPECT_NEAR(gx_im2col[i], gx_direct[i],
                1e-12 * (1.0 + std::abs(gx_direct[i])));
  }
  for (std::size_t i = 0; i < g_im2col.size(); ++i) {
    EXPECT_NEAR(g_im2col[i], g_direct[i],
                1e-12 * (1.0 + std::abs(g_direct[i])));
  }
}

TEST(Im2colConv, MatchesDirectNoPadding) {
  compare_im2col_with_direct(1, 1, 2, 0, 1, 3, 3, 51);
  compare_im2col_with_direct(2, 3, 3, 0, 2, 5, 4, 52);
}

TEST(Im2colConv, MatchesDirectWithPadding) {
  compare_im2col_with_direct(2, 4, 3, 1, 2, 5, 5, 53);
  compare_im2col_with_direct(3, 2, 3, 2, 1, 4, 6, 54);
}

// --- the layer against the oracle ------------------------------------------

struct Shape {
  std::size_t in_c, out_c, k, pad, h, w;
};

std::string describe(const Shape& s, std::size_t batch) {
  return "in_c=" + std::to_string(s.in_c) + " out_c=" +
         std::to_string(s.out_c) + " k=" + std::to_string(s.k) +
         " pad=" + std::to_string(s.pad) + " h=" + std::to_string(s.h) +
         " w=" + std::to_string(s.w) + " batch=" + std::to_string(batch);
}

// Two forward/backward pairs (batches `batch` and `batch2`) through the
// layer's backward(), a second layer's backward_params() and the oracle;
// every output, input gradient and accumulated parameter gradient must be
// bitwise the oracle's.
void check_against_oracle(const Shape& s, std::size_t batch,
                          std::size_t batch2, Rng& rng) {
  SCOPED_TRACE(describe(s, batch));
  ml::Conv2D layer(s.in_c, s.out_c, s.k, s.pad);
  std::vector<double> params(layer.parameter_count());
  for (double& v : params) v = awkward_value(rng);
  layer.write_parameters(params.data());
  ml::Conv2D params_only(s.in_c, s.out_c, s.k, s.pad);
  params_only.write_parameters(params.data());
  ConvOracle oracle = oracle_of(layer);

  for (const std::size_t n : {batch, batch2}) {
    ml::Tensor x({n, s.in_c, s.h, s.w});
    fill_awkward(x, rng);
    const ml::Tensor y = layer.forward(x);
    const ml::Tensor y_want = oracle.forward_im2col(x);
    ASSERT_TRUE(bitwise_equal(y, y_want)) << "forward";
    ASSERT_TRUE(bitwise_equal(params_only.forward(x), y_want));

    ml::Tensor gy(y.shape());
    fill_awkward(gy, rng);
    const ml::Tensor gx = layer.backward(gy);
    params_only.backward_params(gy);
    const ml::Tensor gx_want = oracle.backward_im2col(x, gy);
    ASSERT_TRUE(bitwise_equal(gx, gx_want)) << "input gradient";
  }
  const std::vector<double> want = oracle.gradients();
  EXPECT_TRUE(bitwise_equal(gradients_of(layer).data(), want.data(),
                            want.size()))
      << "parameter gradients";
  EXPECT_TRUE(bitwise_equal(gradients_of(params_only).data(), want.data(),
                            want.size()))
      << "params-only gradients";
}

TEST(Conv2DOracle, GeneratedShapesMatchBitwise) {
  Rng rng(2024);
  const std::size_t batches[] = {1, 3, 16};
  std::size_t cases = 0;
  for (const std::size_t in_c : {1, 3, 4}) {
    for (const std::size_t out_c : {1, 4, 8}) {
      for (const std::size_t k : {1, 2, 3, 5}) {
        for (const std::size_t pad : {0, 1, 2}) {
          for (std::size_t b = 0; b < 3; ++b) {
            // Non-square h x w, each in [k, 16].
            const std::size_t h = k + rng.uniform_u64(17 - k);
            std::size_t w = h;
            while (w == h) w = k + rng.uniform_u64(17 - k);
            check_against_oracle({in_c, out_c, k, pad, h, w}, batches[b],
                                 batches[(b + 1) % 3], rng);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 324u);
}

// CifarNet's two convolutions at the reduced scale the benchmark trains.
TEST(Conv2DOracle, CifarNetLayersMatchBitwise) {
  Rng rng(77);
  check_against_oracle({3, 4, 5, 2, 16, 16}, 16, 32, rng);
  check_against_oracle({4, 8, 5, 2, 8, 8}, 16, 32, rng);
}

}  // namespace
}  // namespace bcl
