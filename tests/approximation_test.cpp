// Tests for the approximation framework of Section 3: S_geo (Definition
// 3.1), the minimum covering ball, the c-approximation measure (Definition
// 3.3), and Lemma 3.2 (the true geometric median lies in the convex hull of
// S_geo — tested through its covering ball).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "aggregation/approximation.hpp"
#include "aggregation/registry.hpp"
#include "geometry/subsets.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

VectorList random_points(Rng& rng, std::size_t n, std::size_t d,
                         double span = 2.0) {
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-span, span);
    pts.push_back(p);
  }
  return pts;
}

TEST(Sgeo, CountMatchesBinomial) {
  Rng rng(1);
  const VectorList pts = random_points(rng, 7, 2);
  EXPECT_EQ(compute_sgeo(pts, 2).size(), binomial(7, 5));
  EXPECT_EQ(compute_smean(pts, 1).size(), binomial(7, 6));
}

TEST(Sgeo, ZeroFaultsSingleton) {
  Rng rng(2);
  const VectorList pts = random_points(rng, 5, 3);
  const auto sgeo = compute_sgeo(pts, 0);
  ASSERT_EQ(sgeo.size(), 1u);
  EXPECT_TRUE(approx_equal(
      sgeo[0], geometric_median_point(GradientBatch::from(pts)), 1e-9));
}

TEST(Sgeo, ParallelMatchesSerial) {
  Rng rng(3);
  const VectorList pts = random_points(rng, 8, 3);
  ThreadPool pool(3);
  const auto serial = compute_sgeo(pts, 2, nullptr);
  const auto parallel = compute_sgeo(pts, 2, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(approx_equal(serial[i], parallel[i], 0.0));
  }
}

TEST(Approximation, KrumTrapGeomRulesHitTrueMedianExactly) {
  // bench_table_approx_ratio's krum-trap family: exactly n - t rows
  // arrive, so S_geo is the single median mu* of all of them and
  // r_cov = 0.  A rule then scores ratio 0 only if its output is mu* bit
  // for bit; anything else is reported as an unbounded ratio.
  const std::size_t n = 10;
  const std::size_t t = 2;
  AggregationContext ctx;
  ctx.n = n;
  ctx.t = t;
  Rng rng(41);
  for (const std::size_t d : {3u, 24u}) {
    for (int trial = 0; trial < 5; ++trial) {
      const VectorList honest = random_points(rng, n - t, d, 1.0);
      const Vector mu_star =
          geometric_median_point(GradientBatch::from(honest));
      for (const std::string name : {"GEOMED", "MD-GEOM", "BOX-GEOM"}) {
        SCOPED_TRACE(name);
        const Vector out = make_rule(name)->aggregate(honest, ctx);
        ASSERT_EQ(out.size(), d);
        EXPECT_EQ(std::memcmp(out.data(), mu_star.data(), d * sizeof(double)),
                  0);
        const auto report = measure_geo_approximation(honest, honest, 0, out);
        EXPECT_EQ(report.covering_ball.radius, 0.0);
        EXPECT_EQ(report.ratio, 0.0);
      }
    }
  }
}

TEST(Sgeo, InvalidTThrows) {
  EXPECT_THROW(compute_sgeo({{1.0}}, 1), std::invalid_argument);
}

TEST(Lemma32, TrueMedianInsideCoveringBallOfSgeo) {
  // Lemma 3.2: mu* ∈ Conv(S_geo); therefore dist(mu*, ball center) <= r_cov
  // for the minimum covering ball of S_geo.
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8;
    const std::size_t t = 2;
    const std::size_t f = 1 + rng.uniform_u64(t);  // f <= t
    VectorList honest = random_points(rng, n - f, 3);
    VectorList all = honest;
    for (std::size_t b = 0; b < f; ++b) {
      all.push_back(constant(3, rng.uniform(-50.0, 50.0)));
    }
    const Vector mu_star = geometric_median_point(GradientBatch::from(honest));
    const auto sgeo = compute_sgeo(all, t);
    const Ball ball = minimum_enclosing_ball(sgeo);
    EXPECT_LE(distance(mu_star, ball.center),
              ball.radius + 1e-3 * (1.0 + ball.radius));
  }
}

TEST(Measure, PerfectOutputHasDistanceZero) {
  Rng rng(5);
  const VectorList honest = random_points(rng, 6, 2);
  const Vector mu = geometric_median_point(GradientBatch::from(honest));
  const auto report = measure_geo_approximation(honest, honest, 1, mu);
  EXPECT_NEAR(report.distance_to_true, 0.0, 1e-9);
  EXPECT_LT(report.ratio, 1e-3);
}

TEST(Measure, RatioScalesWithDistance) {
  Rng rng(6);
  const VectorList honest = random_points(rng, 6, 2);
  const auto near_report = measure_geo_approximation(
      honest, honest, 1, geometric_median_point(GradientBatch::from(honest)));
  Vector far = geometric_median_point(GradientBatch::from(honest));
  far[0] += 100.0;
  const auto far_report = measure_geo_approximation(honest, honest, 1, far);
  EXPECT_GT(far_report.ratio, near_report.ratio);
  EXPECT_GT(far_report.ratio, 10.0);
}

TEST(Measure, ZeroRadiusZeroDistanceGivesZeroRatio) {
  // All inputs identical: S_geo is one point, r_cov = 0; an exact output
  // has ratio 0 by the Definition 3.3 convention.
  const VectorList pts(5, Vector{1.0, 2.0});
  const auto report = measure_geo_approximation(pts, pts, 1, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(report.ratio, 0.0);
}

TEST(Measure, ZeroRadiusPositiveDistanceGivesInfiniteRatio) {
  // This is precisely the mechanism of Theorems 4.1 and 4.3: a degenerate
  // candidate set with a strictly-off output.
  const VectorList pts(5, Vector{1.0, 2.0});
  const auto report = measure_geo_approximation(pts, pts, 1, {3.0, 2.0});
  EXPECT_TRUE(std::isinf(report.ratio));
}

TEST(Measure, MeanVariantUsesTrueMean) {
  Rng rng(7);
  const VectorList honest = random_points(rng, 6, 3);
  const auto report =
      measure_mean_approximation(honest, honest, 1, mean(honest));
  EXPECT_NEAR(report.distance_to_true, 0.0, 1e-12);
}

TEST(Measure, EmptyHonestThrows) {
  EXPECT_THROW(measure_geo_approximation({{1.0}}, {}, 0, {1.0}),
               std::invalid_argument);
}

// Sweep: every robust rule achieves a bounded measured ratio on generic
// adversarial inputs (the *unbounded* cases need the specific degenerate
// constructions tested in paper_claims_test.cpp).
class RuleRatioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RuleRatioTest, MeasuredRatioFiniteOnGenericInputs) {
  const auto rule = make_rule(GetParam());
  Rng rng(8);
  AggregationContext ctx;
  ctx.n = 8;
  ctx.t = 2;
  for (int trial = 0; trial < 5; ++trial) {
    VectorList honest = random_points(rng, 6, 3);
    VectorList all = honest;
    all.push_back(constant(3, 30.0));
    all.push_back(constant(3, -30.0));
    const Vector out = rule->aggregate(all, ctx);
    const auto report = measure_geo_approximation(all, honest, ctx.t, out);
    EXPECT_TRUE(std::isfinite(report.ratio)) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Rules, RuleRatioTest,
                         ::testing::Values("MD-GEOM", "BOX-GEOM", "BOX-MEAN",
                                           "MD-MEAN", "GEOMED", "CW-MEDIAN"));

}  // namespace
}  // namespace bcl
