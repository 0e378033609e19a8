// Tests for the extended robust baselines (RFA, centered clipping, norm
// clipping) and the smoothed Weiszfeld solver they build on.

#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/registry.hpp"
#include "aggregation/robust_baselines.hpp"
#include "geometry/weiszfeld.hpp"
#include "linalg/hyperbox.hpp"
#include "util/rng.hpp"

namespace bcl {
namespace {

AggregationContext ctx_of(std::size_t n, std::size_t t) {
  AggregationContext ctx;
  ctx.n = n;
  ctx.t = t;
  return ctx;
}

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

// --- smoothed Weiszfeld ---

TEST(SmoothedWeiszfeld, ApproachesExactMedianAsNuShrinks) {
  Rng rng(1);
  const GradientBatch pts = GradientBatch::from(random_points(rng, 9, 3));
  const Vector exact = geometric_median_point(pts);
  double previous = 1e300;
  for (const double nu : {1.0, 1e-2, 1e-5}) {
    const auto smoothed = smoothed_geometric_median(pts, nu);
    const double err = distance(smoothed.point, exact);
    EXPECT_LE(err, previous + 1e-9);
    previous = err;
  }
  EXPECT_LT(previous, 1e-3);
}

TEST(SmoothedWeiszfeld, HandlesCoincidentPointsWithoutSingularity) {
  // Exact Weiszfeld needs Kuhn's anchor handling here; the smoothed
  // iteration sails through because weights are capped at 1/nu.
  const GradientBatch pts = GradientBatch::from(
      {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}});
  const auto result = smoothed_geometric_median(pts, 1e-3);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(distance(result.point, {0.0, 0.0}), 0.05);
}

TEST(SmoothedWeiszfeld, RejectsBadArguments) {
  EXPECT_THROW(smoothed_geometric_median({}, 0.1), std::invalid_argument);
  EXPECT_THROW(smoothed_geometric_median(GradientBatch::from({{1.0}}), 0.0),
               std::invalid_argument);
  EXPECT_THROW(smoothed_geometric_median(GradientBatch::from({{1.0}}), -1.0),
               std::invalid_argument);
}

TEST(SmoothedWeiszfeld, SinglePointIdentity) {
  const auto result =
      smoothed_geometric_median(GradientBatch::from({{7.0, -2.0}}), 0.1);
  EXPECT_EQ(result.point, (Vector{7.0, -2.0}));
  EXPECT_TRUE(result.converged);
}

// --- RFA ---

TEST(Rfa, MatchesGeometricMedianOnCleanData) {
  Rng rng(2);
  const VectorList pts = random_points(rng, 8, 3);
  RfaRule rfa;
  const Vector out = rfa.aggregate(pts, ctx_of(8, 2));
  const Vector exact = geometric_median_point(GradientBatch::from(pts));
  EXPECT_LT(distance(out, exact), 1e-3 * (1.0 + norm2(exact)));
}

TEST(Rfa, RobustToOutliers) {
  Rng rng(3);
  VectorList honest = random_points(rng, 8, 3, 1.0);
  VectorList all = honest;
  all.push_back(constant(3, 1000.0));
  all.push_back(constant(3, -1000.0));
  RfaRule rfa;
  const Vector out = rfa.aggregate(all, ctx_of(10, 2));
  EXPECT_TRUE(Hyperbox::bounding(GradientBatch::from(honest))
                  .inflated(1.0)
                  .contains(out, 1e-6));
}

// --- centered clipping ---

TEST(CenteredClipping, IdentityOnUnanimousInputs) {
  CenteredClippingRule rule;
  const VectorList pts(6, Vector{2.0, -3.0});
  EXPECT_TRUE(approx_equal(rule.aggregate(pts, ctx_of(6, 1)), {2.0, -3.0},
                           1e-9));
}

TEST(CenteredClipping, ClipsLargeOutliers) {
  CenteredClippingRule rule;
  const VectorList pts{{0.0}, {0.1}, {-0.1}, {0.05}, {1000.0}};
  const Vector out = rule.aggregate(pts, ctx_of(5, 1));
  // The outlier's influence is capped at the clip radius per iteration.
  EXPECT_LT(std::abs(out[0]), 1.0);
}

TEST(CenteredClipping, TranslationEquivariant) {
  Rng rng(4);
  CenteredClippingRule rule;
  const VectorList pts = random_points(rng, 7, 3);
  const Vector shift{5.0, -2.0, 9.0};
  VectorList shifted;
  for (const auto& p : pts) shifted.push_back(add(p, shift));
  const Vector a = rule.aggregate(pts, ctx_of(7, 2));
  const Vector b = rule.aggregate(shifted, ctx_of(7, 2));
  EXPECT_TRUE(approx_equal(add(a, shift), b, 1e-9));
}

// --- norm clipping ---

TEST(NormClipping, BoundsEveryContributionByMedianNorm) {
  NormClippingRule rule;
  const VectorList pts{{1.0, 0.0}, {0.0, 1.0}, {0.6, 0.8}, {100.0, 0.0},
                       {0.0, -100.0}};
  const Vector out = rule.aggregate(pts, ctx_of(5, 2));
  // Median norm is 1; the mean of 5 clipped vectors has norm <= 1.
  EXPECT_LE(norm2(out), 1.0 + 1e-9);
}

TEST(NormClipping, LeavesSmallVectorsAlone) {
  NormClippingRule rule;
  const VectorList pts{{0.2, 0.0}, {0.0, 0.2}, {0.1, 0.1}};
  const Vector out = rule.aggregate(pts, ctx_of(3, 0));
  EXPECT_TRUE(approx_equal(out, mean(pts), 1e-12));
}

// --- registry wiring ---

TEST(ExtendedRegistry, CreatesAllExtendedRules) {
  for (const auto& name : extended_rule_names()) {
    const auto rule = make_rule(name);
    ASSERT_NE(rule, nullptr);
    EXPECT_EQ(rule->name(), name);
  }
}

class ExtendedRuleRobustnessTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtendedRuleRobustnessTest, SurvivesColludingOutliers) {
  const auto rule = make_rule(GetParam());
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    VectorList honest = random_points(rng, 8, 3, 1.0);
    VectorList all = honest;
    all.push_back(constant(3, 1e4));
    all.push_back(constant(3, -1e4));
    const Vector out = rule->aggregate(all, ctx_of(10, 2));
    // Outliers in opposite directions: the robust estimate must stay within
    // a moderate blow-up of the honest box (the mean would be at ~2000).
    EXPECT_TRUE(Hyperbox::bounding(GradientBatch::from(honest))
                    .inflated(2.0)
                    .contains(out, 1e-6))
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Extended, ExtendedRuleRobustnessTest,
                         ::testing::Values("RFA", "CCLIP", "NORM-CLIP"));

}  // namespace
}  // namespace bcl
