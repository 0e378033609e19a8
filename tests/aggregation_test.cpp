// Tests for src/aggregation: every aggregation rule against hand-computed
// cases, shared invariants (permutation/translation equivariance, trusted-
// box validity), and the counterexample constructions behind the paper's
// Theorems 4.1 / 4.3.

#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/approximation.hpp"
#include "aggregation/hyperbox_rules.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/minimum_diameter_rules.hpp"
#include "aggregation/registry.hpp"
#include "aggregation/simple_rules.hpp"
#include "geometry/min_diameter.hpp"
#include "geometry/subsets.hpp"
#include "geometry/weiszfeld.hpp"
#include "linalg/stats.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

AggregationContext ctx_of(std::size_t n, std::size_t t) {
  AggregationContext ctx;
  ctx.n = n;
  ctx.t = t;
  return ctx;
}

VectorList random_points(Rng& rng, std::size_t n, std::size_t d,
                         double span = 4.0) {
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-span, span);
    pts.push_back(p);
  }
  return pts;
}

// --- validation shared by all rules ---

TEST(RuleValidation, RejectsBadContexts) {
  MeanRule rule;
  const VectorList one{{1.0}};
  EXPECT_THROW(rule.aggregate(one, ctx_of(0, 0)), std::invalid_argument);
  EXPECT_THROW(rule.aggregate(one, ctx_of(2, 2)), std::invalid_argument);
}

TEST(RuleValidation, RejectsTooFewVectors) {
  MeanRule rule;
  // n = 4, t = 1 -> need at least 3.
  EXPECT_THROW(rule.aggregate({{1.0}, {2.0}}, ctx_of(4, 1)),
               std::invalid_argument);
}

TEST(RuleValidation, RejectsTooManyVectors) {
  MeanRule rule;
  EXPECT_THROW(rule.aggregate({{1.0}, {2.0}, {3.0}}, ctx_of(2, 0)),
               std::invalid_argument);
}

TEST(RuleValidation, RejectsMixedDimensions) {
  MeanRule rule;
  EXPECT_THROW(rule.aggregate({{1.0}, {2.0, 3.0}}, ctx_of(2, 0)),
               std::invalid_argument);
}

// --- simple rules ---

TEST(MeanRule, MatchesArithmeticMean) {
  MeanRule rule;
  const Vector out =
      rule.aggregate({{0.0, 0.0}, {2.0, 4.0}, {4.0, 2.0}}, ctx_of(3, 0));
  EXPECT_EQ(out, (Vector{2.0, 2.0}));
}

TEST(GeometricMedianRule, MatchesWeiszfeld) {
  GeometricMedianRule rule;
  const VectorList pts{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const Vector out = rule.aggregate(pts, ctx_of(4, 0));
  EXPECT_TRUE(approx_equal(out, {1.0, 1.0}, 1e-7));
}

TEST(MedoidRule, ReturnsAnInputVector) {
  MedoidRule rule;
  const VectorList pts{{0.0}, {1.0}, {2.0}, {9.0}};
  const Vector out = rule.aggregate(pts, ctx_of(4, 1));
  bool is_input = false;
  for (const auto& p : pts) {
    if (p == out) is_input = true;
  }
  EXPECT_TRUE(is_input);
}

TEST(CoordinatewiseMedianRule, IgnoresPerCoordinateOutliers) {
  CoordinatewiseMedianRule rule;
  const VectorList pts{{0.0, -100.0}, {1.0, 0.0}, {100.0, 1.0}};
  EXPECT_EQ(rule.aggregate(pts, ctx_of(3, 1)), (Vector{1.0, 0.0}));
}

TEST(TrimmedMeanRule, TrimsTPerSide) {
  TrimmedMeanRule rule;
  const VectorList pts{{-1000.0}, {1.0}, {2.0}, {3.0}, {1000.0}};
  EXPECT_EQ(rule.aggregate(pts, ctx_of(5, 1)), (Vector{2.0}));
}

TEST(TrimmedMeanRule, CapsTrimWhenFewVectors) {
  TrimmedMeanRule rule;
  // m = 3, t = 1: trim min(1, 1) = 1 per side -> median element.
  const VectorList pts{{0.0}, {5.0}, {100.0}};
  EXPECT_EQ(rule.aggregate(pts, ctx_of(4, 1)), (Vector{5.0}));
}

// --- Krum / Multi-Krum ---

TEST(Krum, PicksVectorInsideCluster) {
  KrumRule rule;
  // Cluster near origin plus one far outlier; n = 5, t = 1.
  const VectorList pts{{0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1}, {0.1, 0.1},
                       {50.0, 50.0}};
  const Vector out = rule.aggregate(pts, ctx_of(5, 1));
  EXPECT_LT(norm2(out), 1.0);
}

TEST(Krum, ScoresMatchBruteForce) {
  Rng rng(3);
  const VectorList pts = random_points(rng, 7, 3);
  const std::size_t closest = 4;
  const auto scores =
      krum_scores(DistanceMatrix(pts), closest, KrumScore::Euclidean);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::vector<double> dists;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i) dists.push_back(distance(pts[i], pts[j]));
    }
    std::sort(dists.begin(), dists.end());
    double expected = 0.0;
    for (std::size_t k = 0; k < closest; ++k) expected += dists[k];
    EXPECT_NEAR(scores[i], expected, 1e-12);
  }
}

TEST(Krum, SquaredFlavourMatchesBlanchardScoring) {
  Rng rng(4);
  const VectorList pts = random_points(rng, 6, 2);
  const auto scores = krum_scores(DistanceMatrix(pts), 3, KrumScore::Squared);
  std::vector<double> expected;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::vector<double> dists;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i) dists.push_back(distance_squared(pts[i], pts[j]));
    }
    std::sort(dists.begin(), dists.end());
    expected.push_back(dists[0] + dists[1] + dists[2]);
  }
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(scores[i], expected[i], 1e-12);
  }
}

TEST(Krum, OutputIsAnInputVector) {
  Rng rng(5);
  const VectorList pts = random_points(rng, 8, 4);
  KrumRule rule;
  const Vector out = rule.aggregate(pts, ctx_of(8, 2));
  bool found = false;
  for (const auto& p : pts) {
    if (p == out) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MultiKrum, QOneEqualsKrum) {
  Rng rng(6);
  const VectorList pts = random_points(rng, 7, 3);
  KrumRule krum;
  MultiKrumRule multikrum(1);
  EXPECT_EQ(krum.aggregate(pts, ctx_of(7, 2)),
            multikrum.aggregate(pts, ctx_of(7, 2)));
}

TEST(MultiKrum, AveragesBestQ) {
  // Three tight points and one far outlier; q = 3 averages the cluster.
  MultiKrumRule rule(3);
  const VectorList pts{{0.0}, {0.2}, {0.4}, {100.0}};
  const Vector out = rule.aggregate(pts, ctx_of(4, 1));
  EXPECT_NEAR(out[0], 0.2, 1e-12);
}

TEST(MultiKrum, QZeroThrows) {
  MultiKrumRule rule(0);
  EXPECT_THROW(rule.aggregate({{1.0}, {2.0}, {3.0}}, ctx_of(3, 0)),
               std::invalid_argument);
}

// --- minimum-diameter rules ---

TEST(MdMean, AveragesMinimumDiameterSubset) {
  MinimumDiameterMeanRule rule;
  // n = 5, t = 2 -> subset size 3; cluster {0, 0.1, 0.2} wins.
  const VectorList pts{{0.0}, {0.1}, {0.2}, {7.0}, {9.0}};
  const Vector out = rule.aggregate(pts, ctx_of(5, 2));
  EXPECT_NEAR(out[0], 0.1, 1e-12);
}

TEST(MdGeom, GeometricMedianOfMinimumDiameterSubset) {
  MinimumDiameterGeoMedianRule rule;
  const VectorList pts{{0.0}, {0.1}, {0.5}, {7.0}, {9.0}};
  const Vector out = rule.aggregate(pts, ctx_of(5, 2));
  // Geometric median of {0, 0.1, 0.5} in 1-D is the middle point 0.1.
  EXPECT_NEAR(out[0], 0.1, 1e-6);
}

TEST(MdRules, IgnoreByzantineOutliersEntirely) {
  Rng rng(7);
  VectorList honest = random_points(rng, 8, 3, 0.5);
  VectorList all = honest;
  all.push_back(constant(3, 1000.0));
  all.push_back(constant(3, -1000.0));
  MinimumDiameterMeanRule md_mean;
  const Vector out = md_mean.aggregate(all, ctx_of(10, 2));
  // Output must coincide with the mean of the honest cluster.
  EXPECT_TRUE(approx_equal(out, mean(honest), 1e-9));
}

// --- hyperbox rules (the paper's Algorithm 2) ---

TEST(BoxMean, NoFaultsEqualsMeanBehaviour) {
  // With t = 0 there is exactly one subset (everything) and TH is the
  // full bounding box, so the output is the subset mean itself.
  BoxMeanRule rule;
  const VectorList pts{{0.0, 0.0}, {2.0, 2.0}, {4.0, 1.0}};
  const Vector out = rule.aggregate(pts, ctx_of(3, 0));
  EXPECT_TRUE(approx_equal(out, mean(pts), 1e-12));
}

TEST(BoxGeom, NoFaultsEqualsGeometricMedian) {
  BoxGeoMedianRule rule;
  const VectorList pts{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const Vector out = rule.aggregate(pts, ctx_of(4, 0));
  EXPECT_TRUE(approx_equal(out, {1.0, 1.0}, 1e-7));
}

TEST(BoxGeom, OutputInsideTrustedHyperbox) {
  Rng rng(8);
  for (int trial = 0; trial < 8; ++trial) {
    VectorList honest = random_points(rng, 8, 3);
    VectorList all = honest;
    all.push_back(constant(3, 500.0));  // Byzantine outlier
    all.push_back(constant(3, -500.0));
    BoxGeoMedianRule rule;
    const Vector out = rule.aggregate(all, ctx_of(10, 2));
    // Validity (Theorem 4.4 proof): output within the honest bounding box.
    EXPECT_TRUE(
        Hyperbox::bounding(GradientBatch::from(honest)).contains(out, 1e-6));
  }
}

TEST(BoxMean, OutputInsideTrustedHyperbox) {
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    VectorList honest = random_points(rng, 4, 2);
    VectorList all = honest;
    all.push_back(constant(2, 99.0));
    BoxMeanRule rule;
    const Vector out = rule.aggregate(all, ctx_of(5, 1));
    EXPECT_TRUE(
        Hyperbox::bounding(GradientBatch::from(honest)).contains(out, 1e-6));
  }
}

TEST(BoxGeom, MatchesManualConstructionOneDim) {
  // n = 4, t = 1, m = 4 received: {0, 1, 2, 10}.
  // TH: drop 1 per side of sorted values -> [1, 2].
  // GH: geometric medians (1-D medians via Weiszfeld midpoint convention
  // for even sizes is the middle interval midpoint; subsets of size 3 have
  // odd size -> middle element): subsets {0,1,2}->1, {0,1,10}->1,
  // {0,2,10}->2, {1,2,10}->2 -> GH = [1, 2].
  // Intersection [1,2], midpoint 1.5.
  BoxGeoMedianRule rule;
  const VectorList pts{{0.0}, {1.0}, {2.0}, {10.0}};
  const Vector out = rule.aggregate(pts, ctx_of(4, 1));
  EXPECT_NEAR(out[0], 1.5, 1e-6);
}

TEST(BoxMean, MatchesManualConstructionOneDim) {
  // Same inputs; subset means: {0,1,2}->1, {0,1,10}->11/3, {0,2,10}->4,
  // {1,2,10}->13/3 -> box of means [1, 13/3]; TH = [1, 2];
  // intersection [1, 2] -> 1.5.
  BoxMeanRule rule;
  const VectorList pts{{0.0}, {1.0}, {2.0}, {10.0}};
  const Vector out = rule.aggregate(pts, ctx_of(4, 1));
  EXPECT_NEAR(out[0], 1.5, 1e-12);
}

TEST(BoxRules, SubsetAggregatesMatchSerialAndParallel) {
  // The subset means (S_mean, the weights forms BOX-MEAN folds) are the
  // same serially and on a pool, and each is mean_of_rows of its subset.
  Rng rng(10);
  const VectorList pts = random_points(rng, 9, 5);
  ThreadPool pool(3);
  const VectorList serial = compute_smean(pts, 2, nullptr);
  const VectorList parallel = compute_smean(pts, 2, &pool);
  ASSERT_EQ(serial.size(), binomial(9, 7));
  ASSERT_EQ(serial.size(), parallel.size());
  const auto combos = all_combinations(9, 7);
  const GradientBatch batch = GradientBatch::from(pts);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(approx_equal(serial[i], parallel[i], 0.0));
    EXPECT_TRUE(approx_equal(serial[i], mean_of_rows(batch, combos[i]), 0.0));
  }
}

TEST(BoxRules, SubsetBudgetAdmitsSixteenChooseEleven) {
  // C(16, 11) = 4 368 subsets is inside the budget: both rules run, and
  // their outputs lie in TH.
  Rng rng(16);
  const VectorList pts = random_points(rng, 16, 3);
  const AggregationContext ctx = ctx_of(16, 5);
  const Hyperbox th = trimmed_hyperbox(GradientBatch::from(pts), 11);
  EXPECT_TRUE(th.contains(BoxGeoMedianRule().aggregate(pts, ctx), 1e-9));
  EXPECT_TRUE(th.contains(BoxMeanRule().aggregate(pts, ctx), 1e-9));
}

TEST(BoxRules, WeiszfeldMetricsCountEveryMedian) {
  // BOX-GEOM records each of its C(7, 5) subset medians, GEOMED and
  // MD-GEOM one each; RFA's smoothed loop records nothing.
  Rng rng(13);
  const VectorList pts = random_points(rng, 7, 4);
  obs::MetricsRegistry registry;
  AggregationContext ctx = ctx_of(7, 2);
  ctx.metrics = &registry;
  make_rule("RFA")->aggregate(pts, ctx);
  EXPECT_TRUE(registry.snapshot().empty());
  for (const char* name : {"BOX-GEOM", "GEOMED", "MD-GEOM"}) {
    make_rule(name)->aggregate(pts, ctx);
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.histograms.at("weiszfeld.iterations").count,
            binomial(7, 5) + 2);
  EXPECT_GT(snap.histograms.at("weiszfeld.iterations").min, 0.0);
  EXPECT_EQ(snap.counters.at("weiszfeld.coordinate_handoffs"), 0u);
  EXPECT_EQ(snap.counters.at("weiszfeld.coordinate_iterations"), 0u);
  EXPECT_EQ(snap.counters.at("weiszfeld.unconverged"), 0u);
}

TEST(BoxRules, IntersectionNonEmptyUnderAdversarialInputs) {
  // Stress Theorem 4.4's TH ∩ GH != empty guarantee with colluding
  // outliers placed to squeeze the trusted box.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 7;
    const std::size_t t = 2;
    VectorList all = random_points(rng, n - t, 4, 1.0);
    all.push_back(constant(4, rng.uniform(-100.0, 100.0)));
    all.push_back(constant(4, rng.uniform(-100.0, 100.0)));
    BoxGeoMedianRule rule;
    EXPECT_NO_THROW(rule.aggregate(all, ctx_of(n, t)));
  }
}

// --- invariance properties shared by every rule ---

class RuleInvarianceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RuleInvarianceTest, TranslationEquivariance) {
  const auto rule = make_rule(GetParam());
  Rng rng(12);
  const VectorList pts = random_points(rng, 7, 3);
  const Vector shift{10.0, -5.0, 3.0};
  VectorList shifted;
  for (const auto& p : pts) shifted.push_back(add(p, shift));
  const Vector a = rule->aggregate(pts, ctx_of(7, 2));
  const Vector b = rule->aggregate(shifted, ctx_of(7, 2));
  EXPECT_TRUE(approx_equal(add(a, shift), b, 1e-5))
      << "rule " << GetParam();
}

TEST_P(RuleInvarianceTest, PermutationInvariance) {
  const auto rule = make_rule(GetParam());
  Rng rng(13);
  VectorList pts = random_points(rng, 7, 3);
  VectorList shuffled = pts;
  Rng shuffle_rng(99);
  shuffle_rng.shuffle(shuffled);
  const Vector a = rule->aggregate(pts, ctx_of(7, 2));
  const Vector b = rule->aggregate(shuffled, ctx_of(7, 2));
  EXPECT_TRUE(approx_equal(a, b, 1e-5)) << "rule " << GetParam();
}

TEST_P(RuleInvarianceTest, UnanimityOnIdenticalInputs) {
  const auto rule = make_rule(GetParam());
  const VectorList pts(7, Vector{3.0, -1.0, 2.0});
  const Vector out = rule->aggregate(pts, ctx_of(7, 2));
  EXPECT_TRUE(approx_equal(out, {3.0, -1.0, 2.0}, 1e-9))
      << "rule " << GetParam();
}

TEST_P(RuleInvarianceTest, ScaleEquivariance) {
  const auto rule = make_rule(GetParam());
  Rng rng(14);
  const VectorList pts = random_points(rng, 7, 3);
  VectorList scaled;
  for (const auto& p : pts) scaled.push_back(scale(p, 2.5));
  const Vector a = rule->aggregate(pts, ctx_of(7, 2));
  const Vector b = rule->aggregate(scaled, ctx_of(7, 2));
  EXPECT_TRUE(approx_equal(scale(a, 2.5), b, 1e-5)) << "rule " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllRules, RuleInvarianceTest,
                         ::testing::ValuesIn(all_rule_names()));

// --- robust rules keep outputs near honest data under outliers ---

class RobustRuleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RobustRuleTest, OutlierResistance) {
  const auto rule = make_rule(GetParam());
  Rng rng(15);
  for (int trial = 0; trial < 5; ++trial) {
    VectorList honest = random_points(rng, 8, 3, 1.0);
    VectorList all = honest;
    all.push_back(constant(3, 1e6));
    all.push_back(constant(3, -1e6));
    const Vector out = rule->aggregate(all, ctx_of(10, 2));
    // Output stays within a small blow-up of the honest bounding box
    // (robustness); the plain mean would be dragged to ~1e5.
    EXPECT_TRUE(Hyperbox::bounding(GradientBatch::from(honest))
                    .inflated(1.0)
                    .contains(out, 1e-6))
        << "rule " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RobustRules, RobustRuleTest,
                         ::testing::Values("CW-MEDIAN", "TRIM-MEAN", "KRUM",
                                           "MD-MEAN", "MD-GEOM", "BOX-MEAN",
                                           "BOX-GEOM", "MEDOID", "GEOMED"));

// --- registry ---

TEST(Registry, CreatesEveryAdvertisedRule) {
  for (const auto& name : all_rule_names()) {
    const auto rule = make_rule(name);
    ASSERT_NE(rule, nullptr);
    EXPECT_EQ(rule->name(), name);
  }
}

TEST(Registry, MultiKrumParsesQ) {
  const auto rule = make_rule("MULTIKRUM-5");
  EXPECT_EQ(rule->name(), "MULTIKRUM-5");
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_rule("NOPE"), std::invalid_argument);
}

}  // namespace
}  // namespace bcl
