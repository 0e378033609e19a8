// Direct empirical verification of the paper's formal claims:
//   Theorem 4.1 - safe area has unbounded geometric-median approximation
//   Lemma 4.2   - MD-GEOM agreement need not converge
//   Theorem 4.3 - Krum / Multi-Krum have unbounded approximation
//   Theorem 4.4 - BOX-GEOM converges (E_max halves) with ratio <= 2*sqrt(d)
//   Section 4.1 - one MD-GEOM step is a 2-approximation

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "aggregation/approximation.hpp"
#include "aggregation/hyperbox_rules.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/minimum_diameter_rules.hpp"
#include "aggregation/registry.hpp"
#include "agreement/protocol.hpp"
#include "geometry/safe_area.hpp"
#include "linalg/hyperbox.hpp"
#include "network/adversary.hpp"
#include "util/rng.hpp"

namespace bcl {
namespace {

AggregationContext ctx_of(std::size_t n, std::size_t t) {
  AggregationContext ctx;
  ctx.n = n;
  ctx.t = t;
  return ctx;
}

// ---------------------------------------------------------------- Thm 4.1

TEST(Theorem41, SafeAreaRatioUnboundedOnCollapsedConstruction) {
  // Theorem 4.1 uses d*f + 1 correct nodes (1 at v0, d groups of f at
  // v + eps*e_j) plus f Byzantine at v0, with d > 3 so that every
  // (n-t)-subset's geometric median lands at v (majority of collinear
  // points), making r_cov -> 0 while the safe area stays ~x away from mu*.
  // We realize the eps -> 0 limit of the d = 4, f = 1 instance on a line:
  // multiset {v0 x2, v x4}, n = 6, t = 1.  Every 5-subset has >= 3 of 5
  // points at v, so S_geo = {v} exactly and r_cov = 0, yet the safe area
  // is the whole interval [v0, v]: its midpoint has infinite ratio.
  const double x = 100.0;
  const VectorList inputs{{0.0}, {0.0}, {x}, {x}, {x}, {x}};
  const std::size_t t = 1;
  const auto point = safe_area_point(inputs, t);
  ASSERT_TRUE(point.has_value());
  EXPECT_NEAR((*point)[0], x / 2.0, 1e-9);  // interval [0, x] midpoint

  const VectorList honest{{0.0}, {x}, {x}, {x}, {x}};
  const auto report = measure_geo_approximation(inputs, honest, t, *point);
  EXPECT_NEAR(report.true_aggregate[0], x, 1e-9);  // majority at v
  EXPECT_LT(report.covering_ball.radius, 1e-9);    // S_geo degenerate
  EXPECT_GT(report.distance_to_true, x / 2.0 - 1e-9);
  EXPECT_TRUE(std::isinf(report.ratio));
}

TEST(Theorem41, SafeAreaRatioUnboundedIn2D) {
  // Same collapsed construction embedded in the plane, exercising the
  // exact polygon-clipping safe area.
  const double x = 50.0;
  const VectorList inputs{{0.0, 0.0}, {0.0, 0.0}, {x, 0.0},
                          {x, 0.0},   {x, 0.0},   {x, 0.0}};
  const auto point = safe_area_point(inputs, 1);
  ASSERT_TRUE(point.has_value());
  // Safe area is the segment [v0, v]; representative = its midpoint.
  EXPECT_NEAR((*point)[0], x / 2.0, 1e-6);
  EXPECT_NEAR((*point)[1], 0.0, 1e-9);

  const VectorList honest{{0.0, 0.0}, {x, 0.0}, {x, 0.0}, {x, 0.0},
                          {x, 0.0}};
  const auto report = measure_geo_approximation(inputs, honest, 1, *point);
  EXPECT_LT(report.covering_ball.radius, 1e-9);
  EXPECT_GT(report.distance_to_true, 1.0);
  EXPECT_TRUE(std::isinf(report.ratio));
}

TEST(Theorem41, BoxGeomBoundedOnTheSameConstruction) {
  // Contrast with Algorithm 2: on the identical instance BOX-GEOM outputs
  // a vector with distance O(r_cov) from mu* (here exactly mu*, since
  // S_geo is a single point inside the trusted hyperbox).
  const double x = 100.0;
  const VectorList inputs{{0.0}, {0.0}, {x}, {x}, {x}, {x}};
  BoxGeoMedianRule rule;
  const Vector out = rule.aggregate(inputs, ctx_of(6, 1));
  EXPECT_NEAR(out[0], x, 1e-6);
}

// ---------------------------------------------------------------- Thm 4.3

TEST(Theorem43, KrumRatioUnboundedWhenMedoidDiffersFromMedian) {
  // Byzantine nodes stay silent: exactly n - t honest vectors arrive, so
  // S_geo is a single point (r_cov = 0) but Krum returns a medoid, which in
  // general differs from the geometric median -> infinite ratio.
  const VectorList honest{{0.0, 0.0}, {4.0, 0.0}, {2.0, 3.0}};
  KrumRule krum;
  const std::size_t n = 4;
  const std::size_t t = 1;
  const Vector out = krum.aggregate(honest, ctx_of(n, t));
  // m = n - t vectors received, so the candidate subsets of size n - t are
  // the whole received set: zero excess values to drop in the measurement.
  const auto report = measure_geo_approximation(honest, honest, 0, out);
  EXPECT_LT(report.covering_ball.radius, 1e-9);
  EXPECT_GT(report.distance_to_true, 0.1);
  EXPECT_TRUE(std::isinf(report.ratio));
}

TEST(Theorem43, MultiKrumEqualsKrumOnExactlyNMinusTVectors) {
  // With exactly n - t received vectors every medoid choice averages over
  // the same set, so Multi-Krum_q collapses... to the mean of the q best,
  // and for q = 1 exactly to Krum; the unbounded-ratio argument carries
  // over because the output is data-independent of the (empty) ball.
  const VectorList honest{{0.0, 0.0}, {4.0, 0.0}, {2.0, 3.0}};
  MultiKrumRule multikrum(3);
  const Vector out = multikrum.aggregate(honest, ctx_of(4, 1));
  const auto report = measure_geo_approximation(honest, honest, 0, out);
  EXPECT_LT(report.covering_ball.radius, 1e-9);
  EXPECT_TRUE(std::isinf(report.ratio) || report.distance_to_true > 0.0);
}

TEST(Theorem43, BoxGeomStaysFiniteOnTheSameInstance) {
  // Contrast: on the Krum counterexample instance BOX-GEOM's output is the
  // geometric median itself (singleton S_geo), ratio 0.
  const VectorList honest{{0.0, 0.0}, {4.0, 0.0}, {2.0, 3.0}};
  BoxGeoMedianRule rule;
  const Vector out = rule.aggregate(honest, ctx_of(4, 1));
  const auto report = measure_geo_approximation(honest, honest, 1, out);
  EXPECT_NEAR(report.distance_to_true, 0.0, 1e-6);
}

// ---------------------------------------------------------------- Lem 4.2

TEST(Lemma42, MdGeomSplitWorldNeverConverges) {
  // n = 10, t = 2: camps U1 = {0..3} at v1, U2 = {4..7} at v2; Byzantine
  // ids 8 (supports camp 1) and 9 (supports camp 2), each delivering only
  // to its camp.  With sticky tie-breaking every node keeps its camp's
  // vector forever: the honest diameter never decreases.
  const std::size_t n = 10;
  const Vector v1{0.0, 0.0};
  const Vector v2{1.0, 1.0};
  VectorList inputs(n, v1);
  for (std::size_t i = 4; i < 8; ++i) inputs[i] = v2;

  SplitWorldAdversary adversary({0, 1, 2, 3}, {4, 5, 6, 7}, {8}, {9});
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = 2;
  cfg.rule = std::make_shared<StickyMinDiameterGeoRule>();
  cfg.epsilon = 1e-6;
  const auto result = run_fixed_rounds_agreement(GradientBatch::from(inputs),
                                                 adversary, 12, cfg);

  const double d0 = result.trace.honest_diameter.front();
  EXPECT_GT(d0, 1.0);
  for (double diam : result.trace.honest_diameter) {
    EXPECT_NEAR(diam, d0, 1e-9);  // exactly the initial configuration
  }
  // Camp membership preserved: U1 still at v1, U2 still at v2.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(approx_equal(result.outputs[i], v1, 1e-9));
  }
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(approx_equal(result.outputs[i], v2, 1e-9));
  }
}

TEST(Lemma42, BoxGeomConvergesOnTheSameAdversary) {
  // The hyperbox algorithm halves E_max even against the split-world
  // adversary — the contrast the paper draws in Section 4.2.
  const std::size_t n = 10;
  VectorList inputs(n, Vector{0.0, 0.0});
  for (std::size_t i = 4; i < 8; ++i) inputs[i] = {1.0, 1.0};
  SplitWorldAdversary adversary({0, 1, 2, 3}, {4, 5, 6, 7}, {8}, {9});
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = 2;
  cfg.rule = make_rule("BOX-GEOM");
  cfg.epsilon = 1e-4;
  cfg.max_rounds = 40;
  const auto result = run_approximate_agreement(GradientBatch::from(inputs),
                                                adversary, cfg);
  EXPECT_TRUE(result.converged);
}

// -------------------------------------------------- Sec 4.1 (MD-GEOM step)

TEST(Section41, SingleMdGeomStepIsTwoApproximation) {
  // "The vector chosen at the end of the first round of Algorithm 1 is a
  // 2-approximation of the geometric median of the non-faulty nodes."
  Rng rng(1);
  MinimumDiameterGeoMedianRule rule;
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 8;
    const std::size_t t = 2;
    VectorList honest;
    for (std::size_t i = 0; i < n - t; ++i) {
      honest.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
    }
    VectorList all = honest;
    // Byzantine vectors anywhere (including far away).
    all.push_back({rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)});
    all.push_back({rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)});
    const Vector out = rule.aggregate(all, ctx_of(n, t));
    const auto report = measure_geo_approximation(all, honest, t, out);
    if (report.covering_ball.radius > 1e-9) {
      // Small numerical slack on top of the theoretical factor 2.
      EXPECT_LE(report.ratio, 2.0 + 0.1) << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------- Thm 4.4

TEST(Theorem44, BoxGeomSingleStepRatioWithinTwoSqrtD) {
  Rng rng(2);
  BoxGeoMedianRule rule;
  for (const std::size_t d : {1u, 2u, 3u, 5u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t n = 7;
      const std::size_t t = 2;
      VectorList honest;
      for (std::size_t i = 0; i < n - t; ++i) {
        Vector p(d);
        for (auto& x : p) x = rng.uniform(-1.0, 1.0);
        honest.push_back(p);
      }
      VectorList all = honest;
      for (std::size_t b = 0; b < t; ++b) {
        Vector p(d);
        for (auto& x : p) x = rng.uniform(-20.0, 20.0);
        all.push_back(p);
      }
      const Vector out = rule.aggregate(all, ctx_of(n, t));
      const auto report = measure_geo_approximation(all, honest, t, out);
      if (report.covering_ball.radius > 1e-6) {
        EXPECT_LE(report.ratio,
                  2.0 * std::sqrt(static_cast<double>(d)) + 0.2)
            << "d=" << d << " trial=" << trial;
      }
    }
  }
}

TEST(Theorem44, EmaxHalvingHoldsUnderSplitWorldAndSignFlip) {
  Rng rng(3);
  for (int scenario = 0; scenario < 2; ++scenario) {
    const std::size_t n = 10;
    const std::size_t t = 2;
    VectorList inputs;
    for (std::size_t i = 0; i < n; ++i) {
      inputs.push_back({rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0),
                        rng.uniform(-4.0, 4.0)});
    }
    std::unique_ptr<Adversary> adversary;
    if (scenario == 0) {
      adversary = std::make_unique<SignFlipAdversary>(
          std::vector<std::size_t>{8, 9});
    } else {
      adversary = std::make_unique<SplitWorldAdversary>(
          std::vector<std::size_t>{0, 1, 2, 3},
          std::vector<std::size_t>{4, 5, 6, 7}, std::vector<std::size_t>{8},
          std::vector<std::size_t>{9});
    }
    AgreementConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.rule = make_rule("BOX-GEOM");
    cfg.epsilon = 0.0;
    const auto result =
        run_fixed_rounds_agreement(GradientBatch::from(inputs), *adversary, 6,
                                   cfg);
    const auto& edges = result.trace.honest_max_edge;
    for (std::size_t r = 0; r + 1 < edges.size(); ++r) {
      EXPECT_LE(edges[r + 1], 0.5 * edges[r] + 1e-9);
    }
  }
}

TEST(Theorem44, ConvergedOutputsRemainValidApproximations) {
  // After convergence all outputs are within 2*sqrt(d)*r_cov of mu*
  // (since every round preserves validity and the box only shrinks).
  Rng rng(4);
  const std::size_t n = 8;
  const std::size_t t = 2;
  const std::size_t d = 3;
  VectorList inputs;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-2.0, 2.0);
    inputs.push_back(p);
  }
  std::vector<std::size_t> byz{6, 7};
  SignFlipAdversary adversary(byz);
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.rule = make_rule("BOX-GEOM");
  cfg.epsilon = 1e-5;
  cfg.max_rounds = 60;
  const auto result = run_approximate_agreement(GradientBatch::from(inputs),
                                                adversary, cfg);
  ASSERT_TRUE(result.converged);

  VectorList honest_inputs(inputs.begin(), inputs.begin() + (n - t));
  const GradientBatch honest = GradientBatch::from(honest_inputs);
  const Vector mu_star = geometric_median_point(honest);
  // All outputs agree (epsilon) and are inside the honest bounding box;
  // the distance to mu* is bounded by the box diagonal.
  const Hyperbox box = Hyperbox::bounding(honest);
  for (const auto& out : result.outputs) {
    EXPECT_TRUE(box.contains(out, 1e-6));
    EXPECT_LE(distance(out, mu_star), box.diagonal() + 1e-6);
  }
}

}  // namespace
}  // namespace bcl
