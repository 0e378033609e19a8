// Tests for src/agreement: epsilon-agreement, validity (outputs inside the
// honest bounding box), the E_max halving of Theorem 4.4, fixed-round
// scheduling, and MD-GEOM-STICKY, the rule only agreement can run.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "aggregation/minimum_diameter_rules.hpp"
#include "aggregation/registry.hpp"
#include "agreement/protocol.hpp"
#include "linalg/hyperbox.hpp"
#include "network/adversary.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

VectorList random_inputs(Rng& rng, std::size_t n, std::size_t d,
                         double span = 5.0) {
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-span, span);
    pts.push_back(p);
  }
  return pts;
}

AgreementConfig box_geom_config(std::size_t n, std::size_t t,
                                double epsilon = 1e-4) {
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.rule = make_rule("BOX-GEOM");
  cfg.epsilon = epsilon;
  cfg.max_rounds = 80;
  return cfg;
}

TEST(Agreement, NoFaultsBoxGeomConverges) {
  Rng rng(1);
  const std::size_t n = 6;
  const VectorList inputs = random_inputs(rng, n, 3);
  NoAdversary adversary;
  const auto result =
      run_approximate_agreement(GradientBatch::from(inputs), adversary,
                                box_geom_config(n, 1));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.outputs.size(), n);
  EXPECT_LT(diameter(result.outputs), 1e-4);
}

TEST(Agreement, OutputsInsideHonestBoundingBox) {
  // Hyperbox validity: every honest output lies inside the bounding box of
  // the honest inputs, whatever the Byzantine vectors are.
  Rng rng(2);
  const std::size_t n = 7;
  const std::size_t t = 2;
  VectorList inputs = random_inputs(rng, n, 2);
  FixedVectorAdversary adversary({5, 6}, constant(2, 1000.0));
  VectorList honest_inputs(inputs.begin(), inputs.begin() + 5);
  const auto result =
      run_approximate_agreement(GradientBatch::from(inputs), adversary,
                                box_geom_config(n, t));
  const Hyperbox honest_box =
      Hyperbox::bounding(GradientBatch::from(honest_inputs));
  for (const auto& out : result.outputs) {
    EXPECT_TRUE(honest_box.contains(out, 1e-6));
  }
}

TEST(Agreement, MaxEdgeHalvesEveryRound) {
  // Theorem 4.4: E_max(TH^{r+1}) <= E_max(TH^r) / 2.
  Rng rng(3);
  const std::size_t n = 7;
  const std::size_t t = 2;
  VectorList inputs = random_inputs(rng, n, 3);
  SignFlipAdversary adversary({5, 6});
  AgreementConfig cfg = box_geom_config(n, t, 0.0);  // never early-stop
  const auto result = run_fixed_rounds_agreement(GradientBatch::from(inputs),
                                                 adversary, 8, cfg);
  const auto& edges = result.trace.honest_max_edge;
  ASSERT_GE(edges.size(), 9u);
  for (std::size_t r = 0; r + 1 < edges.size(); ++r) {
    EXPECT_LE(edges[r + 1], 0.5 * edges[r] + 1e-9)
        << "round " << r << ": " << edges[r] << " -> " << edges[r + 1];
  }
}

TEST(Agreement, BoxMeanAlsoContracts) {
  Rng rng(4);
  const std::size_t n = 6;
  VectorList inputs = random_inputs(rng, n, 2);
  NoAdversary adversary;
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = 1;
  cfg.rule = make_rule("BOX-MEAN");
  cfg.epsilon = 1e-5;
  cfg.max_rounds = 60;
  const auto result = run_approximate_agreement(GradientBatch::from(inputs),
                                                adversary, cfg);
  EXPECT_TRUE(result.converged);
}

TEST(Agreement, EpsilonAgreementReachedWithinLogRounds) {
  // Halving from initial diameter D needs about log2(D/eps) rounds.
  Rng rng(5);
  const std::size_t n = 7;
  VectorList inputs = random_inputs(rng, n, 2, 8.0);
  NoAdversary adversary;
  AgreementConfig cfg = box_geom_config(n, 2, 1e-3);
  const auto result = run_approximate_agreement(GradientBatch::from(inputs),
                                                adversary, cfg);
  ASSERT_TRUE(result.converged);
  const double d0 = result.trace.honest_diameter.front();
  // Diameter <= sqrt(d) * E_max and E_max halves, so bound the rounds by
  // log2(sqrt(d) * d0 / eps) plus slack.
  const double bound =
      std::log2(std::sqrt(2.0) * (d0 + 1.0) / 1e-3) + 4.0;
  EXPECT_LE(static_cast<double>(result.rounds), bound);
}

TEST(Agreement, CrashFaultsTolerated) {
  Rng rng(6);
  const std::size_t n = 7;
  VectorList inputs = random_inputs(rng, n, 3);
  CrashAdversary adversary({5, 6}, /*crash_round=*/1,
                           {inputs[5], inputs[6]});
  const auto result =
      run_approximate_agreement(GradientBatch::from(inputs), adversary,
                                box_geom_config(n, 2));
  EXPECT_TRUE(result.converged);
}

TEST(Agreement, SilentFromStartTolerated) {
  Rng rng(7);
  const std::size_t n = 7;
  VectorList inputs = random_inputs(rng, n, 2);
  CrashAdversary adversary({5, 6}, /*crash_round=*/0, {zeros(2), zeros(2)});
  const auto result =
      run_approximate_agreement(GradientBatch::from(inputs), adversary,
                                box_geom_config(n, 2));
  EXPECT_TRUE(result.converged);
  // Honest nodes received exactly n - f = 5 messages per round.
  EXPECT_EQ(result.network.broadcasts_skipped, 2 * result.network.rounds);
}

TEST(Agreement, FixedRoundsRunsExactCount) {
  Rng rng(8);
  const std::size_t n = 5;
  VectorList inputs = random_inputs(rng, n, 2);
  NoAdversary adversary;
  AgreementConfig cfg = box_geom_config(n, 1, 0.0);
  const auto result = run_fixed_rounds_agreement(GradientBatch::from(inputs),
                                                 adversary, 3, cfg);
  EXPECT_EQ(result.rounds, 3u);
  EXPECT_EQ(result.trace.honest_diameter.size(), 4u);
}

TEST(Agreement, HonestIdsSkipByzantine) {
  Rng rng(9);
  const std::size_t n = 5;
  VectorList inputs = random_inputs(rng, n, 1);
  FixedVectorAdversary adversary({2}, {0.0});
  const auto result =
      run_approximate_agreement(GradientBatch::from(inputs), adversary,
                                box_geom_config(n, 1));
  EXPECT_EQ(result.honest_ids, (std::vector<std::size_t>{0, 1, 3, 4}));
}

TEST(Agreement, TooManyByzantineThrows) {
  VectorList inputs(4, Vector{0.0});
  FixedVectorAdversary adversary({0, 1}, {0.0});
  EXPECT_THROW(
      run_approximate_agreement(GradientBatch::from(inputs), adversary,
                                box_geom_config(4, 1)),
      std::invalid_argument);
}

TEST(Agreement, InputSizeMismatchThrows) {
  VectorList inputs(3, Vector{0.0});
  NoAdversary adversary;
  EXPECT_THROW(
      run_approximate_agreement(GradientBatch::from(inputs), adversary,
                                box_geom_config(4, 1)),
      std::invalid_argument);
}

TEST(Agreement, NullRuleThrows) {
  VectorList inputs(4, Vector{0.0});
  NoAdversary adversary;
  AgreementConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  try {
    run_approximate_agreement(GradientBatch::from(inputs), adversary, cfg);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("AgreementConfig::rule"),
              std::string::npos)
        << error.what();
  }
}

TEST(Agreement, ParallelPoolMatchesSerial) {
  Rng rng(10);
  const std::size_t n = 6;
  VectorList inputs = random_inputs(rng, n, 2);
  SignFlipAdversary adv1({5});
  SignFlipAdversary adv2({5});
  AgreementConfig serial_cfg = box_geom_config(n, 1, 0.0);
  AgreementConfig parallel_cfg = serial_cfg;
  ThreadPool pool(3);
  parallel_cfg.pool = &pool;
  const auto a = run_fixed_rounds_agreement(GradientBatch::from(inputs), adv1,
                                            4, serial_cfg);
  const auto b = run_fixed_rounds_agreement(GradientBatch::from(inputs), adv2,
                                            4, parallel_cfg);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_TRUE(approx_equal(a.outputs[i], b.outputs[i], 0.0));
  }
}

// --- MD-GEOM-STICKY ---

/// One sticky step from `current`, as an agreement node takes it.
Vector sticky_step(const GradientBatch& batch, AggregationWorkspace& ws,
                   const Vector& current, AggregationContext ctx) {
  ctx.current = &current;
  return StickyMinDiameterGeoRule().aggregate(batch, ws, ctx);
}

TEST(StickyRule, PrefersSubsetNearCurrent) {
  // Two tied clusters; sticky tie-breaking keeps the node at its own camp.
  AggregationContext ctx;
  ctx.n = 6;
  ctx.t = 3;  // keep = 3: both clusters are tied minimum-diameter sets
  const GradientBatch received =
      GradientBatch::from({{0.0}, {0.1}, {0.2}, {10.0}, {10.1}, {10.2}});
  AggregationWorkspace ws(received);
  const Vector near_zero = sticky_step(received, ws, {0.1}, ctx);
  const Vector near_ten = sticky_step(received, ws, {10.1}, ctx);
  EXPECT_LT(near_zero[0], 1.0);
  EXPECT_GT(near_ten[0], 9.0);
}

TEST(StickyRule, RejectsTooFewVectors) {
  AggregationContext ctx;
  ctx.n = 5;
  ctx.t = 1;
  const GradientBatch received = GradientBatch::from({{0.0}});
  AggregationWorkspace ws(received);
  EXPECT_THROW(sticky_step(received, ws, {0.0}, ctx), std::invalid_argument);
}

TEST(StickyRule, ValidatesInbox) {
  // The sticky rule runs the same inbox check as every rule: a non-finite
  // row and more rows than n are both rejected, never aggregated.
  AggregationContext ctx;
  ctx.n = 4;
  ctx.t = 1;
  const GradientBatch with_nan = GradientBatch::from(
      {{0.0, 1.0}, {std::nan(""), 0.0}, {1.0, 1.0}, {2.0, 0.0}});
  AggregationWorkspace nan_ws(with_nan);
  EXPECT_THROW(sticky_step(with_nan, nan_ws, {0.0, 0.0}, ctx),
               std::invalid_argument);
  const GradientBatch too_many =
      GradientBatch::from({{0.0}, {1.0}, {2.0}, {3.0}, {4.0}, {5.0}});
  AggregationWorkspace many_ws(too_many);
  EXPECT_THROW(sticky_step(too_many, many_ws, {0.0}, ctx),
               std::invalid_argument);
}

TEST(StickyRule, RejectsMissingOrMismatchedCurrent) {
  // Outside agreement nothing sets AggregationContext::current: the rule
  // names itself instead of tie-breaking toward an arbitrary vector.
  const StickyMinDiameterGeoRule rule;
  EXPECT_TRUE(rule.reads_current());
  AggregationContext ctx;
  ctx.n = 4;
  ctx.t = 1;
  const GradientBatch received =
      GradientBatch::from({{0.0, 1.0}, {1.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}});
  const auto expect_named_error = [&](const AggregationContext& c) {
    AggregationWorkspace ws(received);
    try {
      rule.aggregate(received, ws, c);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind("MD-GEOM-STICKY: ", 0), 0u)
          << error.what();
    }
  };
  expect_named_error(ctx);  // current is null
  const Vector wrong_dim{0.0, 0.0, 0.0};
  ctx.current = &wrong_dim;
  expect_named_error(ctx);
  const Vector right_dim{0.0, 0.0};
  ctx.current = &right_dim;
  AggregationWorkspace ws(received);
  EXPECT_EQ(rule.aggregate(received, ws, ctx).size(), 2u);
}

// --- property sweep: convergence across n, t, d ---

struct AgreementParam {
  std::size_t n;
  std::size_t t;
  std::size_t d;
};

class AgreementSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AgreementSweepTest, BoxGeomConvergesUnderSignFlip) {
  const int seed = std::get<0>(GetParam());
  const int config_id = std::get<1>(GetParam());
  const AgreementParam params[] = {
      {4, 1, 1}, {7, 2, 2}, {10, 3, 3}, {10, 2, 5}};
  const AgreementParam p = params[config_id];
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  VectorList inputs = random_inputs(rng, p.n, p.d);
  std::vector<std::size_t> byz;
  for (std::size_t i = p.n - p.t; i < p.n; ++i) byz.push_back(i);
  SignFlipAdversary adversary(byz);
  AgreementConfig cfg = box_geom_config(p.n, p.t, 1e-3);
  const auto result = run_approximate_agreement(GradientBatch::from(inputs),
                                                adversary, cfg);
  EXPECT_TRUE(result.converged)
      << "n=" << p.n << " t=" << p.t << " d=" << p.d;
  // epsilon-agreement achieved.
  EXPECT_LT(diameter(result.outputs), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AgreementSweepTest,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 4)));

}  // namespace
}  // namespace bcl
