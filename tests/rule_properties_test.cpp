// Property/metamorphic tests over EVERY rule in the aggregation registry
// (canonical + extended), plus the sketched-vs-exact agreement guarantees
// of aggregation/sketched.hpp and the shared Byzantine-budget clamp of
// aggregation/budget.hpp.
//
// The point of testing properties instead of outputs: approximate and
// registry-wide code paths are exactly where silent wrongness hides, and
// a property ("permuting the inbox cannot change the aggregate") stays
// valid for every rule anyone registers later without this file knowing
// its closed form.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "aggregation/budget.hpp"
#include "aggregation/minimum_diameter_rules.hpp"
#include "aggregation/registry.hpp"
#include "aggregation/sharded.hpp"
#include "aggregation/sketched.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"
#include "linalg/workspace.hpp"
#include "util/rng.hpp"

namespace bcl {
namespace {

AggregationContext ctx_of(std::size_t n, std::size_t t) {
  AggregationContext ctx;
  ctx.n = n;
  ctx.t = t;
  return ctx;
}

/// Every name the registry can materialize: the paper's canonical set plus
/// the extended baselines and sketched variants.
std::vector<std::string> every_rule_name() {
  std::vector<std::string> names = all_rule_names();
  for (const auto& name : extended_rule_names()) names.push_back(name);
  return names;
}

/// n - t honest points clustered in [-1, 1]^d plus t far outliers; random
/// continuous coordinates, so score/distance ties have measure zero and
/// selection rules are unambiguous.
VectorList clustered_inputs(std::size_t n, std::size_t t, std::size_t d,
                            std::uint64_t seed) {
  Rng rng(seed);
  VectorList inputs;
  for (std::size_t i = 0; i < n - t; ++i) {
    Vector v(d);
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    inputs.push_back(v);
  }
  for (std::size_t i = 0; i < t; ++i) {
    Vector v(d);
    for (auto& x : v) x = rng.uniform(25.0, 35.0) * (i % 2 == 0 ? 1.0 : -1.0);
    inputs.push_back(v);
  }
  return inputs;
}

/// Coordinate-wise closeness with a relative-scaled tolerance (iterative
/// solvers like Weiszfeld re-run on transformed inputs, so outputs match
/// to solver precision, not bitwise).
void expect_close(const std::string& rule, const Vector& a, const Vector& b,
                  double tol) {
  ASSERT_EQ(a.size(), b.size()) << rule;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol * std::max(1.0, std::abs(a[i])))
        << rule << " coordinate " << i;
  }
}

void expect_bitwise(const std::string& rule, const Vector& a,
                    const Vector& b) {
  ASSERT_EQ(a.size(), b.size()) << rule;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << rule << " coordinate " << i;
  }
}

// --- registry-wide metamorphic properties ----------------------------------

TEST(RuleProperties, PermutationInvariance) {
  const std::size_t n = 9, t = 2, d = 24;
  const AggregationContext ctx = ctx_of(n, t);
  const VectorList inputs = clustered_inputs(n, t, d, 17);

  // A fixed nontrivial permutation (reverse) and a pseudorandom shuffle.
  VectorList reversed(inputs.rbegin(), inputs.rend());
  VectorList shuffled = inputs;
  Rng rng(23);
  rng.shuffle(shuffled);

  for (const auto& name : every_rule_name()) {
    const auto rule = make_rule(name);
    const Vector base = rule->aggregate(inputs, ctx);
    expect_close(name, rule->aggregate(reversed, ctx), base, 1e-6);
    expect_close(name, rule->aggregate(shuffled, ctx), base, 1e-6);
  }
}

TEST(RuleProperties, TranslationEquivariance) {
  const std::size_t n = 9, t = 2, d = 24;
  const AggregationContext ctx = ctx_of(n, t);
  const VectorList inputs = clustered_inputs(n, t, d, 19);

  Rng rng(29);
  Vector shift(d);
  for (auto& x : shift) x = rng.uniform(-5.0, 5.0);
  VectorList shifted = inputs;
  for (auto& v : shifted) {
    for (std::size_t i = 0; i < d; ++i) v[i] += shift[i];
  }

  for (const auto& name : every_rule_name()) {
    if (name == "NORM-CLIP") {
      // Documented exception: NORM-CLIP clips norms measured from the
      // origin, so it is intentionally NOT translation-equivariant (see
      // aggregation/registry.hpp).
      continue;
    }
    const auto rule = make_rule(name);
    Vector expected = rule->aggregate(inputs, ctx);
    for (std::size_t i = 0; i < d; ++i) expected[i] += shift[i];
    expect_close(name, rule->aggregate(shifted, ctx), expected, 1e-5);
  }
}

TEST(RuleProperties, DuplicateHonestRowsStayFiniteAndBounded) {
  // Duplicated (coincident) rows are the classic degeneracy of
  // distance-based and Weiszfeld-based rules (zero pairwise distances /
  // singular weights).  Every registry rule must sail through and land
  // inside the coordinate box spanned by the inputs and the origin (the
  // origin joins the box because NORM-CLIP contracts toward it).
  const std::size_t n = 9, t = 2, d = 16;
  const AggregationContext ctx = ctx_of(n, t);
  VectorList inputs = clustered_inputs(n, t, d, 31);
  inputs[1] = inputs[0];  // exact duplicate honest row
  inputs[4] = inputs[0];  // triple coincidence for good measure

  Vector lo(d, 0.0), hi(d, 0.0);
  for (const auto& v : inputs) {
    for (std::size_t i = 0; i < d; ++i) {
      lo[i] = std::min(lo[i], v[i]);
      hi[i] = std::max(hi[i], v[i]);
    }
  }

  for (const auto& name : every_rule_name()) {
    const auto rule = make_rule(name);
    const Vector out = rule->aggregate(inputs, ctx);
    ASSERT_EQ(out.size(), d) << name;
    for (std::size_t i = 0; i < d; ++i) {
      ASSERT_TRUE(std::isfinite(out[i])) << name << " coordinate " << i;
      EXPECT_GE(out[i], lo[i] - 1e-6) << name << " coordinate " << i;
      EXPECT_LE(out[i], hi[i] + 1e-6) << name << " coordinate " << i;
    }
  }
}

// --- sketched-vs-exact agreement -------------------------------------------

// dim > SketchOptions::k so the sketched decision path actually engages
// (at dim <= k the rules take the exact path outright).
constexpr std::size_t kSketchDim = 512;

TEST(SketchedRules, AgreeWithExactWinnersOnSeparableInputs) {
  const std::size_t n = 9, t = 2;
  const AggregationContext ctx = ctx_of(n, t);
  const VectorList inputs = clustered_inputs(n, t, kSketchDim, 37);
  // Cluster radius ~1 vs outlier distance ~30*sqrt(d): the Krum score gap
  // and the MD diameter gap are orders of magnitude beyond the JL error
  // bound, so the sketch must certify the exact winner, not fall back.
  const struct {
    const char* sketched;
    const char* exact;
  } pairs[] = {{"SKETCH-KRUM", "KRUM"},
               {"SKETCH-MULTIKRUM-3", "MULTIKRUM-3"},
               {"SKETCH-MD-MEAN", "MD-MEAN"}};
  for (const auto& pair : pairs) {
    const Vector approx = make_rule(pair.sketched)->aggregate(inputs, ctx);
    const Vector exact = make_rule(pair.exact)->aggregate(inputs, ctx);
    // Selections agree; outputs are built from the same exact rows (the
    // tolerance only covers summation-order differences in the Krum-q /
    // MD means).
    expect_close(pair.sketched, approx, exact, 1e-9);
  }
}

TEST(SketchedRules, KrumWinnerIsIdenticalRowOnSeparableInputs) {
  // Krum returns one input row verbatim, so sketched-vs-exact agreement
  // is bitwise — not merely close — when the margin is resolvable.
  const std::size_t n = 9, t = 2;
  const AggregationContext ctx = ctx_of(n, t);
  const VectorList inputs = clustered_inputs(n, t, kSketchDim, 41);
  expect_bitwise("SKETCH-KRUM",
                 make_rule("SKETCH-KRUM")->aggregate(inputs, ctx),
                 make_rule("KRUM")->aggregate(inputs, ctx));
}

TEST(SketchedRules, ForcedFallbackIsBitwiseExactOnAdversarialNearTie) {
  // The adversarial near-tie: every honest row coincides, so every score
  // and diameter margin is exactly zero and no sketch precision could
  // separate the top-k neighbor sets.  With force_fallback the rules must
  // take the exact path and reproduce the unsketched output bitwise.
  const std::size_t n = 9, t = 2;
  const AggregationContext ctx = ctx_of(n, t);
  VectorList inputs = clustered_inputs(n, t, kSketchDim, 43);
  for (std::size_t i = 1; i < n - t; ++i) inputs[i] = inputs[0];

  SketchOptions forced;
  forced.force_fallback = true;
  expect_bitwise("SKETCH-KRUM(forced)",
                 SketchedKrumRule(forced).aggregate(inputs, ctx),
                 make_rule("KRUM")->aggregate(inputs, ctx));
  expect_bitwise("SKETCH-MULTIKRUM-3(forced)",
                 SketchedMultiKrumRule(3, forced).aggregate(inputs, ctx),
                 make_rule("MULTIKRUM-3")->aggregate(inputs, ctx));
  expect_bitwise("SKETCH-MD-MEAN(forced)",
                 SketchedMdMeanRule(forced).aggregate(inputs, ctx),
                 make_rule("MD-MEAN")->aggregate(inputs, ctx));
}

TEST(SketchedRules, NearTieTriggersAutomaticFallback) {
  // Same near-tie without the test hook: the margin guard itself must
  // detect the unresolvable gap and recompute exactly, so the sketched
  // rules still match the exact rules bitwise.
  const std::size_t n = 9, t = 2;
  const AggregationContext ctx = ctx_of(n, t);
  VectorList inputs = clustered_inputs(n, t, kSketchDim, 47);
  for (std::size_t i = 1; i < n - t; ++i) inputs[i] = inputs[0];

  expect_bitwise("SKETCH-KRUM",
                 make_rule("SKETCH-KRUM")->aggregate(inputs, ctx),
                 make_rule("KRUM")->aggregate(inputs, ctx));
  expect_bitwise("SKETCH-MD-MEAN",
                 make_rule("SKETCH-MD-MEAN")->aggregate(inputs, ctx),
                 make_rule("MD-MEAN")->aggregate(inputs, ctx));
}

// --- view batches and shared Gram (the sub-round sharing contract) ---------

TEST(RuleProperties, ViewBatchMatchesOwnedBitwise) {
  // The agreement protocol feeds every rule borrowed row-table views of
  // the engine's payload spans (payload_batch_view).  Same
  // bytes, same kernels: every registry rule must produce bit-identical
  // output on a view of the rows it would get as an owned batch — or
  // throw loudly (check_owned) instead of silently reading a stale flat
  // buffer.
  const std::size_t n = 9, t = 2, d = 24;
  const AggregationContext ctx = ctx_of(n, t);
  const VectorList inputs = clustered_inputs(n, t, d, 53);
  const GradientBatch owned = GradientBatch::from(inputs);
  std::vector<const double*> table;
  table.reserve(n);
  for (std::size_t i = 0; i < n; ++i) table.push_back(owned.row(i));
  const GradientBatch borrowed = GradientBatch::view(table.data(), n, d);

  for (const auto& name : every_rule_name()) {
    const auto rule = make_rule(name);
    AggregationWorkspace owned_ws(owned);
    AggregationWorkspace view_ws(borrowed);
    expect_bitwise(name + " (view)",
                   rule->aggregate(owned, owned_ws, ctx),
                   rule->aggregate(borrowed, view_ws, ctx));
  }
}

TEST(RuleProperties, SharedGramMatchesPrivateBitwise) {
  // The cross-node sharing layer hands rules a workspace borrowing a
  // distance matrix built by another node over the identical inbox.  The
  // borrowed build must be indistinguishable from a private one for every
  // registry rule (rules that never touch distances pass trivially).
  const std::size_t n = 9, t = 2, d = 24;
  const AggregationContext ctx = ctx_of(n, t);
  const VectorList inputs = clustered_inputs(n, t, d, 59);
  const GradientBatch batch = GradientBatch::from(inputs);
  const DistanceMatrix shared(batch, nullptr);

  for (const auto& name : every_rule_name()) {
    const auto rule = make_rule(name);
    AggregationWorkspace private_ws(batch);
    AggregationWorkspace shared_ws(batch, &shared);
    expect_bitwise(name + " (shared gram)",
                   rule->aggregate(batch, private_ws, ctx),
                   rule->aggregate(batch, shared_ws, ctx));
  }
}

TEST(RuleProperties, OnlyStickyReadsCurrent) {
  // reads_current() decides what agreement shares across nodes with equal
  // inboxes: every registry rule is a pure function of its inbox, so the
  // whole output is shared; MD-GEOM-STICKY reads the node's own vector,
  // so only its distance build is.
  for (const auto& name : every_rule_name()) {
    EXPECT_FALSE(make_rule(name)->reads_current()) << name;
  }
  EXPECT_TRUE(StickyMinDiameterGeoRule().reads_current());
}

// --- the shared Byzantine-budget clamp -------------------------------------

TEST(ByzantineBudget, ClampMatchesThinCohortRule) {
  // (rows - 1) / 3: the largest t with 3t < rows.
  EXPECT_EQ(clamp_byzantine_budget(5, 0), 0u);
  EXPECT_EQ(clamp_byzantine_budget(5, 1), 0u);
  EXPECT_EQ(clamp_byzantine_budget(5, 3), 0u);
  EXPECT_EQ(clamp_byzantine_budget(5, 4), 1u);
  EXPECT_EQ(clamp_byzantine_budget(5, 7), 2u);
  EXPECT_EQ(clamp_byzantine_budget(5, 16), 5u);   // t already valid
  EXPECT_EQ(clamp_byzantine_budget(5, 100), 5u);  // never raises t
}

TEST(ByzantineBudget, RootBudgetCountsCorruptedShardOutputs) {
  // One fault corrupts at most one shard output, so the root budget is
  // min(t, shards), re-clamped to the shard-count row bound.
  EXPECT_EQ(root_byzantine_budget(5, 1), 0u);
  EXPECT_EQ(root_byzantine_budget(5, 4), 1u);
  EXPECT_EQ(root_byzantine_budget(1, 16), 1u);
  EXPECT_EQ(root_byzantine_budget(8, 16), 5u);  // (16-1)/3 caps it
}

// --- sharded aggregation ---------------------------------------------------

TEST(ShardedAggregation, SingleShardIsBitwiseTheFlatRule) {
  const std::size_t n = 9, t = 2, d = 32;
  const AggregationContext ctx = ctx_of(n, t);
  const VectorList inputs = clustered_inputs(n, t, d, 53);
  const GradientBatch batch = GradientBatch::from(inputs);
  const auto rule = make_rule("KRUM");

  AggregationWorkspace flat_ws(batch);
  const Vector flat = rule->aggregate(batch, flat_ws, ctx);
  AggregationWorkspace sharded_ws(batch);
  const Vector sharded =
      aggregate_sharded(batch, sharded_ws, *rule, *rule, 1, ctx);
  expect_bitwise("KRUM/shards=1", sharded, flat);
}

TEST(ShardedAggregation, MeanOverMeanIsShardCountInvariant) {
  // The MEAN (x) MEAN fast path computes one global mean in row order, so
  // the result is bitwise identical for every shard count — this is what
  // makes the shards-in-{1,4,16} artifact-determinism test possible.
  const std::size_t n = 16, t = 0, d = 24;
  const AggregationContext ctx = ctx_of(n, t);
  const VectorList inputs = clustered_inputs(n, t, d, 59);
  const GradientBatch batch = GradientBatch::from(inputs);
  const auto mean_rule = make_rule("MEAN");

  AggregationWorkspace ws1(batch);
  const Vector one =
      aggregate_sharded(batch, ws1, *mean_rule, *mean_rule, 1, ctx);
  for (const std::size_t shards : {4u, 16u, 64u}) {
    AggregationWorkspace ws(batch);
    const Vector out =
        aggregate_sharded(batch, ws, *mean_rule, *mean_rule, shards, ctx);
    expect_bitwise("MEAN/shards=" + std::to_string(shards), out, one);
  }
}

TEST(ShardedAggregation, RobustShardsRejectConcentratedOutliers) {
  // 16 rows, t = 3, 4 shards of 4 rows: even if all 3 Byzantine rows land
  // in one shard, the per-shard budget (rows-1)/3 = 1 means at most one
  // shard output is corrupted, and the root rule (budget >= 1 over 4
  // shards) discards it.  The final aggregate must sit in the honest box.
  const std::size_t n = 16, t = 3, d = 8;
  const AggregationContext ctx = ctx_of(n, t);
  VectorList inputs = clustered_inputs(n, 0, d, 61);
  // Concentrate 3 outliers contiguously so the contiguous shard split
  // puts them all in shard 0 (the adversarial placement).
  for (std::size_t i = 0; i < 3; ++i) {
    for (auto& x : inputs[i]) x = 1e6;
  }
  const GradientBatch batch = GradientBatch::from(inputs);
  const auto rule = make_rule("CW-MEDIAN");
  AggregationWorkspace ws(batch);
  const Vector out = aggregate_sharded(batch, ws, *rule, *rule, 4, ctx);
  for (std::size_t i = 0; i < d; ++i) {
    ASSERT_TRUE(std::isfinite(out[i]));
    EXPECT_LE(std::abs(out[i]), 1.5) << "coordinate " << i;
  }
}

}  // namespace
}  // namespace bcl
