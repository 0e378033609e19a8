// Tests for the shared distance-matrix workspace: DistanceMatrix agrees
// with the per-pair kernels it replaces (bitwise, not approximately), the
// pool-parallel build matches the serial one, laziness works, and every
// aggregation rule (MD-GEOM-STICKY included) produces exactly the same
// output over a workspace lent the exact per-pair matrix (the test oracle)
// as over the Gram-trick workspace the trainers and the protocol build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "aggregation/krum.hpp"
#include "aggregation/minimum_diameter_rules.hpp"
#include "aggregation/registry.hpp"
#include "geometry/medoid.hpp"
#include "geometry/min_diameter.hpp"
#include "geometry/subsets.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/kernels.hpp"
#include "linalg/sparse_rows.hpp"
#include "linalg/workspace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

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

// --- DistanceMatrix vs. the primitive kernels ---

TEST(DistanceMatrix, MatchesPairwiseKernelsExactly) {
  Rng rng(11);
  const VectorList pts = random_points(rng, 9, 5);
  const DistanceMatrix dm(pts);
  ASSERT_EQ(dm.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(dm.dist(i, i), 0.0);
    EXPECT_EQ(dm.dist2(i, i), 0.0);
    for (std::size_t j = 0; j < pts.size(); ++j) {
      EXPECT_EQ(dm.dist2(i, j), distance_squared(pts[i], pts[j]));
      EXPECT_EQ(dm.dist(i, j), distance(pts[i], pts[j]));
      EXPECT_EQ(dm.dist(i, j), dm.dist(j, i));
    }
  }
}

TEST(DistanceMatrix, DiameterMatchesFreeFunctionBitwise) {
  Rng rng(12);
  const VectorList pts = random_points(rng, 12, 7);
  const DistanceMatrix dm(pts);
  EXPECT_EQ(dm.diameter(), diameter(pts));
}

TEST(DistanceMatrix, SubsetDiameterMatchesGatheredDiameter) {
  Rng rng(13);
  const VectorList pts = random_points(rng, 10, 4);
  const DistanceMatrix dm(pts);
  for_each_combination(pts.size(), 4,
                       [&](const std::vector<std::size_t>& idx) {
                         EXPECT_EQ(dm.subset_diameter(idx),
                                   diameter(gather(pts, idx)));
                       });
}

// Sum of distances from pts[i] to every other point, the medoid score's
// brute-force reference.
double summed_distances(const VectorList& pts, std::size_t i) {
  double s = 0.0;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (j != i) s += distance(pts[i], pts[j]);
  }
  return s;
}

TEST(DistanceMatrix, RowSumMatchesMedoidScore) {
  Rng rng(14);
  const VectorList pts = random_points(rng, 11, 6);
  const DistanceMatrix dm(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(dm.row_sum(i), summed_distances(pts, i));
    EXPECT_EQ(medoid_score(dm, i), summed_distances(pts, i));
  }
}

TEST(DistanceMatrix, ParallelBuildIdenticalToSerial) {
  Rng rng(15);
  const VectorList pts = random_points(rng, 23, 17);
  ThreadPool pool(4);
  const DistanceMatrix serial(pts);
  const DistanceMatrix parallel(pts, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      EXPECT_EQ(serial.dist(i, j), parallel.dist(i, j));
      EXPECT_EQ(serial.dist2(i, j), parallel.dist2(i, j));
    }
  }
}

// A view build gathers its rows into a buffer it owns.  While a pooled
// build waits for its column blocks, its thread help-drains the shared
// queue and may run another view build (under bcl_run --jobs: another
// cell's), which must not overwrite the rows the first build still reads.
// Each set here is a tight cluster far from the origin behind an outlier
// at row 0, so the rebase is suppressed and the cancellation guard
// re-reads the cluster rows after the wait.
TEST(DistanceMatrix, ViewBuildsNestedOnOnePoolMatchSerial) {
  Rng rng(16);
  const std::size_t builds = 24;
  const std::size_t m = 24;
  const std::size_t d = 64;
  std::vector<VectorList> sets(builds);
  std::vector<std::vector<const double*>> tables(builds);
  for (std::size_t b = 0; b < builds; ++b) {
    sets[b].push_back(Vector(d, 1000.0 + static_cast<double>(b)));
    for (std::size_t i = 1; i < m; ++i) {
      Vector row(d, 100.0);
      for (double& x : row) x += 1e-6 * rng.uniform(-1.0, 1.0);
      sets[b].push_back(row);
    }
    for (const Vector& row : sets[b]) tables[b].push_back(row.data());
  }
  ThreadPool pool(3);
  std::vector<DistanceMatrix> built(builds);
  for (std::size_t b = 0; b < builds; ++b) {
    pool.submit([&, b] {
      built[b] = DistanceMatrix(GradientBatch::view(tables[b].data(), m, d),
                                &pool);
    });
  }
  pool.wait_idle();
  for (std::size_t b = 0; b < builds; ++b) {
    const DistanceMatrix serial(GradientBatch::from(sets[b]));
    ASSERT_EQ(built[b].size(), m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(built[b].dist2(i, j), serial.dist2(i, j))
            << "build " << b << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(DistanceMatrix, DegenerateSizes) {
  EXPECT_TRUE(DistanceMatrix().empty());
  const DistanceMatrix one(VectorList{{1.0, 2.0}});
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.diameter(), 0.0);
  EXPECT_THROW(DistanceMatrix(VectorList{{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
}

// --- workspace laziness and guards ---

TEST(AggregationWorkspace, BuildsDistancesLazilyAndOnce) {
  Rng rng(16);
  const GradientBatch pts = GradientBatch::from(random_points(rng, 8, 3));
  AggregationWorkspace ws(pts);
  EXPECT_FALSE(ws.has_distances());
  const DistanceMatrix* first = &ws.distances();
  EXPECT_TRUE(ws.has_distances());
  EXPECT_EQ(first, &ws.distances());  // cached, not rebuilt
  EXPECT_EQ(ws.size(), pts.rows());
  EXPECT_EQ(&ws.batch(), &pts);
}

TEST(AggregationWorkspace, MismatchedInboxThrows) {
  Rng rng(17);
  const GradientBatch pts = GradientBatch::from(random_points(rng, 8, 3));
  const GradientBatch other = GradientBatch::from(random_points(rng, 6, 3));
  AggregationWorkspace ws(other);
  AggregationContext ctx;
  ctx.n = 8;
  ctx.t = 2;
  const auto rule = make_rule("MEAN");
  EXPECT_THROW(rule->aggregate(pts, ws, ctx), std::invalid_argument);
}

// --- geometry searches: matrix form vs brute force ---

TEST(DistanceMatrix, KrumScoresMatchBruteForce) {
  Rng rng(18);
  const VectorList pts = random_points(rng, 10, 6);
  const DistanceMatrix dm(pts);
  const std::size_t closest = 7;
  for (KrumScore flavour : {KrumScore::Euclidean, KrumScore::Squared}) {
    const auto shared = krum_scores(dm, closest, flavour);
    ASSERT_EQ(shared.size(), pts.size());
    // Independent reference: sort all distances from i, sum the smallest.
    // Same values added in the same ascending order, so bit for bit.
    for (std::size_t i = 0; i < pts.size(); ++i) {
      std::vector<double> dists;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (j == i) continue;
        const double d2 = distance_squared(pts[i], pts[j]);
        dists.push_back(flavour == KrumScore::Squared ? d2 : std::sqrt(d2));
      }
      std::sort(dists.begin(), dists.end());
      double expected = 0.0;
      for (std::size_t k = 0; k < closest; ++k) expected += dists[k];
      EXPECT_EQ(shared[i], expected);
    }
  }
}

TEST(DistanceMatrix, MedoidIndexMatchesBruteForce) {
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const VectorList pts = random_points(rng, 9, 4);
    std::size_t best = 0;
    double best_score = summed_distances(pts, 0);
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const double s = summed_distances(pts, i);
      if (s < best_score) {
        best_score = s;
        best = i;
      }
    }
    EXPECT_EQ(medoid_index(DistanceMatrix(pts)), best);
  }
}

TEST(DistanceMatrix, MinDiameterSubsetMatchesBruteForce) {
  Rng rng(20);
  for (int trial = 0; trial < 10; ++trial) {
    const VectorList pts = random_points(rng, 9, 3);
    const std::size_t k = 6;
    const DistanceMatrix dist(pts);
    const auto shared = min_diameter_subset(dist, k);
    double brute = std::numeric_limits<double>::infinity();
    for_each_combination(pts.size(), k,
                         [&](const std::vector<std::size_t>& idx) {
                           brute = std::min(brute, diameter(gather(pts, idx)));
                         });
    EXPECT_DOUBLE_EQ(shared.diameter, brute);

    // The optimum is among the enumerated ties.
    const auto tied = min_diameter_subsets(dist, k, 1e-9);
    bool found = false;
    for (const auto& r : tied) {
      if (r.indices == shared.indices) found = true;
    }
    EXPECT_TRUE(found);
  }
}

// --- differential oracle: per-pair distances vs the Gram workspace ---

// Every registry rule plus MD-GEOM-STICKY, over a workspace lent
// the exact per-pair DistanceMatrix(VectorList) and over the default
// Gram-trick workspace: the two builds agree to ~1e-12 relative, and on
// these inputs every distance-based selection (Krum scores, medoid,
// minimum-diameter subsets and their ties) must come out the same, so the
// outputs are bitwise equal.
TEST(WorkspaceRegression, PerPairOracleMatchesGramWorkspace) {
  Rng rng(21);
  std::vector<std::string> names = all_rule_names();
  for (const auto& extra : extended_rule_names()) names.push_back(extra);
  const StickyMinDiameterGeoRule sticky;
  struct Shape {
    std::size_t n, t, d;
  };
  for (const Shape shape : {Shape{10, 2, 8}, Shape{9, 2, 24}, Shape{7, 2, 5}}) {
    AggregationContext ctx;
    ctx.n = shape.n;
    ctx.t = shape.t;
    for (int trial = 0; trial < 5; ++trial) {
      const VectorList received = random_points(rng, shape.n, shape.d);
      const Vector current = random_points(rng, 1, shape.d).front();
      AggregationContext sticky_ctx = ctx;
      sticky_ctx.current = &current;
      const GradientBatch batch = GradientBatch::from(received);
      const DistanceMatrix per_pair(received);
      for (const auto& name : names) {
        const auto rule = make_rule(name);
        AggregationWorkspace oracle_ws(batch, &per_pair);
        AggregationWorkspace gram_ws(batch);
        EXPECT_EQ(rule->aggregate(batch, oracle_ws, ctx),
                  rule->aggregate(batch, gram_ws, ctx))
            << "rule " << name << " d=" << shape.d << " trial " << trial;
      }
      AggregationWorkspace oracle_ws(batch, &per_pair);
      AggregationWorkspace gram_ws(batch);
      EXPECT_EQ(sticky.aggregate(batch, oracle_ws, sticky_ctx),
                sticky.aggregate(batch, gram_ws, sticky_ctx))
          << "MD-GEOM-STICKY d=" << shape.d << " trial " << trial;
    }
  }
}

TEST(WorkspaceRegression, OneWorkspaceServesManyRules) {
  Rng rng(22);
  const VectorList received = random_points(rng, 10, 16);
  const GradientBatch batch = GradientBatch::from(received);
  AggregationContext ctx;
  ctx.n = 10;
  ctx.t = 2;
  // The comparison-suite pattern: one inbox, one workspace, many rules.
  AggregationWorkspace ws(batch);
  for (const auto& name : {"KRUM", "MULTIKRUM-3", "MEDOID", "MD-MEAN",
                           "MD-GEOM", "BOX-GEOM"}) {
    const auto rule = make_rule(name);
    EXPECT_EQ(rule->aggregate(batch, ws, ctx),
              rule->aggregate(received, ctx))
        << "rule " << name;
  }
  // Distance-based rules share the one matrix built above.
  EXPECT_TRUE(ws.has_distances());
}

TEST(WorkspaceRegression, PoolWorkspaceMatchesSerial) {
  Rng rng(23);
  const GradientBatch batch = GradientBatch::from(random_points(rng, 12, 10));
  ThreadPool pool(4);
  AggregationContext ctx;
  ctx.n = 12;
  ctx.t = 2;
  for (const auto& name : {"KRUM", "MEDOID", "MD-MEAN", "BOX-MEAN"}) {
    const auto rule = make_rule(name);
    AggregationWorkspace serial_ws(batch);
    AggregationWorkspace pool_ws(batch, &pool);
    EXPECT_EQ(rule->aggregate(batch, serial_ws, ctx),
              rule->aggregate(batch, pool_ws, ctx))
        << "rule " << name;
  }
}

// --- sparse (SpGEMM) build vs pairwise vs dense ---

/// Random sparse batch at the given density; `offset` adds a large common
/// value on a shared coordinate set to provoke Gram-identity cancellation.
SparseRows random_sparse(Rng& rng, std::size_t m, std::size_t d,
                         double density, double offset = 0.0) {
  SparseRows rows(d);
  std::vector<std::uint32_t> idx;
  std::vector<double> val;
  for (std::size_t i = 0; i < m; ++i) {
    idx.clear();
    val.clear();
    for (std::size_t k = 0; k < d; ++k) {
      const bool shared = offset != 0.0 && k < d / 100 + 1;
      if (!shared && rng.uniform() >= density) continue;
      idx.push_back(static_cast<std::uint32_t>(k));
      val.push_back(rng.uniform(-1.0, 1.0) * 1e-3 + (shared ? offset : 0.0));
    }
    rows.push_row(idx.data(), val.data(), val.size());
  }
  return rows;
}

VectorList densify(const SparseRows& rows) {
  VectorList out;
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    Vector v(rows.dim(), 0.0);
    rows.decode_row_into(i, v.data());
    out.push_back(v);
  }
  return out;
}

/// The pre-SpGEMM sparse build: m^2/2 pairwise merge kernels with the same
/// cancellation guard the production constructor uses.
std::vector<double> pairwise_sparse_d2(const SparseRows& rows) {
  const std::size_t m = rows.rows();
  std::vector<double> norms(m), d2(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    norms[i] = kernels::sparse_dot_sparse(
        rows.row_indices(i), rows.row_values(i), rows.row_nnz(i),
        rows.row_indices(i), rows.row_values(i), rows.row_nnz(i));
  }
  constexpr double kCancelGuard = 1.0e-6;
  for (std::size_t i = 0; i + 1 < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double g = kernels::sparse_dot_sparse(
          rows.row_indices(i), rows.row_values(i), rows.row_nnz(i),
          rows.row_indices(j), rows.row_values(j), rows.row_nnz(j));
      double s = norms[i] + norms[j] - 2.0 * g;
      const double scale = norms[i] + norms[j];
      if (s < kCancelGuard * scale) {
        s = kernels::sparse_diff_norm2(
            rows.row_indices(i), rows.row_values(i), rows.row_nnz(i),
            rows.row_indices(j), rows.row_values(j), rows.row_nnz(j));
      }
      d2[i * m + j] = d2[j * m + i] = s;
    }
  }
  return d2;
}

TEST(SparseDistanceMatrix, SpgemmMatchesPairwiseBitwiseAndDenseClosely) {
  Rng rng(31);
  const std::size_t m = 40, d = 500;
  const SparseRows rows = random_sparse(rng, m, d, 0.05);
  const DistanceMatrix sparse(rows);
  const DistanceMatrix dense(densify(rows));
  const std::vector<double> pairwise = pairwise_sparse_d2(rows);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      // The SpGEMM row accumulates each pair's common coordinates in the
      // same order as the pairwise merge: bitwise, not approximately.
      EXPECT_EQ(sparse.dist2(i, j), pairwise[i * m + j])
          << "pair " << i << "," << j;
      EXPECT_NEAR(sparse.dist2(i, j), dense.dist2(i, j), 1e-9);
    }
  }
}

TEST(SparseDistanceMatrix, LargeCommonOffsetStaysAccurate) {
  // Rows share a ~1e8 offset on a few coordinates with 1e-3-scale deltas:
  // the Gram identity cancels catastrophically (||x||^2 ~ 1e16, true
  // distance ~ 1e-6), the guard must kick in on the SpGEMM path exactly as
  // it did pairwise, and the result must match the direct difference form.
  Rng rng(33);
  const std::size_t m = 12, d = 300;
  const SparseRows rows = random_sparse(rng, m, d, 0.05, 1.0e8);
  const DistanceMatrix sparse(rows);
  const std::vector<double> pairwise = pairwise_sparse_d2(rows);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(sparse.dist2(i, j), pairwise[i * m + j]);
      if (i == j) continue;
      const double direct = kernels::sparse_diff_norm2(
          rows.row_indices(i), rows.row_values(i), rows.row_nnz(i),
          rows.row_indices(j), rows.row_values(j), rows.row_nnz(j));
      // Guard engaged: the stored distance is the difference form, not the
      // cancelled Gram value (which would be off by orders of magnitude).
      EXPECT_EQ(sparse.dist2(i, j), direct);
      EXPECT_GT(direct, 0.0);
      EXPECT_LT(direct, 1.0);  // deltas are 1e-3-scale: sanity of the regime
    }
  }
}

TEST(SparseDistanceMatrix, PoolBuildIdenticalToSerial) {
  Rng rng(35);
  const SparseRows rows = random_sparse(rng, 30, 400, 0.08);
  ThreadPool pool(4);
  const DistanceMatrix serial(rows);
  const DistanceMatrix parallel(rows, &pool);
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = 0; j < 30; ++j) {
      EXPECT_EQ(serial.dist2(i, j), parallel.dist2(i, j));
    }
  }
}

}  // namespace
}  // namespace bcl
