// Regression suite for the contiguous GradientBatch layout, the Gram-trick
// distance build, and the batch-native rule paths.
//
// The contracts under test:
//  - Gram-trick distances agree with the exact per-pair build within 1e-9
//    relative tolerance on randomized inputs (and exactly for duplicate
//    rows), serial and pool builds bitwise identical;
//  - every rule rejects a workspace built over a different batch (the
//    per-pair vs Gram selection oracle lives in distance_matrix_test).
// Conv2D's oracle comparisons live in conv2d_oracle_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "core/bcl.hpp"

namespace bcl {
namespace {

VectorList random_points(Rng& rng, std::size_t m, std::size_t d) {
  VectorList pts;
  for (std::size_t i = 0; i < m; ++i) {
    Vector v(d);
    for (auto& x : v) x = rng.uniform(-10.0, 10.0);
    pts.push_back(v);
  }
  return pts;
}

// --- layout ---------------------------------------------------------------

TEST(GradientBatch, RoundTripsThroughVectorList) {
  Rng rng(31);
  const VectorList pts = random_points(rng, 7, 5);
  const GradientBatch batch = GradientBatch::from(pts);
  EXPECT_EQ(batch.rows(), pts.size());
  EXPECT_EQ(batch.dim(), pts.front().size());
  EXPECT_EQ(batch.to_vectors(), pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(batch.row_copy(i), pts[i]);
  }
}

TEST(GradientBatch, SetRowChecksDimensions) {
  GradientBatch batch(3, 4);
  EXPECT_THROW(batch.set_row(0, Vector{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(batch.set_row(3, zeros(4)), std::invalid_argument);
  batch.set_row(1, Vector{1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(batch.row_copy(1), (Vector{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(batch.row_copy(0), zeros(4));
}

TEST(GradientBatch, RejectsRaggedInput) {
  EXPECT_THROW(GradientBatch::from(VectorList{{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
}

TEST(GradientBatch, MeanMatchesVectorListMeanExactly) {
  Rng rng(32);
  const VectorList pts = random_points(rng, 9, 33);
  EXPECT_EQ(mean(GradientBatch::from(pts)), mean(pts));
}

// --- kernel contracts -----------------------------------------------------

TEST(Kernels, GramUpperMatchesDotsWithinTolerance) {
  Rng rng(42);
  const std::size_t m = 13, k = 97;
  std::vector<double> x(m * k);
  for (auto& v : x) v = rng.uniform(-3.0, 3.0);
  std::vector<double> g(m * m, 0.0);
  kernels::gram_upper(x.data(), m, k, g.data());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (j < i) {
        EXPECT_EQ(g[i * m + j], 0.0);  // lower triangle untouched
      } else {
        const double want =
            kernels::dot_seq(x.data() + i * k, x.data() + j * k, k);
        EXPECT_NEAR(g[i * m + j], want, 1e-12 * (1.0 + std::abs(want)));
      }
    }
  }
}

TEST(Kernels, WeiszfeldPassesMatchNaiveLoopsBitwise) {
  // Every output of the two passes, the returned step sum included (which
  // the loops only compare against a tolerance), against the one-chain
  // loops they replace: row counts around the 4-row sweeps and dimensions
  // around the 16-coordinate blocks.  Coordinates of mixed magnitude make
  // any reordering of a sum show in its last bits.
  Rng rng(44);
  for (const std::size_t s : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 13u}) {
    for (const std::size_t d : {1u, 2u, 15u, 16u, 17u, 31u, 33u, 1842u}) {
      SCOPED_TRACE("s=" + std::to_string(s) + " d=" + std::to_string(d));
      std::vector<double> x(s * d);
      for (auto& v : x) {
        v = rng.gaussian() * std::pow(10.0, rng.uniform(-3.0, 3.0));
      }
      std::vector<const double*> rows(s);
      for (std::size_t i = 0; i < s; ++i) rows[i] = x.data() + i * d;
      std::vector<double> y(d);
      for (auto& v : y) v = rng.gaussian();
      std::vector<double> weights(s);
      double denominator = 0.0;
      for (auto& w : weights) {
        w = 1.0 / rng.uniform(0.1, 10.0);
        denominator += w;
      }

      std::vector<double> dist2(s);
      kernels::squared_distances(rows.data(), s, y.data(), d, dist2.data());
      for (std::size_t i = 0; i < s; ++i) {
        double want = 0.0;
        for (std::size_t k = 0; k < d; ++k) {
          const double diff = rows[i][k] - y[k];
          want += diff * diff;
        }
        EXPECT_EQ(dist2[i], want) << "row " << i;
      }

      std::vector<double> next(d);
      const double step2 = kernels::weighted_quotient(
          rows.data(), weights.data(), s, denominator, y.data(), d,
          next.data());
      std::vector<double> numerator(d, 0.0);
      for (std::size_t i = 0; i < s; ++i) {
        kernels::axpy(numerator.data(), weights[i], rows[i], d);
      }
      const Vector want_next = scale(numerator, 1.0 / denominator);
      EXPECT_EQ(std::memcmp(next.data(), want_next.data(), d * sizeof(double)),
                0);
      EXPECT_EQ(step2, distance_squared(want_next, y));
    }
  }
}

// --- Gram-trick distances -------------------------------------------------

TEST(GramDistance, MatchesExactBuildWithinTolerance) {
  Rng rng(33);
  for (const auto& [m, d] : {std::pair<std::size_t, std::size_t>{3, 1},
                             {10, 7},
                             {23, 129},
                             {50, 1000}}) {
    const VectorList pts = random_points(rng, m, d);
    const DistanceMatrix exact(pts);
    const DistanceMatrix gram(GradientBatch::from(pts));
    ASSERT_EQ(gram.size(), m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        const double want = exact.dist2(i, j);
        EXPECT_NEAR(gram.dist2(i, j), want, 1e-9 * (1.0 + std::abs(want)))
            << "m=" << m << " d=" << d << " i=" << i << " j=" << j;
        EXPECT_EQ(gram.dist2(i, j), gram.dist2(j, i));
      }
      EXPECT_EQ(gram.dist2(i, i), 0.0);
    }
  }
}

TEST(GramDistance, SurvivesLargeCommonOffset) {
  // Tightly clustered points far from the origin: the raw Gram identity
  // ni + nj - 2*Gij cancels catastrophically here (G entries ~ 1e16, true
  // spread ~ 1e-8); the centering step keeps full precision.
  Rng rng(48);
  const std::size_t m = 12, d = 64;
  VectorList pts;
  for (std::size_t i = 0; i < m; ++i) {
    Vector v(d);
    for (auto& x : v) x = 1.0e8 + rng.uniform(-1e-4, 1e-4);
    pts.push_back(v);
  }
  const DistanceMatrix exact(pts);
  const DistanceMatrix gram(GradientBatch::from(pts));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double want = exact.dist2(i, j);
      ASSERT_GT(want, 0.0);
      EXPECT_NEAR(gram.dist2(i, j), want, 1e-9 * want) << i << "," << j;
    }
  }
}

TEST(GramDistance, OutlierRowDoesNotPoisonClusterPrecision) {
  // Adversarial variant of the large-offset case: the honest rows cluster
  // at 1e8 with spread ~1e-4, but a Byzantine zero vector sits at row 0,
  // which both defeats the row-0 re-basing heuristic and inflates the
  // spread estimate.  The per-pair cancellation guard must still deliver
  // accurate honest-honest distances.
  Rng rng(49);
  const std::size_t m = 10, d = 64;
  VectorList pts;
  pts.push_back(zeros(d));  // Byzantine outlier at the reference slot
  for (std::size_t i = 1; i < m; ++i) {
    Vector v(d);
    for (auto& x : v) x = 1.0e8 + rng.uniform(-1e-4, 1e-4);
    pts.push_back(v);
  }
  const DistanceMatrix exact(pts);
  const DistanceMatrix gram(GradientBatch::from(pts));
  for (std::size_t i = 1; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double want = exact.dist2(i, j);
      ASSERT_GT(want, 0.0);
      EXPECT_NEAR(gram.dist2(i, j), want, 1e-9 * want) << i << "," << j;
    }
    // Outlier-to-cluster distances are huge and cancellation-free.
    EXPECT_NEAR(gram.dist2(0, i), exact.dist2(0, i),
                1e-9 * exact.dist2(0, i));
  }
}

TEST(GramDistance, DuplicateRowsAreExactlyZero) {
  Rng rng(34);
  VectorList pts = random_points(rng, 12, 257);
  pts[9] = pts[2];   // cross-column-block duplicate
  pts[11] = pts[10]; // same-block duplicate
  const DistanceMatrix gram(GradientBatch::from(pts));
  EXPECT_EQ(gram.dist2(2, 9), 0.0);
  EXPECT_EQ(gram.dist2(10, 11), 0.0);
  EXPECT_EQ(gram.dist(2, 9), 0.0);
}

TEST(GramDistance, PoolBuildBitwiseMatchesSerial) {
  Rng rng(35);
  ThreadPool pool(4);
  const VectorList pts = random_points(rng, 19, 301);
  const GradientBatch batch = GradientBatch::from(pts);
  const DistanceMatrix serial(batch);
  const DistanceMatrix parallel(batch, &pool);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      EXPECT_EQ(serial.dist2(i, j), parallel.dist2(i, j));
    }
  }
}

TEST(GramDistance, RawRowSliceMatchesBatchCtor) {
  Rng rng(36);
  const VectorList pts = random_points(rng, 11, 45);
  const GradientBatch batch = GradientBatch::from(pts);
  const DistanceMatrix whole(batch);
  // Slice over the first 6 rows, as the trainers' honest-prefix metric
  // does.  The slice centers around its own row mean, so entries agree to
  // rounding, not bitwise.
  const DistanceMatrix slice(batch.row(0), 6, batch.dim());
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      const double want = whole.dist2(i, j);
      EXPECT_NEAR(slice.dist2(i, j), want, 1e-12 * (1.0 + want));
    }
  }
}

// --- batch-native reductions ---------------------------------------------

TEST(BatchReductions, CoordinatewiseMedianMatchesExactly) {
  Rng rng(37);
  for (std::size_t m : {3u, 4u, 9u, 16u}) {
    const VectorList pts = random_points(rng, m, 131);
    EXPECT_EQ(coordinatewise_median(GradientBatch::from(pts)),
              coordinatewise_median(pts));
  }
}

TEST(BatchReductions, TrimmedMeanMatchesExactly) {
  Rng rng(38);
  const VectorList pts = random_points(rng, 10, 200);
  for (std::size_t trim : {0u, 1u, 3u, 4u}) {
    EXPECT_EQ(coordinatewise_trimmed_mean(GradientBatch::from(pts), trim),
              coordinatewise_trimmed_mean(pts, trim));
  }
  EXPECT_THROW(coordinatewise_trimmed_mean(GradientBatch::from(pts), 5),
               std::invalid_argument);
}

// --- rules: the workspace/batch precondition -------------------------------

TEST(BatchRules, WorkspaceOverWrongBatchThrows) {
  Rng rng(40);
  const GradientBatch a = GradientBatch::from(random_points(rng, 8, 3));
  const GradientBatch b = GradientBatch::from(random_points(rng, 8, 3));
  AggregationWorkspace ws(a);
  AggregationContext ctx;
  ctx.n = 8;
  ctx.t = 2;
  // The check lives in the non-virtual entry point, so every rule enforces
  // it — distance-based or not.
  std::vector<std::string> names = all_rule_names();
  for (const auto& extra : extended_rule_names()) names.push_back(extra);
  for (const auto& name : names) {
    EXPECT_THROW(make_rule(name)->aggregate(b, ws, ctx),
                 std::invalid_argument)
        << "rule " << name;
  }
}

// --- borrowed row-table views (inbox_views) --------------------------------

TEST(GradientBatchView, ReadsMatchOwnedAndMeanIsBitwise) {
  Rng rng(61);
  const VectorList pts = random_points(rng, 6, 9);
  const GradientBatch owned = GradientBatch::from(pts);
  std::vector<const double*> table;
  for (std::size_t i = 0; i < owned.rows(); ++i) table.push_back(owned.row(i));
  const GradientBatch borrowed =
      GradientBatch::view(table.data(), owned.rows(), owned.dim());

  EXPECT_FALSE(borrowed.contiguous());
  EXPECT_TRUE(owned.contiguous());
  for (std::size_t i = 0; i < owned.rows(); ++i) {
    // Borrowed rows alias the owned storage: identical pointers, not just
    // identical values.
    EXPECT_EQ(borrowed.row(i), owned.row(i)) << "row " << i;
  }
  const Vector owned_mean = mean(owned);
  const Vector view_mean = mean(borrowed);
  ASSERT_EQ(owned_mean.size(), view_mean.size());
  for (std::size_t c = 0; c < owned_mean.size(); ++c) {
    EXPECT_EQ(owned_mean[c], view_mean[c]) << "coordinate " << c;
  }
}

TEST(GradientBatchView, RowsViewSelectsRowsInIndexOrder) {
  // A subset view lends the source's own rows, in selection order,
  // repeats included, whether the source owns its rows or borrows them.
  Rng rng(71);
  const GradientBatch owned = GradientBatch::from(random_points(rng, 5, 3));
  std::vector<const double*> all;
  for (std::size_t i = 0; i < owned.rows(); ++i) all.push_back(owned.row(i));
  const GradientBatch borrowed =
      GradientBatch::view(all.data(), owned.rows(), owned.dim());
  const std::vector<std::size_t> picks{3, 0, 3, 4, 1};
  for (const GradientBatch* source : {&owned, &borrowed}) {
    std::vector<const double*> table;
    const GradientBatch subset = rows_view(*source, picks, table);
    EXPECT_FALSE(subset.contiguous());
    ASSERT_EQ(subset.rows(), picks.size());
    EXPECT_EQ(subset.dim(), owned.dim());
    for (std::size_t k = 0; k < picks.size(); ++k) {
      EXPECT_EQ(subset.row(k), source->row(picks[k])) << "row " << k;
    }
    EXPECT_EQ(rows_view(*source, {}, table).rows(), 0u);
  }
}

TEST(GradientBatchView, MutationAndFlatAccessThrow) {
  // A borrowed view must never silently hand out mutable or flat access:
  // the rows belong to the engine's round book, and flat data() would
  // read the wrong (empty) buffer.
  Rng rng(67);
  const VectorList pts = random_points(rng, 4, 5);
  const GradientBatch owned = GradientBatch::from(pts);
  std::vector<const double*> table;
  for (std::size_t i = 0; i < owned.rows(); ++i) table.push_back(owned.row(i));
  GradientBatch borrowed =
      GradientBatch::view(table.data(), owned.rows(), owned.dim());

  EXPECT_THROW(borrowed.row(0), std::logic_error);           // mutable row
  EXPECT_THROW(borrowed.set_row(0, pts[0]), std::logic_error);
  EXPECT_THROW(borrowed.data(), std::logic_error);           // flat access
  EXPECT_THROW(
      static_cast<const GradientBatch&>(borrowed).data(), std::logic_error);
  // Const, row-based reads stay fully functional on the same object.
  EXPECT_EQ(static_cast<const GradientBatch&>(borrowed).row(1), owned.row(1));
  EXPECT_EQ(borrowed.row_copy(2), pts[2]);
}

}  // namespace
}  // namespace bcl
