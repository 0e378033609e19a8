// Tests for src/linalg: vector kernels, hyperboxes (the geometric object of
// Algorithm 2), order statistics and the trimmed hyperbox of Definition 2.5.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "geometry/subsets.hpp"
#include "linalg/hyperbox.hpp"
#include "linalg/stats.hpp"
#include "linalg/vector_ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

// --- vector_ops ---

TEST(VectorOps, AddSubScale) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, -1.0, 0.5};
  EXPECT_EQ(add(a, b), (Vector{5.0, 1.0, 3.5}));
  EXPECT_EQ(sub(a, b), (Vector{-3.0, 3.0, 2.5}));
  EXPECT_EQ(scale(a, 2.0), (Vector{2.0, 4.0, 6.0}));
}

TEST(VectorOps, DimensionMismatchThrows) {
  const Vector a{1.0};
  const Vector b{1.0, 2.0};
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(sub(a, b), std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
  EXPECT_THROW(distance(a, b), std::invalid_argument);
}

TEST(VectorOps, AxpyAccumulates) {
  Vector y{1.0, 1.0};
  axpy(y, 2.0, Vector{3.0, -1.0});
  EXPECT_EQ(y, (Vector{7.0, -1.0}));
}

TEST(VectorOps, DotAndNorms) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2_squared(a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

TEST(VectorOps, DistanceIsSymmetricMetric) {
  const Vector a{0.0, 0.0};
  const Vector b{3.0, 4.0};
  const Vector c{6.0, 8.0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(distance(b, a), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, a), 0.0);
  EXPECT_LE(distance(a, c), distance(a, b) + distance(b, c) + 1e-12);
}

TEST(VectorOps, MeanMatchesDefinition21) {
  const VectorList vs{{1.0, 0.0}, {3.0, 2.0}, {2.0, 4.0}};
  EXPECT_EQ(mean(vs), (Vector{2.0, 2.0}));
}

TEST(VectorOps, MeanOfEmptyThrows) {
  EXPECT_THROW(mean(VectorList{}), std::invalid_argument);
}

TEST(VectorOps, DiameterOfPointSetIsMaxPairwise) {
  const VectorList vs{{0.0, 0.0}, {1.0, 0.0}, {0.0, 2.0}};
  EXPECT_DOUBLE_EQ(diameter(vs), std::sqrt(5.0));
  EXPECT_DOUBLE_EQ(diameter({{1.0, 1.0}}), 0.0);
}

TEST(VectorOps, UnitVectorAndConstant) {
  EXPECT_EQ(unit(3, 1, 2.5), (Vector{0.0, 2.5, 0.0}));
  EXPECT_EQ(constant(2, 7.0), (Vector{7.0, 7.0}));
  EXPECT_EQ(zeros(2), (Vector{0.0, 0.0}));
  EXPECT_THROW(unit(2, 5), std::invalid_argument);
}

TEST(VectorOps, ApproxEqualTolerance) {
  EXPECT_TRUE(approx_equal({1.0, 2.0}, {1.0 + 1e-10, 2.0}, 1e-9));
  EXPECT_FALSE(approx_equal({1.0, 2.0}, {1.1, 2.0}, 1e-9));
  EXPECT_FALSE(approx_equal({1.0}, {1.0, 2.0}, 1.0));
}

TEST(VectorOps, CheckSameDimensionValidates) {
  EXPECT_EQ(check_same_dimension({{1.0, 2.0}, {3.0, 4.0}}), 2u);
  EXPECT_THROW(check_same_dimension({{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(check_same_dimension({{1.0}}, 3), std::invalid_argument);
}

// --- Hyperbox ---

TEST(Hyperbox, ConstructionValidatesCorners) {
  EXPECT_NO_THROW(Hyperbox({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_THROW(Hyperbox({0.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Hyperbox({2.0}, {1.0}), std::invalid_argument);
}

TEST(Hyperbox, BoundingBoxOfPoints) {
  const Hyperbox box =
      Hyperbox::bounding(
          GradientBatch::from({{0.0, 5.0}, {2.0, 1.0}, {-1.0, 3.0}}));
  EXPECT_EQ(box.lo(), (Vector{-1.0, 1.0}));
  EXPECT_EQ(box.hi(), (Vector{2.0, 5.0}));
}

TEST(Hyperbox, BoundingOfEmptyThrows) {
  EXPECT_THROW(Hyperbox::bounding({}), std::invalid_argument);
}

TEST(Hyperbox, ContainsPointAndBox) {
  const Hyperbox box({0.0, 0.0}, {2.0, 2.0});
  EXPECT_TRUE(box.contains({1.0, 1.0}));
  EXPECT_TRUE(box.contains({0.0, 2.0}));  // boundary closed
  EXPECT_FALSE(box.contains({2.1, 1.0}));
  EXPECT_TRUE(box.contains({2.05, 1.0}, 0.1));
  EXPECT_TRUE(box.contains_box(Hyperbox({0.5, 0.5}, {1.5, 1.5})));
  EXPECT_FALSE(box.contains_box(Hyperbox({0.5, 0.5}, {3.0, 1.5})));
}

TEST(Hyperbox, MidpointDefinition36) {
  const Hyperbox box({0.0, -2.0}, {4.0, 2.0});
  EXPECT_EQ(box.midpoint(), (Vector{2.0, 0.0}));
}

TEST(Hyperbox, MaxEdgeDefinition37AndDiagonal) {
  const Hyperbox box({0.0, 0.0, 0.0}, {1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(box.max_edge(), 3.0);
  EXPECT_DOUBLE_EQ(box.diagonal(), std::sqrt(1.0 + 9.0 + 4.0));
  EXPECT_DOUBLE_EQ(Hyperbox::point({5.0, 5.0}).max_edge(), 0.0);
}

TEST(Hyperbox, IntersectionOfOverlapping) {
  const auto inter = Hyperbox::intersect(Hyperbox({0.0, 0.0}, {2.0, 2.0}),
                                         Hyperbox({1.0, -1.0}, {3.0, 1.0}));
  ASSERT_TRUE(inter.has_value());
  EXPECT_EQ(inter->lo(), (Vector{1.0, 0.0}));
  EXPECT_EQ(inter->hi(), (Vector{2.0, 1.0}));
}

TEST(Hyperbox, IntersectionEmptyWhenDisjoint) {
  EXPECT_FALSE(Hyperbox::intersect(Hyperbox({0.0}, {1.0}),
                                   Hyperbox({2.0}, {3.0}))
                   .has_value());
}

TEST(Hyperbox, IntersectionAtSharedBoundaryIsDegenerate) {
  const auto inter =
      Hyperbox::intersect(Hyperbox({0.0}, {1.0}), Hyperbox({1.0}, {2.0}));
  ASSERT_TRUE(inter.has_value());
  EXPECT_DOUBLE_EQ(inter->lo()[0], 1.0);
  EXPECT_DOUBLE_EQ(inter->hi()[0], 1.0);
}

TEST(Hyperbox, MergeContainsBoth) {
  const Hyperbox a({0.0, 0.0}, {1.0, 1.0});
  const Hyperbox b({2.0, -1.0}, {3.0, 0.5});
  const Hyperbox m = Hyperbox::merge(a, b);
  EXPECT_TRUE(m.contains_box(a));
  EXPECT_TRUE(m.contains_box(b));
}

TEST(Hyperbox, InflatedGrowsSymmetrically) {
  const Hyperbox box({0.0}, {1.0});
  const Hyperbox big = box.inflated(0.5);
  EXPECT_DOUBLE_EQ(big.lo()[0], -0.5);
  EXPECT_DOUBLE_EQ(big.hi()[0], 1.5);
}

TEST(Hyperbox, IntersectDimensionMismatchThrows) {
  EXPECT_THROW(
      Hyperbox::intersect(Hyperbox({0.0}, {1.0}),
                          Hyperbox({0.0, 0.0}, {1.0, 1.0})),
      std::invalid_argument);
}

// --- stats ---

TEST(Stats, KthSmallest) {
  EXPECT_DOUBLE_EQ(kth_smallest({5.0, 1.0, 3.0}, 0), 1.0);
  EXPECT_DOUBLE_EQ(kth_smallest({5.0, 1.0, 3.0}, 2), 5.0);
  EXPECT_THROW(kth_smallest({1.0}, 1), std::invalid_argument);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, TrimmedMeanDropsExtremes) {
  // Trim one from each side of {0, 1, 2, 3, 100} -> mean(1, 2, 3) = 2.
  EXPECT_DOUBLE_EQ(trimmed_mean({0.0, 1.0, 2.0, 3.0, 100.0}, 1), 2.0);
  EXPECT_THROW(trimmed_mean({1.0, 2.0}, 1), std::invalid_argument);
}

TEST(Stats, CoordinatewiseMedianIgnoresOutlierPerCoordinate) {
  const VectorList vs{{0.0, 0.0}, {1.0, 1.0}, {100.0, -100.0}};
  EXPECT_EQ(coordinatewise_median(vs), (Vector{1.0, 0.0}));
}

TEST(Stats, CoordinatewiseTrimmedMean) {
  const VectorList vs{{0.0}, {1.0}, {2.0}, {3.0}, {1000.0}};
  EXPECT_EQ(coordinatewise_trimmed_mean(vs, 1), (Vector{2.0}));
}

TEST(Stats, TrimmedHyperboxMatchesDefinition25) {
  // m = 5 received, keep = n - t = 4 -> drop 1 per side:
  // sorted {0,1,2,3,10} -> [1, 3].
  const GradientBatch vs =
      GradientBatch::from({{3.0}, {0.0}, {10.0}, {1.0}, {2.0}});
  const Hyperbox th = trimmed_hyperbox(vs, 4);
  EXPECT_DOUBLE_EQ(th.lo()[0], 1.0);
  EXPECT_DOUBLE_EQ(th.hi()[0], 3.0);
}

TEST(Stats, TrimmedHyperboxNoTrimWhenAllKept) {
  const GradientBatch vs = GradientBatch::from({{1.0, 5.0}, {3.0, 4.0}});
  const Hyperbox th = trimmed_hyperbox(vs, 2);
  EXPECT_EQ(th.lo(), (Vector{1.0, 4.0}));
  EXPECT_EQ(th.hi(), (Vector{3.0, 5.0}));
}

TEST(Stats, TrimmedHyperboxPerCoordinateIndependence) {
  // The trimming happens per coordinate: an outlier in x only affects x.
  const GradientBatch vs = GradientBatch::from(
      {{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {100.0, 3.0}});
  const Hyperbox th = trimmed_hyperbox(vs, 3);
  EXPECT_DOUBLE_EQ(th.hi()[0], 2.0);   // 100 trimmed
  EXPECT_DOUBLE_EQ(th.hi()[1], 2.0);   // 3 trimmed (largest in y)
  EXPECT_DOUBLE_EQ(th.lo()[0], 1.0);
  EXPECT_DOUBLE_EQ(th.lo()[1], 1.0);
}

TEST(Stats, TrimmedHyperboxRejectsOverTrimming) {
  const GradientBatch vs = GradientBatch::from({{0.0}, {1.0}, {2.0}, {3.0}});
  // keep = 2, drop = 2 per side -> lower index 2 > upper index 1: invalid.
  EXPECT_THROW(trimmed_hyperbox(vs, 2), std::invalid_argument);
  EXPECT_THROW(trimmed_hyperbox(vs, 0), std::invalid_argument);
  EXPECT_THROW(trimmed_hyperbox(vs, 5), std::invalid_argument);
}

TEST(Stats, PooledTrimmedHyperboxMatchesSerialBitwise) {
  // d spans several 128-column selection tiles plus a ragged one; signed
  // zeros make the placement of equal values visible in the bits.
  Rng rng(12);
  const std::size_t m = 10;
  const std::size_t d = 128 * 5 + 17;
  GradientBatch batch(m, d);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < d; ++k) {
      const double x = rng.uniform(-2.0, 2.0);
      batch.row(i)[k] = k % 7 == 0 ? (i % 2 == 0 ? 0.0 : -0.0) : x;
    }
  }
  ThreadPool pool(3);
  for (const std::size_t keep : {6u, 8u, 10u}) {
    const Hyperbox serial = trimmed_hyperbox(batch, keep);
    const Hyperbox pooled = trimmed_hyperbox(batch, keep, &pool);
    EXPECT_EQ(std::memcmp(serial.lo().data(), pooled.lo().data(),
                          d * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(serial.hi().data(), pooled.hi().data(),
                          d * sizeof(double)),
              0);
  }
}

// Values drawn from a small set with both zeros, so columns are full of
// ties, -0.0 against 0.0 among them.
double tie_heavy_value(Rng& rng) {
  static const double kValues[] = {-0.0, 0.0, 1.0, -1.0, 2.5, 0.0, -0.0};
  if (rng.uniform() < 0.2) return rng.uniform(-3.0, 3.0);
  return kValues[rng.uniform_u64(7)];
}

TEST(Stats, OrderStatisticsBoxMatchesSortedColumnsBitwise) {
  // For m <= 16 std::sort is a stable insertion sort, so the table's r-th
  // values are the sorted column's, sign of zero included, for every
  // valid keep.
  Rng rng(21);
  const std::size_t d = 300;
  for (std::size_t m = 1; m <= 16; ++m) {
    GradientBatch batch(m, d);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < d; ++k) {
        batch.row(i)[k] = tie_heavy_value(rng);
      }
    }
    for (std::size_t keep = 1; keep <= m; ++keep) {
      const std::size_t drop = m - keep;
      if (drop >= keep) continue;
      const Hyperbox th = trimmed_hyperbox(batch, keep);
      std::vector<double> column(m);
      for (std::size_t k = 0; k < d; ++k) {
        for (std::size_t i = 0; i < m; ++i) column[i] = batch.row(i)[k];
        std::sort(column.begin(), column.end());
        ASSERT_EQ(std::memcmp(&th.lo()[k], &column[drop], sizeof(double)), 0)
            << "m=" << m << " keep=" << keep << " k=" << k;
        ASSERT_EQ(std::memcmp(&th.hi()[k], &column[keep - 1], sizeof(double)),
                  0)
            << "m=" << m << " keep=" << keep << " k=" << k;
      }
    }
  }
}

TEST(Stats, OrderStatisticsSpreadsMatchBoundingDiagonalBitwise) {
  // Every subset that leaves out fewer than depth rows: its spread from
  // the table is Hyperbox::bounding(rows_view(...)).diagonal(), bit for
  // bit, serially and on a pool.
  Rng rng(22);
  ThreadPool pool(3);
  for (const std::size_t d : {1u, 5u, 130u, 300u}) {
    for (std::size_t m = 1; m <= 10; ++m) {
      GradientBatch batch(m, d);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t k = 0; k < d; ++k) {
          batch.row(i)[k] = tie_heavy_value(rng);
        }
      }
      for (std::size_t keep = 1; keep <= m; ++keep) {
        const OrderStatistics table(batch, m - keep + 1);
        std::vector<std::vector<std::size_t>> left_out;
        std::vector<double> want;
        std::vector<const double*> view_table;
        for (const auto& subset : all_combinations(m, keep)) {
          std::vector<std::size_t> out;
          for (std::size_t i = 0, next = 0; i < m; ++i) {
            if (next < keep && subset[next] == i) {
              ++next;
            } else {
              out.push_back(i);
            }
          }
          left_out.push_back(out);
          want.push_back(
              Hyperbox::bounding(rows_view(batch, subset, view_table))
                  .diagonal());
        }
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const std::vector<double> got = table.spreads_without(left_out, p);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t c = 0; c < got.size(); ++c) {
            ASSERT_EQ(std::memcmp(&got[c], &want[c], sizeof(double)), 0)
                << "d=" << d << " m=" << m << " keep=" << keep
                << " subset=" << c;
          }
        }
      }
    }
  }
  // Leaving out depth rows or more is rejected.
  GradientBatch batch(4, 2);
  const OrderStatistics table(batch, 2);
  EXPECT_THROW(table.spreads_without({{0, 1}}), std::invalid_argument);
  EXPECT_THROW(OrderStatistics(batch, 0), std::invalid_argument);
  EXPECT_THROW(OrderStatistics(batch, 5), std::invalid_argument);
}

TEST(Stats, MeanStd) {
  const auto ms = mean_std({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(ms.mean, 5.0);
  EXPECT_DOUBLE_EQ(ms.std, 2.0);
  EXPECT_DOUBLE_EQ(mean_std({}).mean, 0.0);
}

// --- property sweeps ---

class HyperboxPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HyperboxPropertyTest, MidpointInsideAndEdgesConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t d = 1 + rng.uniform_u64(8);
  VectorList points;
  for (int i = 0; i < 12; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-10.0, 10.0);
    points.push_back(p);
  }
  const Hyperbox box = Hyperbox::bounding(GradientBatch::from(points));
  EXPECT_TRUE(box.contains(box.midpoint(), 1e-12));
  for (const auto& p : points) EXPECT_TRUE(box.contains(p, 1e-12));
  EXPECT_LE(box.max_edge(), box.diagonal() + 1e-12);
  EXPECT_LE(box.diagonal(),
            std::sqrt(static_cast<double>(d)) * box.max_edge() + 1e-12);
}

TEST_P(HyperboxPropertyTest, IntersectionIsSubsetOfBoth) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t d = 1 + rng.uniform_u64(5);
  auto random_box = [&] {
    Vector lo(d);
    Vector hi(d);
    for (std::size_t k = 0; k < d; ++k) {
      const double a = rng.uniform(-5.0, 5.0);
      const double b = rng.uniform(-5.0, 5.0);
      lo[k] = std::min(a, b);
      hi[k] = std::max(a, b);
    }
    return Hyperbox(lo, hi);
  };
  const Hyperbox a = random_box();
  const Hyperbox b = random_box();
  const auto inter = Hyperbox::intersect(a, b);
  if (inter) {
    EXPECT_TRUE(a.contains_box(*inter, 1e-12));
    EXPECT_TRUE(b.contains_box(*inter, 1e-12));
  } else {
    // Disjoint in at least one coordinate.
    bool found_gap = false;
    for (std::size_t k = 0; k < d; ++k) {
      if (a.hi()[k] < b.lo()[k] || b.hi()[k] < a.lo()[k]) found_gap = true;
    }
    EXPECT_TRUE(found_gap);
  }
}

TEST_P(HyperboxPropertyTest, TrimmedHyperboxShrinksWithMoreTrimming) {
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t d = 1 + rng.uniform_u64(4);
  VectorList points;
  for (int i = 0; i < 9; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-3.0, 3.0);
    points.push_back(p);
  }
  // keep = 8 trims 1/side; keep = 7 trims 2/side; nested containment.
  const GradientBatch batch = GradientBatch::from(points);
  const Hyperbox outer = trimmed_hyperbox(batch, 8);
  const Hyperbox inner = trimmed_hyperbox(batch, 7);
  EXPECT_TRUE(outer.contains_box(inner, 1e-12));
  EXPECT_TRUE(Hyperbox::bounding(batch).contains_box(outer, 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HyperboxPropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace bcl
