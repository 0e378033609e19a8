// Tests for src/geometry: subset enumeration, Weiszfeld geometric median,
// medoid, minimum enclosing balls, minimum-diameter subsets, planar convex
// geometry, and the exact 1-D/2-D safe areas of Definition 2.3.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "geometry/convex2d.hpp"
#include "geometry/enclosing_ball.hpp"
#include "geometry/medoid.hpp"
#include "geometry/min_diameter.hpp"
#include "geometry/safe_area.hpp"
#include "geometry/subsets.hpp"
#include "geometry/weiszfeld.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"
#include "linalg/hyperbox.hpp"
#include "util/rng.hpp"
#include "weiszfeld_oracle.hpp"

namespace bcl {
namespace {

// --- subsets ---

TEST(Subsets, BinomialKnownValues) {
  EXPECT_EQ(binomial(10, 8), 45u);
  EXPECT_EQ(binomial(10, 0), 1u);
  EXPECT_EQ(binomial(10, 10), 1u);
  EXPECT_EQ(binomial(5, 7), 0u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(Subsets, BinomialOverflowDetected) {
  EXPECT_THROW(binomial(100, 50), std::overflow_error);
}

TEST(Subsets, EnumerationCountMatchesBinomial) {
  std::size_t count = 0;
  for_each_combination(7, 3, [&](const std::vector<std::size_t>&) { ++count; });
  EXPECT_EQ(count, binomial(7, 3));
}

TEST(Subsets, EnumerationIsLexicographicAndSorted) {
  const auto combos = all_combinations(4, 2);
  ASSERT_EQ(combos.size(), 6u);
  EXPECT_EQ(combos.front(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(combos.back(), (std::vector<std::size_t>{2, 3}));
  for (std::size_t i = 1; i < combos.size(); ++i) {
    EXPECT_LT(combos[i - 1], combos[i]);
  }
}

TEST(Subsets, EnumerationUniqueSubsets) {
  const auto combos = all_combinations(8, 5);
  std::set<std::vector<std::size_t>> unique(combos.begin(), combos.end());
  EXPECT_EQ(unique.size(), combos.size());
}

TEST(Subsets, FullAndEmptySubsets) {
  EXPECT_EQ(all_combinations(3, 3).size(), 1u);
  EXPECT_EQ(all_combinations(3, 0).size(), 1u);
  EXPECT_TRUE(all_combinations(3, 4).empty());
}

TEST(Subsets, GatherPicksIndices) {
  const std::vector<int> v{10, 20, 30, 40};
  EXPECT_EQ(gather(v, {0, 3}), (std::vector<int>{10, 40}));
}

// --- Weiszfeld / geometric median ---

TEST(Weiszfeld, SinglePointIsItself) {
  const auto r = geometric_median(GradientBatch::from({{3.0, 4.0}}));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.point, (Vector{3.0, 4.0}));
}

TEST(Weiszfeld, TwoPointsReturnsMidpoint) {
  const auto r =
      geometric_median(GradientBatch::from({{0.0, 0.0}, {2.0, 4.0}}));
  EXPECT_EQ(r.point, (Vector{1.0, 2.0}));
}

TEST(Weiszfeld, EquilateralTriangleMedianIsCentroid) {
  const VectorList pts{{0.0, 0.0}, {1.0, 0.0}, {0.5, std::sqrt(3.0) / 2.0}};
  const auto r = geometric_median(GradientBatch::from(pts));
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(approx_equal(r.point, mean(pts), 1e-7));
}

TEST(Weiszfeld, SquareMedianIsCenter) {
  const VectorList pts{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const auto r = geometric_median(GradientBatch::from(pts));
  EXPECT_TRUE(approx_equal(r.point, {1.0, 1.0}, 1e-7));
}

TEST(Weiszfeld, CollinearOddPointsMedianIsMiddle) {
  const VectorList pts{{0.0}, {1.0}, {10.0}};
  const auto r = geometric_median(GradientBatch::from(pts));
  EXPECT_NEAR(r.point[0], 1.0, 1e-7);
}

TEST(Weiszfeld, MajorityPropertyShortCircuits) {
  // 3 of 5 points coincide -> the majority point is the geometric median.
  const VectorList pts{{5.0, 5.0}, {5.0, 5.0}, {5.0, 5.0}, {0.0, 0.0},
                       {9.0, 1.0}};
  const auto r = geometric_median(GradientBatch::from(pts));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.point, (Vector{5.0, 5.0}));
}

TEST(Weiszfeld, ObtuseTriangleAnchorsAtVertex) {
  // If one vertex sees the other two at an angle >= 120 degrees, that
  // vertex IS the geometric median (classical Fermat point fact).
  const VectorList pts{{0.0, 0.0}, {10.0, 0.1}, {-10.0, 0.1}};
  const auto r = geometric_median(GradientBatch::from(pts));
  EXPECT_TRUE(approx_equal(r.point, {0.0, 0.0}, 1e-6));
}

TEST(Weiszfeld, ObjectiveIsMinimalAgainstPerturbations) {
  Rng rng(5);
  VectorList pts;
  for (int i = 0; i < 9; ++i) {
    pts.push_back({rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0),
                   rng.uniform(-4.0, 4.0)});
  }
  const GradientBatch batch = GradientBatch::from(pts);
  const auto r = geometric_median(batch);
  ASSERT_TRUE(r.converged);
  const double obj = geometric_median_objective(batch, r.point);
  for (int trial = 0; trial < 30; ++trial) {
    Vector q = r.point;
    for (auto& x : q) x += rng.gaussian(0.0, 0.05);
    EXPECT_GE(geometric_median_objective(batch, q), obj - 1e-7);
  }
}

TEST(Weiszfeld, ConvergedObjectiveMatchesReportedObjective) {
  const GradientBatch pts =
      GradientBatch::from({{0.0, 1.0}, {1.0, 0.0}, {-1.0, 0.0}, {0.0, -1.0}});
  const auto r = geometric_median(pts);
  EXPECT_NEAR(r.objective, geometric_median_objective(pts, r.point), 1e-12);
}

TEST(Weiszfeld, MajorityReturnsFirstRowOfItsClass) {
  // Rows compare lexicographically, so -0.0 and 0.0 fall in one class of
  // five rows; its first row by index, (0, 1) with a clear sign bit, is
  // the median, returned before any iteration.
  const GradientBatch pts = GradientBatch::from({{0.0, 1.0},
                                                 {1.0, 0.0},
                                                 {-0.0, 1.0},
                                                 {-0.0, 1.0},
                                                 {2.0, 3.0},
                                                 {0.0, 1.0},
                                                 {-0.0, 1.0}});
  const auto r = geometric_median(pts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.point, (Vector{0.0, 1.0}));
  EXPECT_FALSE(std::signbit(r.point[0]));
}

TEST(Weiszfeld, RowsViewMatchesOwnedBatchBitwise) {
  // Each set is interleaved with decoy rows and selected back through
  // rows_view; the view must reproduce the packed batch bit for bit on
  // every branch: n = 1, n = 2, the majority test, the plain iteration,
  // and Kuhn's test at a centroid that is an input point (accepted, or
  // pushed off).
  Rng rng(9);
  VectorList random_rows;
  for (int i = 0; i < 9; ++i) {
    Vector p(7);
    for (auto& x : p) x = rng.uniform(-5.0, 5.0);
    random_rows.push_back(p);
  }
  const std::vector<VectorList> sets{
      {{1.5, -2.0}},
      {{0.0, 0.0}, {2.0, 4.0}},
      {{5.0, 5.0}, {0.0, 0.0}, {5.0, 5.0}, {9.0, 1.0}, {5.0, 5.0}},
      random_rows,
      {{0.0, 0.0}, {1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}},
      {{0.0, 0.0}, {1.0, 0.0}, {1.0, 0.1}, {1.0, -0.1}, {-3.0, 0.0}}};
  const auto same_bits = [](const Vector& a, const Vector& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (const VectorList& set : sets) {
    const std::size_t d = set.front().size();
    VectorList interleaved;
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < set.size(); ++i) {
      interleaved.push_back(constant(d, 1e3 + static_cast<double>(i)));
      picks.push_back(interleaved.size());
      interleaved.push_back(set[i]);
    }
    const GradientBatch owned = GradientBatch::from(interleaved);
    std::vector<const double*> table;
    const GradientBatch view = rows_view(owned, picks, table);
    const GradientBatch packed = GradientBatch::from(set);

    const auto a = geometric_median(packed);
    const auto b = geometric_median(view);
    EXPECT_TRUE(same_bits(a.point, b.point)) << "n = " << set.size();
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.objective, b.objective);
    const auto sa = smoothed_geometric_median(packed, 1e-3);
    const auto sb = smoothed_geometric_median(view, 1e-3);
    EXPECT_TRUE(same_bits(sa.point, sb.point)) << "n = " << set.size();
    EXPECT_EQ(sa.iterations, sb.iterations);
    EXPECT_EQ(sa.objective, sb.objective);
  }
  // The last two sets reach Kuhn's branch: the cross's centroid is its
  // optimal anchor, the other set's centroid is pushed off.
  EXPECT_EQ(geometric_median(GradientBatch::from(sets[4])).iterations, 1u);
  EXPECT_EQ(geometric_median(GradientBatch::from(sets[5])).iterations, 48u);
}

TEST(Weiszfeld, SubsetEntryPointRejectsBadInput) {
  const GradientBatch batch =
      GradientBatch::from({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}});
  const DistanceMatrix distances(batch);
  EXPECT_THROW(geometric_median(batch, distances, {}), std::invalid_argument);
  EXPECT_THROW(geometric_median(batch, distances, {0, 3}),
               std::invalid_argument);
  const DistanceMatrix other(GradientBatch::from({{0.0, 0.0}, {1.0, 0.0}}));
  EXPECT_THROW(geometric_median(batch, other, {0, 1}), std::invalid_argument);
}

// --- Weiszfeld against the coordinate-space oracle ---

struct GeneratedSet {
  std::string name;
  VectorList rows;
  double bound;  // on ||median - oracle|| / (1 + spread)
  // Whether the oracle's own stop test resolves the tolerance; when it
  // does, iteration counts must agree within +-1.
  bool oracle_stops = true;
};

Vector gaussian_row(Rng& rng, std::size_t d, double scale = 1.0) {
  Vector p(d);
  for (auto& x : p) x = scale * rng.gaussian();
  return p;
}

// The adversarial families of the differential check, n rows in R^d, t of
// them the "outliers" where a family has any.
std::vector<GeneratedSet> generated_sets(Rng& rng, std::size_t n,
                                         std::size_t t, std::size_t d) {
  std::vector<GeneratedSet> sets;
  VectorList gaussian;
  for (std::size_t i = 0; i < n; ++i) gaussian.push_back(gaussian_row(rng, d));
  sets.push_back({"gaussian", gaussian, 1e-9});

  // A common offset of 1e3 or 1e6 times the spread.  At 1e6 the rows are
  // quantized at ulp(1e6 * spread) ~ 2e-10 * spread, so the bound is 1e-8.
  // The oracle's iterates are quantized the same way: it measures a step
  // only to ~ulp * sqrt(d), which straddles the stop tolerance, so it
  // stops a few iterations early or wanders to the cap (1000 iterations
  // where the weight-space loop stops at 12).  Its iteration count is not
  // compared there.
  const double spread = Hyperbox::bounding(GradientBatch::from(gaussian))
                            .diagonal();
  for (const double factor : {1e3, 1e6}) {
    const double offset_scale =
        factor * spread / std::sqrt(static_cast<double>(d));
    const Vector offset = gaussian_row(rng, d, offset_scale);
    VectorList shifted;
    for (const auto& row : gaussian) shifted.push_back(add(row, offset));
    sets.push_back({factor == 1e6 ? "offset-1e6" : "offset-1e3", shifted,
                    factor == 1e6 ? 1e-8 : 1e-9, factor != 1e6});
  }

  // A tight cluster of n - t rows plus t far outliers.
  for (const double radius : {1e-3, 1e-6, 1e-9}) {
    const Vector centre = gaussian_row(rng, d);
    VectorList rows;
    for (std::size_t i = 0; i < n - t; ++i) {
      rows.push_back(add(centre, gaussian_row(rng, d, radius)));
    }
    for (std::size_t i = 0; i < t; ++i) {
      rows.push_back(add(centre, gaussian_row(rng, d, 1e3)));
    }
    sets.push_back({"cluster", rows, 1e-9});
  }

  // Sign-flip: a cluster plus two rows at -4x its centre.
  {
    const Vector centre = add(constant(d, 2.0), gaussian_row(rng, d, 0.5));
    VectorList rows;
    for (std::size_t i = 0; i + 2 < n; ++i) {
      rows.push_back(add(centre, gaussian_row(rng, d, 0.1)));
    }
    rows.push_back(scale(centre, -4.0));
    rows.push_back(scale(centre, -4.0));
    sets.push_back({"sign-flip", rows, 1e-9});
  }

  // Exact duplicates, and near duplicates 1e-12 apart.
  {
    VectorList exact;
    VectorList near;
    for (std::size_t i = 0; i < n; ++i) {
      exact.push_back(gaussian[i / 2]);
      near.push_back(i % 2 == 0 ? gaussian[i / 2]
                                : add(gaussian[i / 2],
                                      gaussian_row(rng, d, 1e-12)));
    }
    sets.push_back({"duplicates", exact, 1e-9});
    sets.push_back({"near-duplicates", near, 1e-9});
  }

  // Collinear rows: with an odd count the median is an input row, which
  // the iterate approaches until the weight-space loop hands off.
  {
    const Vector base = gaussian_row(rng, d);
    const Vector direction = gaussian_row(rng, d);
    VectorList rows;
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back(add(base, scale(direction, rng.uniform(-1.0, 1.0))));
    }
    sets.push_back({"collinear", rows, 1e-9});
  }

  // The centroid lands on an input: c twice (when n is even) and
  // symmetric pairs c +- v.
  {
    const Vector c = gaussian_row(rng, d);
    VectorList rows{c};
    if (n % 2 == 0) rows.push_back(c);
    while (rows.size() < n) {
      const Vector v = gaussian_row(rng, d);
      rows.push_back(add(c, v));
      rows.push_back(sub(c, v));
    }
    sets.push_back({"centroid-on-input", rows, 1e-9});
  }

  for (const double magnitude : {1e-150, 1e150}) {
    VectorList rows;
    for (const auto& row : gaussian) rows.push_back(scale(row, magnitude));
    sets.push_back({"scaled", rows, 1e-9});
  }
  return sets;
}

TEST(WeiszfeldOracle, EveryEntryPointMatchesCoordinateOracle) {
  // Every (n - t)-subset of every generated set, through the subset entry
  // point (one matrix over the whole set) and the points entry point (its
  // own matrix over the packed subset): within the set's bound of the
  // coordinate-space oracle, and within +-1 of its iteration count.
  struct Shape {
    std::size_t n, t, d;
  };
  const std::vector<Shape> shapes{{10, 1, 3}, {10, 2, 50}, {9, 2, 7},
                                  {7, 2, 2},  {10, 3, 1000}, {5, 1, 1}};
  Rng rng(2024);
  std::size_t handoffs = 0;
  for (const Shape& shape : shapes) {
    for (const GeneratedSet& set :
         generated_sets(rng, shape.n, shape.t, shape.d)) {
      const GradientBatch batch = GradientBatch::from(set.rows);
      const DistanceMatrix distances(batch);
      for (const auto& subset : all_combinations(shape.n, shape.n - shape.t)) {
        VectorList picked;
        for (const std::size_t i : subset) picked.push_back(set.rows[i]);
        const GradientBatch packed = GradientBatch::from(picked);
        const double spread = Hyperbox::bounding(packed).diagonal();
        const WeiszfeldResult oracle = test::oracle_geometric_median(packed);
        const WeiszfeldResult via_subset =
            geometric_median(batch, distances, subset);
        const WeiszfeldResult via_points = geometric_median(packed);
        for (const WeiszfeldResult* r : {&via_subset, &via_points}) {
          SCOPED_TRACE(set.name + " n=" + std::to_string(shape.n) +
                       " t=" + std::to_string(shape.t) +
                       " d=" + std::to_string(shape.d));
          EXPECT_LE(distance(r->point, oracle.point),
                    set.bound * (1.0 + spread));
          if (set.oracle_stops) {
            EXPECT_LE(r->iterations, oracle.iterations + 1);
            EXPECT_GE(r->iterations + 1, oracle.iterations);
            EXPECT_EQ(r->converged, oracle.converged);
          }
          // Every hand-off runs the coordinate loop at least once, and
          // nothing else runs it below the row bound.
          EXPECT_EQ(r->coordinate_iterations > 0, r->coordinate_handoff);
          EXPECT_LE(r->coordinate_iterations, r->iterations);
          if (r->coordinate_handoff) ++handoffs;
        }
      }
    }
  }
  // The collinear and clustered families reach the hand-off.
  EXPECT_GT(handoffs, 0u);
}

TEST(WeiszfeldOracle, AboveRowBoundMatchesOracleBitwise) {
  // Past 128 rows the points entry point runs the coordinate loop from
  // the centroid: the oracle's arithmetic, bit for bit.
  Rng rng(77);
  VectorList rows;
  for (std::size_t i = 0; i < 150; ++i) rows.push_back(gaussian_row(rng, 6));
  const GradientBatch batch = GradientBatch::from(rows);
  const WeiszfeldResult oracle = test::oracle_geometric_median(batch);
  const WeiszfeldResult r = geometric_median(batch);
  ASSERT_EQ(r.point.size(), oracle.point.size());
  EXPECT_EQ(std::memcmp(r.point.data(), oracle.point.data(),
                        r.point.size() * sizeof(double)),
            0);
  EXPECT_EQ(r.iterations, oracle.iterations);
  EXPECT_EQ(r.objective, oracle.objective);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.coordinate_handoff);
  EXPECT_EQ(r.coordinate_iterations, r.iterations);
}

TEST(WeiszfeldOracle, OverflowingDistancesFollowOracleBitwise) {
  // A row at 1e160 overflows every squared distance to it, so the
  // weight-space identity is not finite: the loop hands off at iteration
  // 0 and returns exactly what the coordinate loop does.
  Rng rng(5);
  VectorList rows;
  for (std::size_t i = 0; i < 9; ++i) rows.push_back(gaussian_row(rng, 3));
  rows.push_back(constant(3, 1e160));
  const GradientBatch batch = GradientBatch::from(rows);
  const WeiszfeldResult oracle = test::oracle_geometric_median(batch);
  const WeiszfeldResult r = geometric_median(batch);
  EXPECT_EQ(std::memcmp(r.point.data(), oracle.point.data(),
                        r.point.size() * sizeof(double)),
            0);
  EXPECT_EQ(r.iterations, oracle.iterations);
  EXPECT_TRUE(r.coordinate_handoff);
  EXPECT_EQ(r.coordinate_iterations, r.iterations);
}

// --- the coordinate passes against the naive loops, bit for bit ---

// Row counts covering every tail of the distance pass's 4-row sweeps, at
// the subset sizes of agreement and past the weight-space row bound, and
// dimensions covering every tail of the update pass's 16-coordinate
// blocks (none, 1, 2, 3 and 15 coordinates) up to the MLP's d.
std::vector<std::size_t> pass_row_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 3; n <= 20; ++n) counts.push_back(n);
  for (std::size_t n = 129; n <= 137; ++n) counts.push_back(n);
  return counts;
}

const std::vector<std::size_t> kPassDims{1, 2, 3, 16, 17, 31, 1842};

// A row set and an iterate to start the coordinate loop from.
struct CoordinateStart {
  std::string name;
  VectorList rows;
  Vector y;
};

std::vector<CoordinateStart> coordinate_starts(Rng& rng, std::size_t n,
                                               std::size_t d) {
  VectorList gaussian;
  for (std::size_t i = 0; i < n; ++i) gaussian.push_back(gaussian_row(rng, d));
  std::vector<CoordinateStart> starts;
  starts.push_back({"centroid", gaussian, mean(gaussian)});
  // On a row: Kuhn's test fails and the iterate is pushed off it.
  starts.push_back({"on-row", gaussian, gaussian[n / 2]});
  // On row 0 repeated: twice, pushed off it once n is large enough, and
  // on ceil(n / 2) rows, where ||pull|| <= n - mult <= mult makes it
  // optimal (Kuhn's other exit).
  for (const std::size_t copies : {std::size_t{2}, (n + 1) / 2}) {
    VectorList rows = gaussian;
    for (std::size_t i = 1; i < copies; ++i) rows[i] = rows[0];
    starts.push_back({"repeated-row", rows, rows[0]});
  }
  // From the centre of a tight cluster with far rows, where asynchronous
  // agreement's subset medians hand off.
  const Vector centre = gaussian_row(rng, d);
  const std::size_t far = std::max<std::size_t>(1, n / 4);
  VectorList cluster;
  for (std::size_t i = 0; i < n - far; ++i) {
    cluster.push_back(add(centre, gaussian_row(rng, d, 1e-4)));
  }
  for (std::size_t i = 0; i < far; ++i) {
    cluster.push_back(add(centre, gaussian_row(rng, d, 1e3)));
  }
  starts.push_back({"cluster", cluster, centre});
  return starts;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(WeiszfeldOracle, CoordinateLoopMatchesOracleBitwiseFromAnyStart) {
  // Production's loop (the distance and update passes, the lazy pull)
  // against the naive loop from every start, at iterations 0 and 5, run
  // to convergence and cut two iterations in (the unconverged exit): the
  // same point, iteration count and exit.  The objective at the start and
  // at the result is the naive row-order sum of naive distances.
  Rng rng(4242);
  std::size_t optimal_exits = 0;
  std::size_t unconverged = 0;
  for (const std::size_t n : pass_row_counts()) {
    for (const std::size_t d : kPassDims) {
      for (const CoordinateStart& start : coordinate_starts(rng, n, d)) {
        SCOPED_TRACE(start.name + " n=" + std::to_string(n) +
                     " d=" + std::to_string(d));
        const GradientBatch points = GradientBatch::from(start.rows);
        const double spread = Hyperbox::bounding(points).diagonal();
        EXPECT_EQ(geometric_median_objective(points, start.y),
                  test::oracle_objective(points, start.y));
        for (const std::size_t first : {std::size_t{0}, std::size_t{5}}) {
          for (const std::size_t cap : {std::size_t{1000}, first + 2}) {
            WeiszfeldOptions options;
            options.max_iterations = cap;
            const MedianForm got = weiszfeld_coordinate_loop(
                points, start.y, first, spread, options);
            const WeiszfeldResult want = test::oracle_coordinate_loop(
                points, start.y, first, spread, options);
            EXPECT_TRUE(bitwise_equal(got.point, want.point));
            EXPECT_EQ(got.iterations, want.iterations);
            EXPECT_EQ(got.converged, want.converged);
            EXPECT_EQ(got.coordinate_iterations, got.iterations - first);
            EXPECT_EQ(geometric_median_objective(points, got.point),
                      want.objective);
            optimal_exits += want.converged && want.iterations == first + 1 &&
                             bitwise_equal(want.point, start.y);
            unconverged += !want.converged;
          }
        }
      }
    }
  }
  // Kuhn's optimality exit and the iteration cap are both reached.
  EXPECT_GT(optimal_exits, 0u);
  EXPECT_GT(unconverged, 0u);
}

TEST(WeiszfeldOracle, SmoothedLoopMatchesOracleBitwise) {
  // RFA's smoothed loop, run on the coordinate passes, against the naive
  // loop on the same row sets, at a floor below and above the rows'
  // nearest distances.
  Rng rng(4343);
  for (const std::size_t n : pass_row_counts()) {
    for (const std::size_t d : kPassDims) {
      for (const CoordinateStart& start : coordinate_starts(rng, n, d)) {
        const GradientBatch points = GradientBatch::from(start.rows);
        for (const double nu : {1e-6, 1e-2}) {
          SCOPED_TRACE(start.name + " n=" + std::to_string(n) +
                       " d=" + std::to_string(d) +
                       " nu=" + std::to_string(nu));
          const WeiszfeldResult got = smoothed_geometric_median(points, nu);
          const WeiszfeldResult want =
              test::oracle_smoothed_geometric_median(points, nu);
          EXPECT_TRUE(bitwise_equal(got.point, want.point));
          EXPECT_EQ(got.iterations, want.iterations);
          EXPECT_EQ(got.converged, want.converged);
          EXPECT_EQ(got.objective, want.objective);
        }
      }
    }
  }
}

TEST(Weiszfeld, SubsetEntryOverEveryRowMatchesPointsBitwise) {
  Rng rng(31);
  for (const std::size_t n : {3u, 8u, 40u}) {
    VectorList rows;
    for (std::size_t i = 0; i < n; ++i) rows.push_back(gaussian_row(rng, 5));
    const GradientBatch batch = GradientBatch::from(rows);
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    const WeiszfeldResult a = geometric_median(batch);
    const WeiszfeldResult b =
        geometric_median(batch, DistanceMatrix(batch), all);
    EXPECT_EQ(std::memcmp(a.point.data(), b.point.data(),
                          a.point.size() * sizeof(double)),
              0);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.objective, b.objective);
  }
}

TEST(Weiszfeld, EmptyListThrows) {
  EXPECT_THROW(geometric_median({}), std::invalid_argument);
}

TEST(Weiszfeld, TranslationEquivariance) {
  Rng rng(6);
  VectorList pts;
  for (int i = 0; i < 7; ++i) {
    pts.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  }
  const Vector shift{100.0, -50.0};
  VectorList shifted;
  for (const auto& p : pts) shifted.push_back(add(p, shift));
  const Vector m1 = geometric_median_point(GradientBatch::from(pts));
  const Vector m2 = geometric_median_point(GradientBatch::from(shifted));
  EXPECT_TRUE(approx_equal(add(m1, shift), m2, 1e-6));
}

TEST(Weiszfeld, HighDimensionalCross) {
  // Points at +-e_j in d dims: by symmetry the median is the origin.
  const std::size_t d = 16;
  VectorList pts;
  for (std::size_t j = 0; j < d; ++j) {
    pts.push_back(unit(d, j, 1.0));
    pts.push_back(unit(d, j, -1.0));
  }
  const auto r = geometric_median(GradientBatch::from(pts));
  EXPECT_TRUE(approx_equal(r.point, zeros(d), 1e-7));
}

// --- medoid ---

TEST(Medoid, PicksInputPointMinimizingDistanceSum) {
  const VectorList pts{{0.0}, {1.0}, {2.0}, {10.0}};
  const std::size_t idx = medoid_index(DistanceMatrix(pts));
  EXPECT_EQ(idx, 1u);  // 1 has sum 1+1+9 = 11, best
  EXPECT_EQ(pts[idx], (Vector{1.0}));
}

TEST(Medoid, TieBreaksToLowestIndex) {
  const VectorList pts{{0.0}, {2.0}};
  EXPECT_EQ(medoid_index(DistanceMatrix(pts)), 0u);
}

TEST(Medoid, ScoreComputation) {
  const VectorList pts{{0.0}, {3.0}, {5.0}};
  const DistanceMatrix dist(pts);
  EXPECT_DOUBLE_EQ(medoid_score(dist, 0), 8.0);
  EXPECT_DOUBLE_EQ(medoid_score(dist, 1), 5.0);
  EXPECT_THROW(medoid_score(dist, 3), std::invalid_argument);
}

TEST(Medoid, MedoidDiffersFromGeometricMedianInGeneral) {
  // Theorem 4.3 rests on this: the medoid is constrained to input points.
  const VectorList pts{{0.0, 0.0}, {2.0, 0.0}, {1.0, 2.0}};
  const Vector med = pts[medoid_index(DistanceMatrix(pts))];
  const Vector geo = geometric_median_point(GradientBatch::from(pts));
  EXPECT_GT(distance(med, geo), 0.1);
}

// --- enclosing ball ---

TEST(EnclosingBall, OnePointZeroRadius) {
  const Ball b = minimum_enclosing_ball({{1.0, 2.0, 3.0}});
  EXPECT_DOUBLE_EQ(b.radius, 0.0);
  EXPECT_EQ(b.center, (Vector{1.0, 2.0, 3.0}));
}

TEST(EnclosingBall, OneDimensionalExactInterval) {
  const Ball b = minimum_enclosing_ball({{3.0}, {-1.0}, {2.0}});
  EXPECT_DOUBLE_EQ(b.center[0], 1.0);
  EXPECT_DOUBLE_EQ(b.radius, 2.0);
}

TEST(EnclosingBall, TwoDimensionalDiametralPair) {
  const Ball b = minimum_enclosing_ball({{0.0, 0.0}, {4.0, 0.0}, {2.0, 1.0}});
  EXPECT_NEAR(b.center[0], 2.0, 1e-9);
  EXPECT_NEAR(b.center[1], 0.0, 1e-9);
  EXPECT_NEAR(b.radius, 2.0, 1e-9);
}

TEST(EnclosingBall, TwoDimensionalCircumscribed) {
  // Equilateral-ish triangle needing all three support points.
  const VectorList pts{{0.0, 0.0}, {2.0, 0.0}, {1.0, 1.8}};
  const Ball b = welzl_circle(pts);
  for (const auto& p : pts) {
    EXPECT_LE(distance(p, b.center), b.radius + 1e-9);
  }
  // All three on the boundary.
  for (const auto& p : pts) {
    EXPECT_NEAR(distance(p, b.center), b.radius, 1e-6);
  }
}

TEST(EnclosingBall, HighDimensionalCoversAllPoints) {
  Rng rng(21);
  VectorList pts;
  for (int i = 0; i < 40; ++i) {
    Vector p(8);
    for (auto& x : p) x = rng.uniform(-2.0, 2.0);
    pts.push_back(p);
  }
  const Ball b = minimum_enclosing_ball(pts);
  for (const auto& p : pts) {
    EXPECT_LE(distance(p, b.center), b.radius + 1e-9);
  }
  // Not wildly larger than the half-diameter lower bound.
  EXPECT_LE(b.radius, diameter(pts));
  EXPECT_GE(b.radius, diameter(pts) / 2.0 - 1e-9);
}

TEST(EnclosingBall, HighDimensionalNearOptimalOnSymmetricInput) {
  // +-e_j cross in d dims: optimal ball is the unit ball at the origin.
  const std::size_t d = 6;
  VectorList pts;
  for (std::size_t j = 0; j < d; ++j) {
    pts.push_back(unit(d, j, 1.0));
    pts.push_back(unit(d, j, -1.0));
  }
  const Ball b = minimum_enclosing_ball(pts);
  EXPECT_NEAR(b.radius, 1.0, 0.05);
  EXPECT_LE(norm2(b.center), 0.05);
}

TEST(EnclosingBall, EmptyThrows) {
  EXPECT_THROW(minimum_enclosing_ball({}), std::invalid_argument);
}

// --- min diameter subsets ---

TEST(MinDiameter, FindsObviousCluster) {
  const VectorList pts{{0.0}, {0.1}, {0.2}, {50.0}, {51.0}};
  const auto r = min_diameter_subset(DistanceMatrix(pts), 3);
  EXPECT_EQ(r.indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_NEAR(r.diameter, 0.2, 1e-12);
}

TEST(MinDiameter, SubsetSizeOneHasZeroDiameter) {
  const auto r =
      min_diameter_subset(DistanceMatrix(VectorList{{5.0}, {9.0}}), 1);
  EXPECT_EQ(r.indices.size(), 1u);
  EXPECT_DOUBLE_EQ(r.diameter, 0.0);
}

TEST(MinDiameter, FullSetDiameterMatchesDiameterFunction) {
  const VectorList pts{{0.0, 0.0}, {3.0, 0.0}, {0.0, 4.0}};
  const auto r = min_diameter_subset(DistanceMatrix(pts), 3);
  EXPECT_DOUBLE_EQ(r.diameter, diameter(pts));
}

TEST(MinDiameter, InvalidSizesThrow) {
  const VectorList pts{{0.0}};
  EXPECT_THROW(min_diameter_subset(DistanceMatrix(pts), 0),
               std::invalid_argument);
  EXPECT_THROW(min_diameter_subset(DistanceMatrix(pts), 2),
               std::invalid_argument);
}

TEST(MinDiameter, MatchesBruteForceOnRandomInputs) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    VectorList pts;
    for (int i = 0; i < 9; ++i) {
      pts.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
    }
    const std::size_t k = 5;
    const auto fast = min_diameter_subset(DistanceMatrix(pts), k);
    double best = 1e300;
    for_each_combination(pts.size(), k,
                         [&](const std::vector<std::size_t>& idx) {
                           best = std::min(best, diameter(gather(pts, idx)));
                         });
    EXPECT_NEAR(fast.diameter, best, 1e-12);
  }
}

TEST(MinDiameter, TiedSubsetEnumerationFindsAllOptima) {
  // Two identical clusters of 3, ask for k = 3: both clusters are optimal.
  const VectorList pts{{0.0}, {0.1}, {0.2}, {10.0}, {10.1}, {10.2}};
  const auto tied = min_diameter_subsets(DistanceMatrix(pts), 3, 1e-9);
  EXPECT_EQ(tied.size(), 2u);
}

TEST(MinDiameter, TieEnumerationContainsLexicographicWinner) {
  const VectorList pts{{0.0}, {1.0}, {2.0}, {3.0}};
  const DistanceMatrix dist(pts);
  const auto best = min_diameter_subset(dist, 2);
  const auto tied = min_diameter_subsets(dist, 2, 1e-9);
  bool found = false;
  for (const auto& r : tied) {
    if (r.indices == best.indices) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(tied.size(), 3u);  // {0,1}, {1,2}, {2,3} all have diameter 1
}

// --- convex 2-D geometry ---

TEST(Convex2D, HullOfSquareWithInteriorPoint) {
  const VectorList pts{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0},
                       {0.5, 0.5}};
  const Polygon2 hull = convex_hull_2d(pts);
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_GT(polygon_area(hull), 0.99);
}

TEST(Convex2D, HullOfCollinearPointsIsSegment) {
  const Polygon2 hull = convex_hull_2d({{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}});
  EXPECT_EQ(hull.size(), 2u);
}

TEST(Convex2D, HullDeduplicates) {
  const Polygon2 hull = convex_hull_2d({{1.0, 1.0}, {1.0, 1.0}});
  EXPECT_EQ(hull.size(), 1u);
}

TEST(Convex2D, AreaOfUnitSquare) {
  const Polygon2 square{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  EXPECT_DOUBLE_EQ(polygon_area(square), 1.0);
}

TEST(Convex2D, ContainsInteriorBoundaryExterior) {
  const Polygon2 square{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  EXPECT_TRUE(polygon_contains(square, {1.0, 1.0}));
  EXPECT_TRUE(polygon_contains(square, {0.0, 1.0}));
  EXPECT_FALSE(polygon_contains(square, {3.0, 1.0}));
}

TEST(Convex2D, ClipOverlappingSquares) {
  const Polygon2 a{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const Polygon2 b{{1.0, 1.0}, {3.0, 1.0}, {3.0, 3.0}, {1.0, 3.0}};
  const Polygon2 inter = clip_convex(a, b);
  EXPECT_NEAR(polygon_area(inter), 1.0, 1e-9);
}

TEST(Convex2D, ClipDisjointIsEmpty) {
  const Polygon2 a{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  const Polygon2 b{{5.0, 5.0}, {6.0, 5.0}, {6.0, 6.0}, {5.0, 6.0}};
  EXPECT_TRUE(clip_convex(a, b).empty());
}

TEST(Convex2D, ClipAgainstPointClipper) {
  const Polygon2 square{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const Polygon2 inside = clip_convex(square, {{1.0, 1.0}});
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_EQ(inside[0], (Vector{1.0, 1.0}));
  EXPECT_TRUE(clip_convex(square, {Vector{5.0, 5.0}}).empty());
}

TEST(Convex2D, ClipAgainstSegmentClipper) {
  const Polygon2 square{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  // Horizontal segment crossing the square.
  const Polygon2 segment{{-1.0, 1.0}, {3.0, 1.0}};
  const Polygon2 inter = clip_convex(square, segment);
  ASSERT_GE(inter.size(), 2u);
  for (const auto& v : inter) {
    EXPECT_NEAR(v[1], 1.0, 1e-9);
    EXPECT_GE(v[0], -1e-9);
    EXPECT_LE(v[0], 2.0 + 1e-9);
  }
}

TEST(Convex2D, CentroidOfEmptyIsNull) {
  EXPECT_FALSE(polygon_centroid({}).has_value());
  const auto c = polygon_centroid({{1.0, 2.0}});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, (Vector{1.0, 2.0}));
}

// --- safe area ---

TEST(SafeArea, OneDimensionalIsTrimmedInterval) {
  // n = 5, t = 1 -> [2nd smallest, 4th smallest].
  const auto interval = safe_area_1d({5.0, 1.0, 3.0, 2.0, 4.0}, 1);
  ASSERT_TRUE(interval.has_value());
  EXPECT_DOUBLE_EQ(interval->first, 2.0);
  EXPECT_DOUBLE_EQ(interval->second, 4.0);
}

TEST(SafeArea, OneDimensionalEmptyWhenTooManyFaults) {
  EXPECT_FALSE(safe_area_1d({1.0, 2.0, 3.0, 4.0}, 2).has_value());
}

TEST(SafeArea, OneDimensionalPointRepresentative) {
  const auto p = safe_area_point({{1.0}, {2.0}, {3.0}, {4.0}, {5.0}}, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ((*p)[0], 3.0);
}

TEST(SafeArea, TwoDimensionalInsideAllSubsetHulls) {
  Rng rng(41);
  VectorList pts;
  for (int i = 0; i < 7; ++i) {
    pts.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  }
  const std::size_t t = 1;
  const Polygon2 area = safe_area_2d(pts, t);
  if (!area.empty()) {
    const auto rep = polygon_centroid(area);
    ASSERT_TRUE(rep.has_value());
    for_each_combination(pts.size(), pts.size() - t,
                         [&](const std::vector<std::size_t>& idx) {
                           const Polygon2 hull =
                               convex_hull_2d(gather(pts, idx));
                           EXPECT_TRUE(polygon_contains(hull, *rep, 1e-6));
                         });
  }
}

TEST(SafeArea, TwoDimensionalDegeneratesToSinglePoint) {
  // Theorem 4.1 construction for d = 2, f = 1: one correct node and the
  // Byzantine node at the origin, two groups of nodes at v + eps_j.  All
  // (n-1)-subset hulls intersect only at the shared point v0 = origin.
  const VectorList pts{{0.0, 0.0},          // correct node at origin
                       {0.0, 0.0},          // Byzantine copy at origin
                       {5.0, 0.0},          // group 1 (f = 1 node)
                       {5.0 + 0.0, 0.1}};   // group 2 = v + eps*e_2
  const Polygon2 area = safe_area_2d(pts, 1);
  ASSERT_FALSE(area.empty());
  const auto rep = polygon_centroid(area);
  ASSERT_TRUE(rep.has_value());
  // The safe area collapses near the duplicated origin point.
  EXPECT_LT(norm2(*rep), 1e-6);
}

TEST(SafeArea, HighDimensionalRequestThrows) {
  EXPECT_THROW(safe_area_point({{1.0, 1.0, 1.0}}, 0), std::invalid_argument);
}

// --- Weiszfeld property sweep ---

class WeiszfeldPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WeiszfeldPropertyTest, FirstOrderOptimalityHolds) {
  Rng rng(7000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 5 + rng.uniform_u64(6);
  const std::size_t d = 2 + rng.uniform_u64(5);
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-3.0, 3.0);
    pts.push_back(p);
  }
  const auto r = geometric_median(GradientBatch::from(pts));
  ASSERT_TRUE(r.converged);
  // Gradient of sum ||v_i - y|| is sum of unit vectors toward y; at the
  // optimum it (sub)vanishes.  Skip anchored cases (handled by Kuhn's
  // condition internally).
  bool anchored = false;
  Vector grad = zeros(d);
  for (const auto& p : pts) {
    const double dist = distance(p, r.point);
    if (dist < 1e-9) {
      anchored = true;
      break;
    }
    axpy(grad, 1.0 / dist, sub(r.point, p));
  }
  if (!anchored) {
    EXPECT_LT(norm2(grad), 1e-4);
  }
}

TEST_P(WeiszfeldPropertyTest, MedianInsideBoundingBox) {
  Rng rng(8000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + rng.uniform_u64(8);
  const std::size_t d = 1 + rng.uniform_u64(6);
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-10.0, 10.0);
    pts.push_back(p);
  }
  const GradientBatch batch = GradientBatch::from(pts);
  const auto r = geometric_median(batch);
  EXPECT_TRUE(Hyperbox::bounding(batch).contains(r.point, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeiszfeldPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace bcl
