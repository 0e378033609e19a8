// Differential tests of the streaming hyperbox rules: BOX-GEOM and
// BOX-MEAN, which build TH from a table of order statistics and fold the
// subset aggregates' forms into GH one coordinate tile at a time, against
// the enumerate-then-bound oracle (tests/hyperbox_oracle.hpp), bit for bit,
// serially and on a pool, with the same `weiszfeld.*` counts.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>

#include "aggregation/hyperbox_rules.hpp"
#include "hyperbox_oracle.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

Vector gaussian_row(Rng& rng, std::size_t d, double scale = 1.0) {
  Vector v(d);
  for (auto& x : v) x = scale * rng.gaussian();
  return v;
}

struct Family {
  std::string name;
  std::function<VectorList(Rng&, std::size_t m, std::size_t d)> rows;
};

std::vector<Family> families() {
  return {
      {"gaussian",
       [](Rng& rng, std::size_t m, std::size_t d) {
         VectorList rows;
         for (std::size_t i = 0; i < m; ++i) {
           rows.push_back(gaussian_row(rng, d));
         }
         return rows;
       }},
      // Honest rows around a centre c, the last one or two at -4c.
      {"flip",
       [](Rng& rng, std::size_t m, std::size_t d) {
         const Vector centre = gaussian_row(rng, d, 3.0);
         const std::size_t flips = m >= 6 ? 2 : 1;
         VectorList rows;
         for (std::size_t i = 0; i + flips < m; ++i) {
           rows.push_back(add(centre, gaussian_row(rng, d, 0.1)));
         }
         while (rows.size() < m) rows.push_back(scale(centre, -4.0));
         return rows;
       }},
      // m - 1 equal rows and a flip: every subset of n - t rows is a
      // majority closed form.
      {"majority",
       [](Rng& rng, std::size_t m, std::size_t d) {
         const Vector centre = gaussian_row(rng, d);
         VectorList rows(m - 1, centre);
         rows.push_back(scale(centre, -4.0));
         return rows;
       }},
      // Two classes of equal size (plus one extra row for odd m): subsets
      // split evenly between them have no majority.
      {"tied-classes",
       [](Rng& rng, std::size_t m, std::size_t d) {
         const Vector a = gaussian_row(rng, d);
         const Vector b = gaussian_row(rng, d);
         VectorList rows;
         for (std::size_t i = 0; i < m; ++i) rows.push_back(i % 2 == 0 ? a : b);
         if (m % 2 == 1) rows.back() = gaussian_row(rng, d);
         return rows;
       }},
      // Rows equal under == that differ in the sign of their zeros.
      {"signed-zeros",
       [](Rng& rng, std::size_t m, std::size_t d) {
         const Vector base = gaussian_row(rng, d);
         VectorList rows;
         for (std::size_t i = 0; i < m; ++i) {
           Vector row = base;
           for (std::size_t k = 0; k < d; k += 2) {
             row[k] = (i + k / 2) % 3 == 0 ? -0.0 : 0.0;
           }
           rows.push_back(row);
         }
         return rows;
       }},
      // The same, but two rows put -5 (or +5) at the zeros, so TH is wider
      // than the zeros there and GH's own sign of zero, which depends on
      // the order its forms are folded in, reaches the midpoint.
      {"signed-zeros-inside-th",
       [](Rng& rng, std::size_t m, std::size_t d) {
         const Vector base = gaussian_row(rng, d);
         VectorList rows;
         for (std::size_t i = 0; i < m; ++i) {
           Vector row = base;
           for (std::size_t k = 0; k < d; k += 2) {
             row[k] = (7 * i + k / 2) % 3 == 0 ? -0.0 : 0.0;
             if (i + 2 >= m) row[k] = k % 4 == 0 ? -5.0 : 5.0;
           }
           rows.push_back(row);
         }
         return rows;
       }},
      {"near-duplicates",
       [](Rng& rng, std::size_t m, std::size_t d) {
         const Vector base = gaussian_row(rng, d);
         VectorList rows;
         for (std::size_t i = 0; i < m; ++i) {
           rows.push_back(add(base, gaussian_row(rng, d, 1e-12)));
         }
         return rows;
       }},
      {"offset",
       [](Rng& rng, std::size_t m, std::size_t d) {
         VectorList rows;
         for (std::size_t i = 0; i < m; ++i) {
           Vector row = gaussian_row(rng, d);
           for (auto& x : row) x += 1e6;
           rows.push_back(row);
         }
         return rows;
       }},
      // Every other column holds one -1, one +1 and zeros of alternating
      // sign, so TH's order statistics on both sides fall in a tie of -0.0
      // and 0.0.
      {"zero-ties-at-th",
       [](Rng& rng, std::size_t m, std::size_t d) {
         VectorList rows;
         for (std::size_t i = 0; i < m; ++i) {
           rows.push_back(gaussian_row(rng, d));
         }
         for (std::size_t k = 0; k < d; k += 2) {
           for (std::size_t i = 0; i < m; ++i) {
             rows[i][k] = (i + k) % 2 == 0 ? 0.0 : -0.0;
           }
           rows[(k / 2) % m][k] = -1.0;
           rows[(k / 2 + 1) % m][k] = 1.0;
         }
         return rows;
       }},
  };
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_same_metrics(const obs::MetricsSnapshot& got,
                         const obs::MetricsSnapshot& want) {
  EXPECT_EQ(got.counters, want.counters);
  ASSERT_EQ(got.histograms.size(), want.histograms.size());
  for (const auto& [name, h] : want.histograms) {
    const auto& g = got.histograms.at(name);
    EXPECT_EQ(g.count, h.count) << name;
    EXPECT_EQ(g.sum, h.sum) << name;
    EXPECT_EQ(g.min, h.min) << name;
    EXPECT_EQ(g.max, h.max) << name;
    EXPECT_EQ(g.buckets, h.buckets) << name;
  }
}

TEST(HyperboxOracle, StreamingRulesMatchEnumerateThenBoundBitwise) {
  struct Shape {
    std::size_t n, t;
  };
  const std::vector<Shape> shapes{{10, 1}, {10, 2}, {7, 2}, {4, 1}, {5, 0}};
  ThreadPool pool(3);
  Rng rng(2031);
  std::size_t cells = 0;
  for (const Shape& shape : shapes) {
    const std::size_t keep = shape.n - shape.t;
    for (std::size_t m = keep; m <= shape.n; ++m) {
      for (const std::size_t d : {1u, 63u, 64u, 65u, 1842u}) {
        for (const Family& family : families()) {
          SCOPED_TRACE(family.name + " n=" + std::to_string(shape.n) +
                       " t=" + std::to_string(shape.t) +
                       " m=" + std::to_string(m) + " d=" + std::to_string(d));
          const GradientBatch batch =
              GradientBatch::from(family.rows(rng, m, d));
          obs::MetricsRegistry oracle_metrics;
          const Vector want_geom = test::oracle_box_geom(
              batch, keep, WeiszfeldMetrics(&oracle_metrics));
          const Vector want_mean = test::oracle_box_mean(batch, keep);
          for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
            AggregationContext ctx;
            ctx.n = shape.n;
            ctx.t = shape.t;
            ctx.pool = p;
            obs::MetricsRegistry metrics;
            ctx.metrics = &metrics;
            AggregationWorkspace workspace(batch);
            EXPECT_TRUE(bitwise_equal(
                BoxGeoMedianRule().aggregate(batch, workspace, ctx),
                want_geom));
            EXPECT_TRUE(bitwise_equal(
                BoxMeanRule().aggregate(batch, workspace, ctx), want_mean));
            expect_same_metrics(metrics.snapshot(), oracle_metrics.snapshot());
            ++cells;
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 11u * 5u * families().size() * 2u);
}

TEST(HyperboxOracle, SubsetMediansMaterializeToTheOracleRows) {
  // compute_sgeo's forms, materialized, are the oracle's aggregate rows.
  Rng rng(8);
  for (const Family& family : families()) {
    SCOPED_TRACE(family.name);
    const GradientBatch batch = GradientBatch::from(family.rows(rng, 9, 65));
    const OrderStatistics table(batch, 3);
    const std::vector<MedianForm> forms =
        subset_geometric_medians(batch, 7, table, nullptr, {});
    const DistanceMatrix distances(batch);
    const GradientBatch want = test::oracle_subset_aggregates(
        batch, 7, [&](const std::vector<std::size_t>& subset) {
          return geometric_median(batch, distances, subset).point;
        });
    ASSERT_EQ(forms.size(), want.rows());
    for (std::size_t c = 0; c < forms.size(); ++c) {
      EXPECT_TRUE(bitwise_equal(materialize(forms[c], batch), want.row_copy(c)))
          << "subset " << c;
    }
  }
}

TEST(HyperboxOracle, SubsetBudgetIsNamedAndChecked) {
  // C(31, 21) is past the budget and C(16, 11) = 4 368 is not.
  EXPECT_NO_THROW(check_subset_budget("BOX-GEOM", 16, 11));
  try {
    check_subset_budget("BOX-GEOM", 31, 21);
    FAIL() << "no exception";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("BOX-GEOM"), std::string::npos) << message;
    EXPECT_NE(message.find("C(31, 21) = 44352165"), std::string::npos)
        << message;
    EXPECT_NE(message.find(std::to_string(kMaxHyperboxSubsets)),
              std::string::npos)
        << message;
  }
  EXPECT_THROW(check_subset_budget("BOX-MEAN", 200, 100),
               std::invalid_argument);
}

}  // namespace
}  // namespace bcl
