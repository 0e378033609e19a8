#pragma once
// Differential oracle for the hyperbox rules: the enumerate-then-bound
// path.  TH sorts every column; every (n - t)-subset's aggregate is
// materialized as one row of a C(m, n - t) x d batch (the subset's
// geometric median through geometric_median(batch, distances, indices) on
// one matrix over the batch, or its mean_of_rows); GH is
// Hyperbox::bounding of that batch; then intersect, the inflated retry and
// the midpoint.  Nothing in src/ calls it; tests compare BOX-GEOM and
// BOX-MEAN, which stream both boxes over coordinate tiles, against it bit
// for bit.

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "geometry/subsets.hpp"
#include "geometry/weiszfeld.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/hyperbox.hpp"

namespace bcl::test {

// TH by sorting each column: [sorted[m - keep], sorted[keep - 1]].
inline Hyperbox oracle_trimmed_hyperbox(const GradientBatch& batch,
                                        std::size_t keep) {
  const std::size_t m = batch.rows();
  const std::size_t drop = m - keep;
  if (keep == 0 || keep > m || drop >= keep) {
    throw std::invalid_argument("oracle_trimmed_hyperbox: bad keep");
  }
  Vector lo(batch.dim());
  Vector hi(batch.dim());
  std::vector<double> column(m);
  for (std::size_t k = 0; k < batch.dim(); ++k) {
    for (std::size_t i = 0; i < m; ++i) column[i] = batch.row(i)[k];
    std::sort(column.begin(), column.end());
    lo[k] = column[drop];
    hi[k] = column[keep - 1];
  }
  return Hyperbox(std::move(lo), std::move(hi));
}

// Row c is the aggregate of the c-th keep-subset in lexicographic order.
inline GradientBatch oracle_subset_aggregates(
    const GradientBatch& batch, std::size_t keep,
    const std::function<Vector(const std::vector<std::size_t>&)>& aggregate) {
  const auto combos = all_combinations(batch.rows(), keep);
  GradientBatch points(combos.size(), batch.dim());
  for (std::size_t c = 0; c < combos.size(); ++c) {
    points.set_row(c, aggregate(combos[c]));
  }
  return points;
}

inline Vector oracle_hyperbox(
    const GradientBatch& batch, std::size_t keep,
    const std::function<Vector(const std::vector<std::size_t>&)>& aggregate) {
  const Hyperbox trusted = oracle_trimmed_hyperbox(batch, keep);
  const Hyperbox aggregate_box =
      Hyperbox::bounding(oracle_subset_aggregates(batch, keep, aggregate));
  auto intersection = Hyperbox::intersect(trusted, aggregate_box);
  if (!intersection) {
    const double tol =
        1e-9 * (1.0 + std::max(trusted.max_edge(), aggregate_box.max_edge()));
    intersection =
        Hyperbox::intersect(trusted.inflated(tol), aggregate_box.inflated(tol));
    if (!intersection) {
      throw std::logic_error("oracle_hyperbox: TH ∩ GH empty");
    }
  }
  return intersection->midpoint();
}

// BOX-GEOM, recording every subset median in `metrics`.
inline Vector oracle_box_geom(const GradientBatch& batch, std::size_t keep,
                              const WeiszfeldMetrics& metrics,
                              const WeiszfeldOptions& options = {}) {
  const DistanceMatrix distances(batch);
  return oracle_hyperbox(
      batch, keep, [&](const std::vector<std::size_t>& subset) {
        WeiszfeldResult median =
            geometric_median(batch, distances, subset, options);
        metrics.record(median);
        return std::move(median.point);
      });
}

inline Vector oracle_box_mean(const GradientBatch& batch, std::size_t keep) {
  return oracle_hyperbox(batch, keep,
                         [&](const std::vector<std::size_t>& subset) {
                           return mean_of_rows(batch, subset);
                         });
}

}  // namespace bcl::test
