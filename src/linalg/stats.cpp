#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace bcl {

double kth_smallest(std::vector<double> values, std::size_t k) {
  if (k >= values.size()) {
    throw std::invalid_argument("kth_smallest: k out of range");
  }
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of empty set");
  const std::size_t n = values.size();
  std::sort(values.begin(), values.end());
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double trimmed_mean(std::vector<double> values, std::size_t trim) {
  if (2 * trim >= values.size()) {
    throw std::invalid_argument("trimmed_mean: trim too large");
  }
  std::sort(values.begin(), values.end());
  double s = 0.0;
  for (std::size_t i = trim; i < values.size() - trim; ++i) s += values[i];
  return s / static_cast<double>(values.size() - 2 * trim);
}

Vector coordinatewise_median(const VectorList& vs) {
  if (vs.empty()) throw std::invalid_argument("median of empty list");
  const std::size_t d = check_same_dimension(vs);
  Vector r(d);
  std::vector<double> column(vs.size());
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t i = 0; i < vs.size(); ++i) column[i] = vs[i][k];
    r[k] = median(column);
  }
  return r;
}

Vector coordinatewise_trimmed_mean(const VectorList& vs, std::size_t trim) {
  if (vs.empty()) throw std::invalid_argument("trimmed mean of empty list");
  const std::size_t d = check_same_dimension(vs);
  Vector r(d);
  std::vector<double> column(vs.size());
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t i = 0; i < vs.size(); ++i) column[i] = vs[i][k];
    r[k] = trimmed_mean(column, trim);
  }
  return r;
}

namespace {

// Shared blocked column pass: transposes tiles of kColumnTile columns into
// a scratch buffer (column c of the batch becomes the contiguous run
// scratch[c * m .. c * m + m)), sorts each run ascending, and hands column
// k's sorted run to `visit(k, sorted, m)`.  The strided batch traversal
// happens once per tile row instead of once per coordinate, so the pass
// streams the batch m * d / tile times less than the naive per-coordinate
// gather.  With a pool the tiles are handed out with parallel_for_dynamic,
// each task owning its scratch; columns are independent and `visit` writes
// only column k's outputs, so the result is the serial one bit for bit.
template <typename Visit>
void for_each_sorted_column(const GradientBatch& batch, ThreadPool* pool,
                            Visit&& visit) {
  constexpr std::size_t kColumnTile = 64;
  const std::size_t m = batch.rows();
  const std::size_t d = batch.dim();
  const auto run_tile = [&](std::size_t tile, std::vector<double>& scratch) {
    const std::size_t k0 = tile * kColumnTile;
    const std::size_t width = std::min(kColumnTile, d - k0);
    for (std::size_t i = 0; i < m; ++i) {
      const double* row = batch.row(i) + k0;
      for (std::size_t c = 0; c < width; ++c) scratch[c * m + i] = row[c];
    }
    for (std::size_t c = 0; c < width; ++c) {
      double* column = scratch.data() + c * m;
      std::sort(column, column + m);
      visit(k0 + c, static_cast<const double*>(column), m);
    }
  };
  const std::size_t tiles = (d + kColumnTile - 1) / kColumnTile;
  if (pool != nullptr && tiles > 1) {
    pool->parallel_for_dynamic(0, tiles, [&](std::size_t tile) {
      std::vector<double> scratch(kColumnTile * m);
      run_tile(tile, scratch);
    });
  } else {
    std::vector<double> scratch(kColumnTile * m);
    for (std::size_t tile = 0; tile < tiles; ++tile) run_tile(tile, scratch);
  }
}

// One reduction per sorted column, serially.
template <typename Reduce>
Vector blocked_column_pass(const GradientBatch& batch, Reduce&& reduce) {
  Vector r(batch.dim());
  for_each_sorted_column(
      batch, nullptr, [&](std::size_t k, const double* sorted, std::size_t m) {
        r[k] = reduce(sorted, m);
      });
  return r;
}

}  // namespace

Vector coordinatewise_median(const GradientBatch& batch) {
  if (batch.empty()) throw std::invalid_argument("median of empty batch");
  // Same arithmetic as median() on a sorted copy, so outputs are bitwise
  // identical to the VectorList form.
  return blocked_column_pass(batch, [](const double* sorted, std::size_t m) {
    if (m % 2 == 1) return sorted[m / 2];
    return 0.5 * (sorted[m / 2 - 1] + sorted[m / 2]);
  });
}

Vector coordinatewise_trimmed_mean(const GradientBatch& batch,
                                   std::size_t trim) {
  if (batch.empty()) {
    throw std::invalid_argument("trimmed mean of empty batch");
  }
  if (2 * trim >= batch.rows()) {
    throw std::invalid_argument("trimmed_mean: trim too large");
  }
  // Sum ascending over the kept slice, exactly as trimmed_mean() does.
  return blocked_column_pass(
      batch, [trim](const double* sorted, std::size_t m) {
        double s = 0.0;
        for (std::size_t i = trim; i < m - trim; ++i) s += sorted[i];
        return s / static_cast<double>(m - 2 * trim);
      });
}

Hyperbox trimmed_hyperbox(const GradientBatch& batch, std::size_t keep,
                          ThreadPool* pool) {
  const std::size_t m = batch.rows();
  if (keep == 0 || keep > m) {
    throw std::invalid_argument("trimmed_hyperbox: keep must be in [1, m]");
  }
  const std::size_t drop = m - keep;
  if (drop >= keep) {
    // Definition 2.5 requires the lower index (drop+1) to not exceed the
    // upper index (keep); otherwise the interval would be empty.
    if (drop + 1 > keep) {
      throw std::invalid_argument(
          "trimmed_hyperbox: too few vectors kept relative to trimming");
    }
  }
  Vector lo(batch.dim());
  Vector hi(batch.dim());
  for_each_sorted_column(
      batch, pool, [&](std::size_t k, const double* sorted, std::size_t) {
        lo[k] = sorted[drop];      // (drop+1)-th smallest, 0-indexed
        hi[k] = sorted[keep - 1];  // (m-drop)-th smallest = keep-th
      });
  return Hyperbox(std::move(lo), std::move(hi));
}

MeanStd mean_std(const std::vector<double>& values) {
  MeanStd r;
  if (values.empty()) return r;
  double s = 0.0;
  for (double v : values) s += v;
  r.mean = s / static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - r.mean) * (v - r.mean);
  r.std = std::sqrt(var / static_cast<double>(values.size()));
  return r;
}

}  // namespace bcl
