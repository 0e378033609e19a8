#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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
// gather.
template <typename Visit>
void for_each_sorted_column(const GradientBatch& batch, Visit&& visit) {
  constexpr std::size_t kColumnTile = 64;
  const std::size_t m = batch.rows();
  const std::size_t d = batch.dim();
  std::vector<double> scratch(kColumnTile * m);
  for (std::size_t k0 = 0; k0 < d; k0 += kColumnTile) {
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
  }
}

// One reduction per sorted column, serially.
template <typename Reduce>
Vector blocked_column_pass(const GradientBatch& batch, Reduce&& reduce) {
  Vector r(batch.dim());
  for_each_sorted_column(
      batch, [&](std::size_t k, const double* sorted, std::size_t m) {
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

namespace {

// Coordinates per selection task.  A tile's 2 * depth kept rows of
// kSelectionTile doubles plus the row slice being inserted stay in L1 for
// the paper's depth of 2 (5 KB), and a task still covers enough work to
// amortize the pool's hand-out.
constexpr std::size_t kSelectionTile = 128;

// One insertion step of a row's values x into kept value j >= 1 of a side,
// for `width` coordinates.  For the low side the stable insertion of v
// leaves value j unchanged before the insertion point, v at it and the old
// value j-1 after it, which is: old j-1 if v < old j-1, else
// std::min(old j, v) (which keeps old j on a tie).  The high side mirrors
// it with >= and std::max(v, old j) (which takes v on a tie).  Each new
// value reads only old values j-1 and j, so walking j downwards updates
// the table in place.
void insert_low(const double* __restrict x, const double* __restrict prev,
                double* __restrict cur, std::size_t width) {
  for (std::size_t c = 0; c < width; ++c) {
    const double v = x[c];
    const double p = prev[c];
    const double kept = std::min(cur[c], v);
    cur[c] = v < p ? p : kept;
  }
}

void insert_high(const double* __restrict x, const double* __restrict prev,
                 double* __restrict cur, std::size_t width) {
  for (std::size_t c = 0; c < width; ++c) {
    const double v = x[c];
    const double p = prev[c];
    const double kept = std::max(v, cur[c]);
    cur[c] = v >= p ? p : kept;
  }
}

// Value 0 of both sides: the running minimum (first of equal values kept)
// and maximum (last of equal values taken, as the high side's order asks).
void insert_extremes(const double* __restrict x, double* __restrict lo,
                     double* __restrict hi, std::size_t width) {
  for (std::size_t c = 0; c < width; ++c) {
    lo[c] = std::min(lo[c], x[c]);
    hi[c] = std::max(x[c], hi[c]);
  }
}

}  // namespace

OrderStatistics::OrderStatistics(const GradientBatch& batch, std::size_t depth,
                                 ThreadPool* pool)
    : batch_(&batch), d_(batch.dim()), depth_(depth) {
  const std::size_t m = batch.rows();
  if (depth == 0 || depth > m) {
    throw std::invalid_argument("OrderStatistics: depth must be in [1, m]");
  }
  // Left uninitialized here: each tile task fills its own slices.
  low_.reset(new double[depth * d_]);
  high_.reset(new double[depth * d_]);
  const auto run_tile = [&](std::size_t tile) {
    const std::size_t k0 = tile * kSelectionTile;
    const std::size_t width = std::min(kSelectionTile, d_ - k0);
    for (std::size_t j = 0; j < depth; ++j) {
      std::fill_n(low_.get() + j * d_ + k0, width,
                  std::numeric_limits<double>::infinity());
      std::fill_n(high_.get() + j * d_ + k0, width,
                  -std::numeric_limits<double>::infinity());
    }
    for (std::size_t i = 0; i < m; ++i) {
      const double* x = batch.row(i) + k0;
      for (std::size_t j = depth - 1; j >= 1; --j) {
        insert_low(x, low_.get() + (j - 1) * d_ + k0,
                   low_.get() + j * d_ + k0, width);
        insert_high(x, high_.get() + (j - 1) * d_ + k0,
                    high_.get() + j * d_ + k0, width);
      }
      insert_extremes(x, low_.get() + k0, high_.get() + k0, width);
    }
  };
  const std::size_t tiles = (d_ + kSelectionTile - 1) / kSelectionTile;
  if (pool != nullptr && tiles > 1) {
    pool->parallel_for_dynamic(0, tiles, run_tile);
  } else {
    for (std::size_t tile = 0; tile < tiles; ++tile) run_tile(tile);
  }
}

Hyperbox OrderStatistics::box() const {
  if (2 * depth_ > batch_->rows() + 1) {
    // Definition 2.5 requires the lower index (depth) to not exceed the
    // upper index (m - depth + 1); otherwise the interval would be empty.
    throw std::invalid_argument(
        "trimmed_hyperbox: too few vectors kept relative to trimming");
  }
  const double* lo = low_.get() + (depth_ - 1) * d_;
  const double* hi = high_.get() + (depth_ - 1) * d_;
  return Hyperbox(Vector(lo, lo + d_), Vector(hi, hi + d_));
}

void OrderStatistics::squared_edges(const std::vector<std::size_t>& excluded,
                                    std::size_t k0, std::size_t width,
                                    double* out) const {
  const double* low0 = low_.get() + k0;
  const double* high0 = high_.get() + k0;
  if (excluded.empty()) {
    for (std::size_t c = 0; c < width; ++c) {
      const double e = high0[c] - low0[c];
      out[c] = e * e;
    }
    return;
  }
  if (excluded.size() == 1) {
    // One row left out (t = 1 with all n received): the second kept value
    // where that row holds the extreme.
    const double* x = batch_->row(excluded[0]) + k0;
    const double* low1 = low0 + d_;
    const double* high1 = high0 + d_;
    for (std::size_t c = 0; c < width; ++c) {
      const double lo = x[c] <= low0[c] ? low1[c] : low0[c];
      const double hi = x[c] >= high0[c] ? high1[c] : high0[c];
      const double e = hi - lo;
      out[c] = e * e;
    }
    return;
  }
  // The subset's lowest value in each coordinate is kept value j for the
  // least j with #{excluded x : x <= kept value j} <= j, which is the
  // minimum over the qualifying j (the high side mirrors it).  Every loop
  // runs across coordinates and vectorizes.
  double lo[kSelectionTile];
  double hi[kSelectionTile];
  double below[kSelectionTile];
  double above[kSelectionTile];
  std::fill_n(lo, width, std::numeric_limits<double>::infinity());
  std::fill_n(hi, width, -std::numeric_limits<double>::infinity());
  for (std::size_t j = 0; j <= excluded.size(); ++j) {
    const double* low_j = low_.get() + j * d_ + k0;
    const double* high_j = high_.get() + j * d_ + k0;
    std::fill_n(below, width, 0.0);
    std::fill_n(above, width, 0.0);
    for (const std::size_t i : excluded) {
      const double* x = batch_->row(i) + k0;
      for (std::size_t c = 0; c < width; ++c) {
        below[c] += x[c] <= low_j[c] ? 1.0 : 0.0;
        above[c] += x[c] >= high_j[c] ? 1.0 : 0.0;
      }
    }
    const double rank = static_cast<double>(j);
    for (std::size_t c = 0; c < width; ++c) {
      const double l = low_j[c];
      const double h = high_j[c];
      const double least = l < lo[c] ? l : lo[c];
      const double most = h > hi[c] ? h : hi[c];
      lo[c] = below[c] <= rank ? least : lo[c];
      hi[c] = above[c] <= rank ? most : hi[c];
    }
  }
  for (std::size_t c = 0; c < width; ++c) {
    const double e = hi[c] - lo[c];
    out[c] = e * e;
  }
}

std::vector<double> OrderStatistics::spreads_without(
    const std::vector<std::vector<std::size_t>>& excluded,
    ThreadPool* pool) const {
  for (const auto& rows : excluded) {
    if (rows.size() >= depth_) {
      throw std::invalid_argument(
          "OrderStatistics::spreads_without: too many rows excluded");
    }
  }
  // Each task owns kSpreadGroup subsets and walks every tile in order.  Its
  // subsets' sums are independent chains, interleaved coordinate by
  // coordinate so they overlap instead of each waiting on its own adds:
  // eight chains cover an add's latency, and the paper's C(10, 9) = 10
  // subsets still split into two tasks.
  constexpr std::size_t kSpreadGroup = 8;
  std::vector<double> sums(excluded.size(), 0.0);
  const auto run_group = [&](std::size_t group) {
    const std::size_t first = group * kSpreadGroup;
    const std::size_t count = std::min(kSpreadGroup, excluded.size() - first);
    double edges[kSpreadGroup][kSelectionTile];
    double s[kSpreadGroup] = {};
    for (std::size_t k0 = 0; k0 < d_; k0 += kSelectionTile) {
      const std::size_t width = std::min(kSelectionTile, d_ - k0);
      for (std::size_t g = 0; g < count; ++g) {
        squared_edges(excluded[first + g], k0, width, edges[g]);
      }
      for (std::size_t c = 0; c < width; ++c) {
        for (std::size_t g = 0; g < count; ++g) s[g] += edges[g][c];
      }
    }
    for (std::size_t g = 0; g < count; ++g) sums[first + g] = std::sqrt(s[g]);
  };
  const std::size_t groups =
      (excluded.size() + kSpreadGroup - 1) / kSpreadGroup;
  if (pool != nullptr && groups > 1) {
    pool->parallel_for_dynamic(0, groups, run_group);
  } else {
    for (std::size_t group = 0; group < groups; ++group) run_group(group);
  }
  return sums;
}

Hyperbox trimmed_hyperbox(const GradientBatch& batch, std::size_t keep,
                          ThreadPool* pool) {
  const std::size_t m = batch.rows();
  if (keep == 0 || keep > m) {
    throw std::invalid_argument("trimmed_hyperbox: keep must be in [1, m]");
  }
  return OrderStatistics(batch, m - keep + 1, pool).box();
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
