#include "aggregation/hyperbox_rules.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/subsets.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

namespace {

// Coordinates per fold task.  A tile's lo / hi slices, the form scratch and
// the s row slices a weights form reads (9 rows at the paper's n - t) stay
// in L1 / L2 at 256 doubles, and d = 1842 still splits into 8 tasks.
constexpr std::size_t kFoldTile = 256;

// fn(i) for i in [0, n): on the pool's dynamic schedule when one is set.
template <typename Fn>
void run_indexed(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for_dynamic(0, n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

// The rows of {0, ..., m-1} that the ascending `subset` leaves out.
std::vector<std::size_t> complement(const std::vector<std::size_t>& subset,
                                    std::size_t m) {
  std::vector<std::size_t> out;
  std::size_t next = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (next < subset.size() && subset[next] == i) {
      ++next;
    } else {
      out.push_back(i);
    }
  }
  return out;
}

// GH: the bounding box of the forms' points, Hyperbox::bounding's min / max
// in subset order, one coordinate tile at a time.
Hyperbox bounding_box(const GradientBatch& batch,
                      const std::vector<MedianForm>& forms, ThreadPool* pool) {
  const std::size_t d = batch.dim();
  Vector lo(d);
  Vector hi(d);
  const auto run_tile = [&](std::size_t tile) {
    const std::size_t k0 = tile * kFoldTile;
    const std::size_t k1 = std::min(d, k0 + kFoldTile);
    double scratch[kFoldTile];
    const double* first = median_slice(forms[0], batch, k0, k1, scratch);
    std::copy(first, first + (k1 - k0), lo.data() + k0);
    std::copy(first, first + (k1 - k0), hi.data() + k0);
    for (std::size_t c = 1; c < forms.size(); ++c) {
      const double* p = median_slice(forms[c], batch, k0, k1, scratch);
      for (std::size_t k = k0; k < k1; ++k) {
        lo[k] = std::min(lo[k], p[k - k0]);
        hi[k] = std::max(hi[k], p[k - k0]);
      }
    }
  };
  run_indexed(pool, (d + kFoldTile - 1) / kFoldTile, run_tile);
  return Hyperbox(std::move(lo), std::move(hi));
}

}  // namespace

void check_subset_budget(const std::string& who, std::size_t m,
                         std::size_t keep) {
  std::string count;
  try {
    const std::uint64_t subsets = binomial(m, keep);
    if (subsets <= kMaxHyperboxSubsets) return;
    count = std::to_string(subsets);
  } catch (const std::overflow_error&) {
    count = "more than 2^64";
  }
  throw std::invalid_argument(
      who + ": C(" + std::to_string(m) + ", " + std::to_string(keep) +
      ") = " + count + " subsets exceeds the budget of " +
      std::to_string(kMaxHyperboxSubsets));
}

std::vector<MedianForm> subset_geometric_medians(
    const GradientBatch& batch, std::size_t keep, const OrderStatistics& table,
    ThreadPool* pool, const WeiszfeldOptions& options) {
  const RowClasses classes(batch);
  std::vector<MedianForm> forms;
  // Subsets no closed form resolves: their rows wait in a weights form
  // until the loop replaces it.
  std::vector<std::size_t> open;
  for_each_combination(
      batch.rows(), keep, [&](const std::vector<std::size_t>& subset) {
        if (auto form = closed_form_median(classes, subset)) {
          forms.push_back(std::move(*form));
        } else {
          open.push_back(forms.size());
          forms.push_back(MedianForm::mean(subset));
        }
      });
  std::vector<std::vector<std::size_t>> left_out;
  for (const std::size_t c : open) {
    left_out.push_back(complement(forms[c].rows, batch.rows()));
  }
  const std::vector<double> spreads = table.spreads_without(left_out, pool);
  std::vector<std::size_t> loops;
  for (std::size_t i = 0; i < open.size(); ++i) {
    MedianForm& form = forms[open[i]];
    if (spreads[i] == 0.0) {
      // Rows equal up to an underflowing difference.
      form = MedianForm::row(form.rows[0]);
    } else {
      loops.push_back(i);
    }
  }
  if (!loops.empty()) {
    const DistanceMatrix distances(batch, pool);
    run_indexed(pool, loops.size(), [&](std::size_t l) {
      const std::size_t i = loops[l];
      MedianForm& form = forms[open[i]];
      form = weiszfeld_median(batch, distances, form.rows, spreads[i],
                              options);
    });
  }
  return forms;
}

std::vector<MedianForm> subset_means(const GradientBatch& batch,
                                     std::size_t keep) {
  std::vector<MedianForm> forms;
  for_each_combination(batch.rows(), keep,
                       [&](const std::vector<std::size_t>& subset) {
                         forms.push_back(MedianForm::mean(subset));
                       });
  return forms;
}

Vector hyperbox_aggregate(const Hyperbox& trusted, const GradientBatch& batch,
                          const std::vector<MedianForm>& forms,
                          ThreadPool* pool) {
  // GH_i (or its mean analogue): bounding box of subset aggregates
  // (Definition 3.5).
  const Hyperbox aggregate_box = bounding_box(batch, forms, pool);

  auto intersection = Hyperbox::intersect(trusted, aggregate_box);
  if (!intersection) {
    // Theorem 4.4 proves TH_i ∩ GH_i is non-empty; an empty result can only
    // come from Weiszfeld's finite tolerance placing a subset median
    // epsilon-outside the trusted interval.  Retry with a tolerance
    // proportional to the data scale before declaring a logic error.
    const double tol =
        1e-9 * (1.0 + std::max(trusted.max_edge(), aggregate_box.max_edge()));
    intersection =
        Hyperbox::intersect(trusted.inflated(tol), aggregate_box.inflated(tol));
    if (!intersection) {
      throw std::logic_error(
          "hyperbox_aggregate: TH ∩ GH empty — violates Theorem 4.4");
    }
  }
  return intersection->midpoint();
}

namespace {

// The workspace's pool (when attached) takes precedence over ctx.pool.
ThreadPool* rule_pool(const AggregationContext& ctx,
                      AggregationWorkspace& workspace) {
  return workspace.pool() != nullptr ? workspace.pool() : ctx.pool;
}

}  // namespace

Vector BoxMeanRule::do_aggregate(const GradientBatch& batch,
                                 AggregationWorkspace& workspace,
                                 const AggregationContext& ctx) const {
  const std::size_t keep = ctx.keep();
  check_subset_budget(name(), batch.rows(), keep);
  ThreadPool* pool = rule_pool(ctx, workspace);
  // TH_i: coordinate-wise trim of |M_i| - (n - t) values per side
  // (Definition 2.5).
  return hyperbox_aggregate(trimmed_hyperbox(batch, keep, pool), batch,
                            subset_means(batch, keep), pool);
}

Vector BoxGeoMedianRule::do_aggregate(const GradientBatch& batch,
                                      AggregationWorkspace& workspace,
                                      const AggregationContext& ctx) const {
  const std::size_t keep = ctx.keep();
  check_subset_budget(name(), batch.rows(), keep);
  ThreadPool* pool = rule_pool(ctx, workspace);
  const OrderStatistics table(batch, batch.rows() - keep + 1, pool);
  const Hyperbox trusted = table.box();
  const std::vector<MedianForm> forms =
      subset_geometric_medians(batch, keep, table, pool, options_);
  const WeiszfeldMetrics metrics(ctx.metrics);
  for (const MedianForm& form : forms) metrics.record(form);
  return hyperbox_aggregate(trusted, batch, forms, pool);
}

}  // namespace bcl
