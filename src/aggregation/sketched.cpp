#include "aggregation/sketched.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "aggregation/krum.hpp"
#include "geometry/min_diameter.hpp"
#include "linalg/sketch.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace bcl {
namespace {

// C_i of Equation 3: the n - t - 1 closest neighbours, clamped to m - 1.
std::size_t closest_count(std::size_t m, const AggregationContext& ctx) {
  return std::min(m - 1, ctx.keep() > 0 ? ctx.keep() - 1 : 0);
}

// Whether the sketch path applies at all: a k-dimensional projection of a
// <= k dimensional input saves nothing, and degenerate inboxes (m < 3)
// have no selection to approximate.
bool sketchable(const GradientBatch& batch, const SketchOptions& options) {
  return !options.force_fallback && batch.dim() > options.k &&
         batch.rows() >= 3;
}

// Indices 0..m-1 sorted ascending by score (stable, like multikrum_order).
std::vector<std::size_t> score_order(const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  return order;
}

// The sketch certifies the cut `below < above` when it holds for every
// pair of exact scores consistent with the sketched values.  Each sketched
// score lies within (1 +- eps) of its exact counterpart, so the worst
// case pits below/(1 - eps) against above/(1 + eps); rearranged, the cut
// is certified iff
//     above - below > eps * (above + below).
// (The previous form, gap > factor * eps * max(below, above), could never
// hold for non-negative scores once factor * eps >= 1 — i.e. for every
// m >= 8 at the default k — so the screen silently fell back on every
// input and the sketch only ever added cost.)  margin_factor scales eps
// for extra conservatism; an effective eps >= 1 still can never certify,
// which is the correct degenerate behaviour when k is too small for m.
bool margin_resolved(double below, double above, double eps, double factor) {
  if (!std::isfinite(below) || !std::isfinite(above)) return false;
  const double err = factor * eps;
  return (above - below) > err * (above + below);
}

// Publishes one screen outcome to the scenario registry ("sketch.certified"
// / "sketch.fallbacks") and, on fallback, the reason at Debug level so tests
// and post-mortems can assert why the exact path ran.
void publish_certified(const AggregationContext& ctx) {
  if (ctx.metrics != nullptr) ctx.metrics->counter("sketch.certified").add();
}

void publish_fallback(const AggregationContext& ctx, const char* rule,
                      const char* reason) {
  if (ctx.metrics != nullptr) ctx.metrics->counter("sketch.fallbacks").add();
  log_debug() << rule << ": sketch fallback (" << reason << ")";
}

}  // namespace

Vector SketchedKrumRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& workspace,
    const AggregationContext& ctx) const {
  const std::size_t m = batch.rows();
  const std::size_t closest = closest_count(m, ctx);
  if (closest == 0) return batch.row_copy(0);

  const auto exact = [&]() {
    const auto scores =
        krum_scores(workspace.distances(), closest, KrumScore::Euclidean);
    return batch.row_copy(static_cast<std::size_t>(
        std::min_element(scores.begin(), scores.end()) - scores.begin()));
  };
  if (!sketchable(batch, options_)) {
    publish_fallback(ctx, "SKETCH-KRUM", "not sketchable");
    return exact();
  }

  const RademacherSketch sketch(batch.dim(), options_.k, options_.seed);
  const DistanceMatrix approx = sketched_distances(batch, sketch, ctx.pool);
  const auto scores = krum_scores(approx, closest, KrumScore::Euclidean);
  const auto order = score_order(scores);
  if (!margin_resolved(scores[order[0]], scores[order[1]],
                       sketch.relative_error(m), options_.margin_factor)) {
    publish_fallback(ctx, "SKETCH-KRUM", "uncertified margin");
    return exact();
  }
  publish_certified(ctx);
  return batch.row_copy(order[0]);
}

Vector SketchedMultiKrumRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& workspace,
    const AggregationContext& ctx) const {
  if (q_ == 0) {
    throw std::invalid_argument("SketchedMultiKrum: q must be positive");
  }
  const std::size_t m = batch.rows();
  const std::size_t closest = closest_count(m, ctx);
  if (closest == 0) return batch.row_copy(0);
  const std::size_t take = std::min(q_, m);

  const auto select = [&](const std::vector<double>& scores) {
    auto order = score_order(scores);
    order.resize(take);
    return mean_of_rows(batch, order);
  };
  const auto exact = [&]() {
    return select(
        krum_scores(workspace.distances(), closest, KrumScore::Euclidean));
  };
  if (!sketchable(batch, options_)) {
    publish_fallback(ctx, "SKETCH-MULTIKRUM", "not sketchable");
    return exact();
  }

  const RademacherSketch sketch(batch.dim(), options_.k, options_.seed);
  const DistanceMatrix approx = sketched_distances(batch, sketch, ctx.pool);
  const auto scores = krum_scores(approx, closest, KrumScore::Euclidean);
  const auto order = score_order(scores);
  // The cut sits between the q-th and (q+1)-th best; a full selection
  // (take == m) has no cut to certify.
  if (take < m &&
      !margin_resolved(scores[order[take - 1]], scores[order[take]],
                       sketch.relative_error(m), options_.margin_factor)) {
    publish_fallback(ctx, "SKETCH-MULTIKRUM", "uncertified margin");
    return exact();
  }
  publish_certified(ctx);
  auto selection = order;
  selection.resize(take);
  return mean_of_rows(batch, selection);
}

Vector SketchedMdMeanRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& workspace,
    const AggregationContext& ctx) const {
  const std::size_t keep = ctx.keep();

  const auto exact = [&]() {
    const auto md = min_diameter_subset(workspace.distances(), keep);
    return mean_of_rows(batch, md.indices);
  };
  if (!sketchable(batch, options_) || keep >= batch.rows()) {
    publish_fallback(ctx, "SKETCH-MD-MEAN", "not sketchable");
    return exact();
  }

  const RademacherSketch sketch(batch.dim(), options_.k, options_.seed);
  const DistanceMatrix approx = sketched_distances(batch, sketch, ctx.pool);
  // Every subset's exact diameter lies within (1 +- eps) of its sketched
  // diameter, so a competing subset could beat the sketched optimum
  // whenever its sketched diameter is below opt * (1 + eps) / (1 - eps).
  // The argmin is certified only when that band holds the optimum alone.
  const double eps =
      options_.margin_factor * sketch.relative_error(batch.rows());
  if (eps >= 1.0) {  // the band is unbounded: nothing certifies
    publish_fallback(ctx, "SKETCH-MD-MEAN", "margin band unbounded");
    return exact();
  }
  const auto candidates =
      min_diameter_subsets(approx, keep, 2.0 * eps / (1.0 - eps));
  if (candidates.size() != 1) {
    publish_fallback(ctx, "SKETCH-MD-MEAN", "ambiguous subset");
    return exact();
  }
  publish_certified(ctx);
  return mean_of_rows(batch, candidates.front().indices);
}

}  // namespace bcl
