// Microbenchmarks: throughput of every aggregation rule as a function of
// input dimension (the engineering table behind rule selection; the
// geometric-median-based rules pay for Weiszfeld over C(n, n-t) subsets).
//
// Besides the google-benchmark suites, main() emits
// BENCH_micro_aggregation.json (see bench_json.hpp): the Gram-trick
// distance build, the blocked coordinate-wise reductions, and the
// batch-native rule path, each against its pre-optimization reference
// implementation measured in the same process.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "bench_json.hpp"
#include "core/bcl.hpp"

namespace {

using namespace bcl;

VectorList make_inputs(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  VectorList inputs;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(d);
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    inputs.push_back(v);
  }
  // Two adversarial outliers in the last slots.
  inputs[n - 1] = constant(d, 25.0);
  inputs[n - 2] = constant(d, -25.0);
  return inputs;
}

void run_rule(benchmark::State& state, const std::string& rule_name) {
  const std::size_t n = 10;
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const VectorList inputs = make_inputs(n, d, 7);
  const auto rule = make_rule(rule_name);
  AggregationContext ctx;
  ctx.n = n;
  ctx.t = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rule->aggregate(inputs, ctx));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(d));
}

void BM_Mean(benchmark::State& s) { run_rule(s, "MEAN"); }
void BM_GeoMedian(benchmark::State& s) { run_rule(s, "GEOMED"); }
void BM_Medoid(benchmark::State& s) { run_rule(s, "MEDOID"); }
void BM_CwMedian(benchmark::State& s) { run_rule(s, "CW-MEDIAN"); }
void BM_TrimmedMean(benchmark::State& s) { run_rule(s, "TRIM-MEAN"); }
void BM_Krum(benchmark::State& s) { run_rule(s, "KRUM"); }
void BM_MultiKrum(benchmark::State& s) { run_rule(s, "MULTIKRUM-3"); }
void BM_MdMean(benchmark::State& s) { run_rule(s, "MD-MEAN"); }
void BM_MdGeom(benchmark::State& s) { run_rule(s, "MD-GEOM"); }
void BM_BoxMean(benchmark::State& s) { run_rule(s, "BOX-MEAN"); }
void BM_BoxGeom(benchmark::State& s) { run_rule(s, "BOX-GEOM"); }

constexpr int kLo = 8;
constexpr int kHi = 4096;

BENCHMARK(BM_Mean)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_GeoMedian)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_Medoid)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_CwMedian)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_TrimmedMean)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_Krum)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_MultiKrum)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_MdMean)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_MdGeom)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_BoxMean)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_BoxGeom)->RangeMultiplier(8)->Range(kLo, kHi);

// --- shared distance-matrix workspace ---
//
// A comparison suite (the figure harnesses, or one server round scoring
// several candidate rules) runs many distance-based rules over the same
// inbox.  The VectorList convenience packs a batch and builds a fresh
// workspace, and so the O(m^2 * d) pairwise matrix, inside every call; a
// shared workspace builds it once and every rule runs off it.

const std::vector<std::string>& comparison_suite() {
  // Krum + MDA + medoid: the distance-based trio of the ISSUE's acceptance
  // criterion.
  static const std::vector<std::string> kSuite{"KRUM", "MD-MEAN", "MEDOID"};
  return kSuite;
}

void BM_MultiRuleLegacy(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const VectorList inputs = make_inputs(10, d, 7);
  AggregationContext ctx;
  ctx.n = 10;
  ctx.t = 2;
  std::vector<AggregationRulePtr> rules;
  for (const auto& name : comparison_suite()) rules.push_back(make_rule(name));
  for (auto _ : state) {
    for (const auto& rule : rules) {
      benchmark::DoNotOptimize(rule->aggregate(inputs, ctx));
    }
  }
}
BENCHMARK(BM_MultiRuleLegacy)->RangeMultiplier(8)->Range(kLo, kHi);

void BM_MultiRuleSharedWorkspace(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const GradientBatch batch = GradientBatch::from(make_inputs(10, d, 7));
  AggregationContext ctx;
  ctx.n = 10;
  ctx.t = 2;
  std::vector<AggregationRulePtr> rules;
  for (const auto& name : comparison_suite()) rules.push_back(make_rule(name));
  for (auto _ : state) {
    AggregationWorkspace workspace(batch);
    for (const auto& rule : rules) {
      benchmark::DoNotOptimize(rule->aggregate(batch, workspace, ctx));
    }
  }
}
BENCHMARK(BM_MultiRuleSharedWorkspace)->RangeMultiplier(8)->Range(kLo, kHi);

// Same comparison with the speedup reported directly: per iteration the
// suite runs once through the VectorList convenience (each rule recomputes
// the distances) and once through a shared workspace; the "speedup"
// counter is per-rule time / shared time.
void BM_SharedWorkspaceSpeedup(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const VectorList inputs = make_inputs(10, d, 7);
  const GradientBatch batch = GradientBatch::from(inputs);
  AggregationContext ctx;
  ctx.n = 10;
  ctx.t = 2;
  std::vector<AggregationRulePtr> rules;
  for (const auto& name : comparison_suite()) rules.push_back(make_rule(name));
  double legacy_ns = 0.0;
  double shared_ns = 0.0;
  using clock = std::chrono::steady_clock;
  for (auto _ : state) {
    const auto t0 = clock::now();
    for (const auto& rule : rules) {
      benchmark::DoNotOptimize(rule->aggregate(inputs, ctx));
    }
    const auto t1 = clock::now();
    AggregationWorkspace workspace(batch);
    for (const auto& rule : rules) {
      benchmark::DoNotOptimize(rule->aggregate(batch, workspace, ctx));
    }
    const auto t2 = clock::now();
    legacy_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    shared_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
  }
  state.counters["speedup"] = shared_ns > 0.0 ? legacy_ns / shared_ns : 0.0;
}
BENCHMARK(BM_SharedWorkspaceSpeedup)->RangeMultiplier(8)->Range(kLo, kHi);

// The distance-matrix build itself: serial vs ThreadPool-parallel rows.
void BM_DistanceMatrixSerial(benchmark::State& state) {
  const VectorList inputs = make_inputs(32, static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceMatrix(inputs));
  }
}
BENCHMARK(BM_DistanceMatrixSerial)->RangeMultiplier(8)->Range(64, kHi);

void BM_DistanceMatrixPool(benchmark::State& state) {
  const VectorList inputs = make_inputs(32, static_cast<std::size_t>(state.range(0)), 7);
  ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceMatrix(inputs, &pool));
  }
}
BENCHMARK(BM_DistanceMatrixPool)->RangeMultiplier(8)->Range(64, kHi);

// Parallel subset evaluation inside BOX-GEOM: pool vs serial.
void BM_BoxGeomParallel(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const VectorList inputs = make_inputs(10, d, 7);
  ThreadPool pool;
  AggregationContext ctx;
  ctx.n = 10;
  ctx.t = 2;
  ctx.pool = &pool;
  BoxGeoMedianRule rule;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rule.aggregate(inputs, ctx));
  }
}
BENCHMARK(BM_BoxGeomParallel)->RangeMultiplier(8)->Range(64, kHi);

// The Gram-trick batch build vs the PR 1 per-pair build.
void BM_DistanceMatrixBatchGram(benchmark::State& state) {
  const GradientBatch batch = GradientBatch::from(
      make_inputs(32, static_cast<std::size_t>(state.range(0)), 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceMatrix(batch));
  }
}
BENCHMARK(BM_DistanceMatrixBatchGram)->RangeMultiplier(8)->Range(64, kHi);

// --- machine-readable records (BENCH_micro_aggregation.json) --------------

// Faithful replica of the PR 1 DistanceMatrix constructor: per-pair
// distance_squared plus sqrt, storing both the squared and the plain
// matrix.  This is the baseline the acceptance numbers compare against.
struct Pr1DistanceMatrix {
  std::size_t m;
  std::vector<double> d_;
  std::vector<double> d2_;
  explicit Pr1DistanceMatrix(const VectorList& points) : m(points.size()) {
    d_.assign(m * m, 0.0);
    d2_.assign(m * m, 0.0);
    for (std::size_t i = 0; i + 1 < m; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) {
        const double s = distance_squared(points[i], points[j]);
        const double e = std::sqrt(s);
        d2_[i * m + j] = d2_[j * m + i] = s;
        d_[i * m + j] = d_[j * m + i] = e;
      }
    }
  }
};

void emit_json() {
  using benchjson::Record;
  using benchjson::time_ns;
  std::vector<Record> records;

  // Distance build: Gram trick over the contiguous batch vs the PR 1
  // per-pair build, single thread.  (50, 10000) is the acceptance shape.
  for (const auto& [m, d] : {std::pair<std::size_t, std::size_t>{10, 1024},
                             {32, 4096},
                             {50, 10000}}) {
    const VectorList pts = make_inputs(m, d, 7);
    const GradientBatch batch = GradientBatch::from(pts);
    const double naive =
        time_ns([&] { benchmark::DoNotOptimize(Pr1DistanceMatrix(pts)); });
    const double gram =
        time_ns([&] { benchmark::DoNotOptimize(DistanceMatrix(batch)); });
    records.push_back({"distance_matrix_pr1_per_pair", m, d, naive, 0.0});
    records.push_back({"distance_matrix_batch_gram", m, d, gram,
                       gram > 0.0 ? naive / gram : 0.0});
  }

  // Blocked coordinate-wise reductions vs the per-coordinate gather.
  {
    const std::size_t m = 25, d = 100000;
    const VectorList pts = make_inputs(m, d, 9);
    const GradientBatch batch = GradientBatch::from(pts);
    const double naive_med = time_ns(
        [&] { benchmark::DoNotOptimize(coordinatewise_median(pts)); });
    const double block_med = time_ns(
        [&] { benchmark::DoNotOptimize(coordinatewise_median(batch)); });
    records.push_back({"cw_median_blocked", m, d, block_med,
                       block_med > 0.0 ? naive_med / block_med : 0.0});
    const double naive_trim = time_ns([&] {
      benchmark::DoNotOptimize(coordinatewise_trimmed_mean(pts, 3));
    });
    const double block_trim = time_ns([&] {
      benchmark::DoNotOptimize(coordinatewise_trimmed_mean(batch, 3));
    });
    records.push_back({"trimmed_mean_blocked", m, d, block_trim,
                       block_trim > 0.0 ? naive_trim / block_trim : 0.0});
  }

  // Sparse distance build: the SpGEMM row-merge Gram vs the pairwise
  // sparse_dot_sparse build it replaced, at the acceptance shape (m=500,
  // d=10000, 1% density — a top-k compressed inbox at scale).
  {
    const std::size_t m = 500, d = 10000;
    const double density = 0.01;
    Rng rng(13);
    SparseRows rows(d);
    std::vector<std::uint32_t> idx;
    std::vector<double> val;
    for (std::size_t i = 0; i < m; ++i) {
      idx.clear();
      val.clear();
      for (std::size_t k = 0; k < d; ++k) {
        if (rng.uniform() >= density) continue;
        idx.push_back(static_cast<std::uint32_t>(k));
        val.push_back(rng.uniform(-1.0, 1.0));
      }
      rows.push_row(idx.data(), val.data(), val.size());
    }
    // Pairwise replica of the pre-SpGEMM constructor: m^2/2 ordered merges
    // (norms + Gram identity, no guard hit on this data).
    const auto pairwise = [&] {
      std::vector<double> norms(m), d2(m * m, 0.0);
      for (std::size_t i = 0; i < m; ++i) {
        norms[i] = kernels::sparse_dot_sparse(
            rows.row_indices(i), rows.row_values(i), rows.row_nnz(i),
            rows.row_indices(i), rows.row_values(i), rows.row_nnz(i));
      }
      for (std::size_t i = 0; i + 1 < m; ++i) {
        for (std::size_t j = i + 1; j < m; ++j) {
          const double g = kernels::sparse_dot_sparse(
              rows.row_indices(i), rows.row_values(i), rows.row_nnz(i),
              rows.row_indices(j), rows.row_values(j), rows.row_nnz(j));
          d2[i * m + j] = d2[j * m + i] = norms[i] + norms[j] - 2.0 * g;
        }
      }
      benchmark::DoNotOptimize(d2);
    };
    const double naive = time_ns(pairwise, 3);
    const double spgemm = time_ns(
        [&] { benchmark::DoNotOptimize(DistanceMatrix(rows)); }, 3);
    records.push_back({"sparse_distance_pairwise_merge", m, d, naive, 0.0});
    records.push_back({"sparse_distance_spgemm", m, d, spgemm,
                       spgemm > 0.0 ? naive / spgemm : 0.0});
  }

  // One full distance-based rule through the batch path vs a replica of
  // the retired VectorList rule path: finiteness scan, per-pair distance
  // build, Krum scores, copy of the winning row.
  {
    const std::size_t m = 20, d = 20000;
    const VectorList pts = make_inputs(m, d, 11);
    const GradientBatch batch = GradientBatch::from(pts);
    AggregationContext ctx;
    ctx.n = m;
    ctx.t = 4;
    const auto rule = make_rule("KRUM");
    const auto list_krum = [&] {
      for (const auto& v : pts) {
        for (double x : v) {
          if (!std::isfinite(x)) throw std::invalid_argument("non-finite");
        }
      }
      const auto scores = krum_scores(DistanceMatrix(pts), ctx.keep() - 1,
                                      KrumScore::Euclidean);
      const auto best = std::min_element(scores.begin(), scores.end());
      return Vector(pts[static_cast<std::size_t>(best - scores.begin())]);
    };
    const double legacy =
        time_ns([&] { benchmark::DoNotOptimize(list_krum()); });
    const double fast = time_ns([&] {
      AggregationWorkspace ws(batch);
      benchmark::DoNotOptimize(rule->aggregate(batch, ws, ctx));
    });
    records.push_back(
        {"krum_batch_gram", m, d, fast, fast > 0.0 ? legacy / fast : 0.0});
  }

  const char* path = "BENCH_micro_aggregation.json";
  if (benchjson::write(path, records)) {
    std::printf("wrote %s (%zu records)\n", path, records.size());
    for (const auto& r : records) {
      std::printf("  %-32s m=%-3zu d=%-6zu %12.0f ns/op  speedup %.2fx\n",
                  r.op.c_str(), r.m, r.d, r.ns_op, r.speedup_vs_naive);
    }
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

}  // namespace

// Custom main: emit the JSON records first (so they are written even when
// the --benchmark_filter selects nothing), then run the registered
// google-benchmark suites as usual.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  emit_json();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
