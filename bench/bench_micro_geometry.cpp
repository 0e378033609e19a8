// Microbenchmarks of the geometry substrate: Weiszfeld iterations vs n and
// d, minimum enclosing balls, and the minimum-diameter subset search (the
// exponential-in-principle step MDA relies on, fast at n = 10).

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/bcl.hpp"

namespace {

using namespace bcl;

VectorList cloud(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(d);
    for (auto& x : v) x = rng.gaussian();
    pts.push_back(v);
  }
  return pts;
}

void BM_Weiszfeld(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const GradientBatch pts = GradientBatch::from(cloud(n, d, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometric_median(pts));
  }
}
BENCHMARK(BM_Weiszfeld)
    ->ArgsProduct({{8, 32, 128}, {8, 128, 2048}});

void BM_WeiszfeldIterations(benchmark::State& state) {
  // Reports the iteration count Weiszfeld needs at tightening tolerances.
  const double tol = 1.0 / std::pow(10.0, static_cast<double>(state.range(0)));
  const GradientBatch pts = GradientBatch::from(cloud(16, 64, 5));
  WeiszfeldOptions options;
  options.tolerance = tol;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const auto result = geometric_median(pts, options);
    iterations = result.iterations;
    benchmark::DoNotOptimize(result);
  }
  state.counters["iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_WeiszfeldIterations)->DenseRange(4, 12, 2);

void BM_MinEnclosingBall(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const VectorList pts = cloud(n, d, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimum_enclosing_ball(pts));
  }
}
BENCHMARK(BM_MinEnclosingBall)->ArgsProduct({{16, 64}, {2, 16, 256}});

void BM_MinDiameterSubset(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const VectorList pts = cloud(n, 8, 9);
  const std::size_t k = n - n / 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_diameter_subset(DistanceMatrix(pts), k));
  }
}
BENCHMARK(BM_MinDiameterSubset)->DenseRange(10, 20, 5);

void BM_SubsetEnumeration(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::size_t count = 0;
    for_each_combination(m, m - 2,
                         [&](const std::vector<std::size_t>&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SubsetEnumeration)->DenseRange(10, 30, 10);

void BM_TrimmedHyperbox(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const GradientBatch pts = GradientBatch::from(cloud(10, d, 11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trimmed_hyperbox(pts, 8));
  }
}
BENCHMARK(BM_TrimmedHyperbox)->RangeMultiplier(8)->Range(8, 4096);

void BM_Sgeo(benchmark::State& state) {
  // Cost of the full candidate set S_geo (the measurement apparatus of
  // Definition 3.3, also the per-step cost profile of BOX-GEOM).
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const VectorList pts = cloud(10, d, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_sgeo(pts, 2));
  }
}
BENCHMARK(BM_Sgeo)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace
