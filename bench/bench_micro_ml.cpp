// Microbenchmarks for the neural-network substrate: Conv2D and the blocked
// Dense against their reference implementations (the direct convolution
// loops from the test oracle, tests/conv2d_oracle.hpp, and per-row Dense
// loops).
//
// Besides the google-benchmark suites, main() emits BENCH_micro_ml.json
// (see bench_json.hpp) so the layer-kernel perf trajectory is tracked
// across PRs.  `m` is the batch size N, `d` the per-example feature count.

#include <benchmark/benchmark.h>

#include "../tests/conv2d_oracle.hpp"
#include "bench_json.hpp"
#include "core/bcl.hpp"
#include "ml/conv2d.hpp"
#include "ml/dense.hpp"

namespace {

using namespace bcl;
using ml::Conv2D;
using ml::Dense;
using ml::Tensor;

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1.0, 1.0);
  return t;
}

// CifarNet's first convolution: 3 -> 16 channels, 3x3, pad 1, 32x32 input.
constexpr std::size_t kN = 4;
constexpr std::size_t kInC = 3;
constexpr std::size_t kOutC = 16;
constexpr std::size_t kImg = 32;

Conv2D make_conv() {
  Conv2D conv(kInC, kOutC, 3, 1);
  Rng rng(21);
  conv.initialize(rng);
  return conv;
}

void BM_Conv2DForwardDirect(benchmark::State& state) {
  const test::ConvOracle direct = test::oracle_of(make_conv());
  const Tensor x = random_tensor({kN, kInC, kImg, kImg}, 22);
  for (auto _ : state) benchmark::DoNotOptimize(direct.forward_direct(x));
}
BENCHMARK(BM_Conv2DForwardDirect);

void BM_Conv2DForward(benchmark::State& state) {
  Conv2D conv = make_conv();
  const Tensor x = random_tensor({kN, kInC, kImg, kImg}, 22);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
}
BENCHMARK(BM_Conv2DForward);

void BM_Conv2DBackwardDirect(benchmark::State& state) {
  test::ConvOracle direct = test::oracle_of(make_conv());
  const Tensor x = random_tensor({kN, kInC, kImg, kImg}, 22);
  const Tensor gy = random_tensor(direct.forward_direct(x).shape(), 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(direct.backward_direct(x, gy));
  }
}
BENCHMARK(BM_Conv2DBackwardDirect);

void BM_Conv2DBackward(benchmark::State& state) {
  Conv2D conv = make_conv();
  const Tensor x = random_tensor({kN, kInC, kImg, kImg}, 22);
  const Tensor gy = random_tensor(conv.forward(x).shape(), 23);
  for (auto _ : state) {
    conv.zero_gradients();
    benchmark::DoNotOptimize(conv.backward(gy));
  }
}
BENCHMARK(BM_Conv2DBackward);

void BM_DenseForward(benchmark::State& state) {
  const std::size_t in = static_cast<std::size_t>(state.range(0));
  Dense dense(in, 128);
  Rng rng(24);
  dense.initialize(rng);
  const Tensor x = random_tensor({32, in}, 25);
  for (auto _ : state) benchmark::DoNotOptimize(dense.forward(x));
}
BENCHMARK(BM_DenseForward)->RangeMultiplier(4)->Range(64, 4096);

// --- machine-readable records (BENCH_micro_ml.json) -----------------------

// Reference Dense forward/backward: the pre-gemm per-row loops, kept here
// as the baseline the JSON speedups compare against.
Tensor dense_forward_naive(const Tensor& x, const std::vector<double>& w,
                           const std::vector<double>& b, std::size_t in,
                           std::size_t out) {
  const std::size_t batch = x.dim(0);
  Tensor y({batch, out});
  for (std::size_t n = 0; n < batch; ++n) {
    const double* xr = x.data() + n * in;
    double* yr = y.data() + n * out;
    for (std::size_t o = 0; o < out; ++o) yr[o] = b[o];
    for (std::size_t i = 0; i < in; ++i) {
      const double xi = xr[i];
      if (xi == 0.0) continue;
      const double* wr = w.data() + i * out;
      for (std::size_t o = 0; o < out; ++o) yr[o] += xi * wr[o];
    }
  }
  return y;
}

void emit_json() {
  using benchjson::Record;
  using benchjson::time_ns;
  std::vector<Record> records;

  // Conv2D vs the direct loops, forward and backward.
  {
    const Tensor x = random_tensor({kN, kInC, kImg, kImg}, 22);
    test::ConvOracle direct = test::oracle_of(make_conv());
    Conv2D fast = make_conv();
    const std::size_t d = kInC * kImg * kImg;
    const double fwd_naive =
        time_ns([&] { benchmark::DoNotOptimize(direct.forward_direct(x)); });
    const double fwd_fast =
        time_ns([&] { benchmark::DoNotOptimize(fast.forward(x)); });
    records.push_back({"conv2d_forward_direct", kN, d, fwd_naive, 0.0});
    records.push_back({"conv2d_forward", kN, d, fwd_fast,
                       fwd_fast > 0.0 ? fwd_naive / fwd_fast : 0.0});

    const Tensor gy = random_tensor(fast.forward(x).shape(), 23);
    const double bwd_naive = time_ns([&] {
      benchmark::DoNotOptimize(direct.backward_direct(x, gy));
    });
    const double bwd_fast = time_ns([&] {
      fast.zero_gradients();
      benchmark::DoNotOptimize(fast.backward(gy));
    });
    records.push_back({"conv2d_backward_direct", kN, d, bwd_naive, 0.0});
    records.push_back({"conv2d_backward", kN, d, bwd_fast,
                       bwd_fast > 0.0 ? bwd_naive / bwd_fast : 0.0});
  }

  // Dense forward: gemm vs the per-row reference loop.
  {
    const std::size_t in = 3072, out = 128, batch = 32;
    Dense dense(in, out);
    Rng rng(24);
    dense.initialize(rng);
    std::vector<double> params(dense.parameter_count());
    dense.read_parameters(params.data());
    const std::vector<double> w(params.begin(),
                                params.begin() + static_cast<long>(in * out));
    const std::vector<double> b(params.begin() + static_cast<long>(in * out),
                                params.end());
    const Tensor x = random_tensor({batch, in}, 25);
    const double naive = time_ns([&] {
      benchmark::DoNotOptimize(dense_forward_naive(x, w, b, in, out));
    });
    const double fast =
        time_ns([&] { benchmark::DoNotOptimize(dense.forward(x)); });
    records.push_back({"dense_forward_blocked", batch, in, fast,
                       fast > 0.0 ? naive / fast : 0.0});
  }

  const char* path = "BENCH_micro_ml.json";
  if (benchjson::write(path, records)) {
    std::printf("wrote %s (%zu records)\n", path, records.size());
    for (const auto& r : records) {
      std::printf("  %-28s m=%-3zu d=%-6zu %12.0f ns/op  speedup %.2fx\n",
                  r.op.c_str(), r.m, r.d, r.ns_op, r.speedup_vs_naive);
    }
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

}  // namespace

// JSON records are written before the registered suites run, so they are
// emitted even when the --benchmark_filter selects nothing.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  emit_json();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
