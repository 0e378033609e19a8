// bench_decentralized_scale: sub-round cost of the agreement protocol at
// scale.
//
// Runs fixed-round approximate agreement with a Krum-family rule at
// m = 100..2000 nodes under the sync engine and measures the wall cost
// per sub-round for two configurations of the same protocol:
//
//   subround_shared   the production path: zero-copy inbox views over the
//                     round arena + cross-node memoization (one Gram/step
//                     build per distinct sub-round inbox).
//                     speedup_vs_naive compares against subround_copy at
//                     the same m, measured in the same process — only
//                     while that reference is still reasonable to run
//                     (--compare-max, default 2000), 0 elsewhere.
//   subround_copy     the naive reference: the rule wrapped in
//                     tests/agreement_oracle.hpp's PrivateCopyRule, so
//                     every node copies its inbox and pays its own
//                     O(m^2 d) build.
//   peak_rss_kb       ns_op carries getrusage(RUSAGE_SELF).ru_maxrss in
//                     KiB.  ru_maxrss is a process-lifetime high-water
//                     mark, so the shared cells run first in ascending m —
//                     the O(n d) memory evidence — and the per-node
//                     references run only after every RSS sample is taken.
//
// Both configurations produce bitwise-identical agreement traces
// (tests/subround_sharing_test.cpp enforces it); the bench prints the
// sharing counters so a collapsed build count (one per sub-round under
// sync, no faults) is visible alongside the timing.
//
// The committed baseline lives at bench/baseline/decentralized_scale.json;
// CI re-measures its m = 100 and 500 cells to gate the speedup ratio.
//
//   ./bench_decentralized_scale                      # m = 100,500,2000
//   ./bench_decentralized_scale --ms 50,200 --subrounds 2   # smoke
//   ./bench_decentralized_scale --rule MULTIKRUM-8 --threads 8

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "../tests/agreement_oracle.hpp"
#include "bench_json.hpp"
#include "core/bcl.hpp"

namespace {

using namespace bcl;

double peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
  return static_cast<double>(usage.ru_maxrss);
#endif
}

struct Cell {
  double seconds = 0.0;
  SharingStats sharing;
};

/// One timed agreement run: m nodes, ~1% sign-flip Byzantine, fixed
/// sub-round count.  `rule` is the production rule or its PrivateCopyRule
/// reference.
Cell run_cell(std::size_t m, std::size_t dim, std::size_t subrounds,
              const AggregationRulePtr& rule, std::uint64_t seed,
              ThreadPool* pool) {
  Rng rng(seed);
  VectorList inputs;
  inputs.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    Vector v(dim);
    for (auto& x : v) x = rng.uniform(-5.0, 5.0);
    inputs.push_back(std::move(v));
  }
  const std::size_t f = std::max<std::size_t>(1, m / 100);
  std::vector<std::size_t> byz;
  for (std::size_t i = m - f; i < m; ++i) byz.push_back(i);
  SignFlipAdversary adversary(byz);

  AgreementConfig cfg;
  cfg.n = m;
  cfg.t = f;
  cfg.rule = rule;
  cfg.epsilon = 0.0;
  cfg.pool = pool;

  const auto t0 = std::chrono::steady_clock::now();
  const AgreementResult result =
      run_fixed_rounds_agreement(GradientBatch::from(inputs), adversary,
                                 subrounds, cfg);
  const auto t1 = std::chrono::steady_clock::now();

  Cell cell;
  cell.seconds = std::chrono::duration<double>(t1 - t0).count();
  cell.sharing = result.sharing;
  return cell;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"ms", "dim", "subrounds", "rule", "compare-max",
                      "compare-subrounds", "seed", "json", "threads"});
  const std::vector<std::size_t> ms = args.get_counts("ms", "100,500,2000");
  const std::size_t dim = args.get_count("dim", 64);
  const std::size_t subrounds = args.get_count("subrounds", 3);
  const std::string rule_name = args.get_string("rule", "KRUM");
  const std::size_t compare_max = args.get_count("compare-max", 2000);
  // The per-node reference costs O(m^3 d) per sub-round across the
  // system — minutes at m=2000 — so it runs fewer sub-rounds than the
  // shared cells; per-sub-round nanoseconds stay comparable.
  const std::size_t compare_subrounds = args.get_count("compare-subrounds", 1);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 29));
  const std::string json_path =
      args.get_string("json", "BENCH_decentralized_scale.json");

  ThreadPool pool(args.get_count("threads", 0));
  const AggregationRulePtr rule = make_rule(rule_name);
  const AggregationRulePtr copy_rule = test::private_copy(rule);

  // Warm the allocator, the pool and the instruction cache outside the
  // timed cells.
  (void)run_cell(16, dim, 1, rule, seed, &pool);

  std::vector<benchjson::Record> records;
  std::printf("=== bench_decentralized_scale: rule=%s d=%zu subrounds=%zu "
              "===\n\n",
              rule_name.c_str(), dim, subrounds);

  // Pass 1: the production (shared, view) cells, ascending m, RSS sampled
  // after each — the memory profile must not be polluted by the per-node
  // references below.
  std::vector<double> shared_seconds(ms.size(), 0.0);
  std::vector<std::size_t> shared_record_at(ms.size(), 0);
  for (std::size_t cell = 0; cell < ms.size(); ++cell) {
    const std::size_t m = ms[cell];
    const Cell shared = run_cell(m, dim, subrounds, rule, seed, &pool);
    shared_seconds[cell] = shared.seconds;
    const double ns = shared.seconds * 1e9 / static_cast<double>(subrounds);
    shared_record_at[cell] = records.size();
    records.push_back({"subround_shared", m, dim, ns, 0.0});
    const double rss = peak_rss_kb();
    records.push_back({"peak_rss_kb", m, dim, rss, 0.0});
    std::printf("  m=%-6zu subround_shared  %14.0f ns/subround  "
                "builds=%zu hits=%zu  peak rss %8.0f KiB\n",
                m, ns, shared.sharing.gram_builds, shared.sharing.shared_hits,
                rss);
  }

  // Pass 2: the per-node copy reference at the same m, while small enough
  // to be a fair single-process reference.
  for (std::size_t cell = 0; cell < ms.size(); ++cell) {
    const std::size_t m = ms[cell];
    if (m > compare_max || shared_seconds[cell] <= 0.0) continue;
    const Cell copy =
        run_cell(m, dim, compare_subrounds, copy_rule, seed, &pool);
    const double copy_ns =
        copy.seconds * 1e9 / static_cast<double>(compare_subrounds);
    const double shared_ns =
        shared_seconds[cell] * 1e9 / static_cast<double>(subrounds);
    const double speedup = copy_ns / shared_ns;
    records[shared_record_at[cell]].speedup_vs_naive = speedup;
    records.push_back({"subround_copy", m, dim, copy_ns, 0.0});
    std::printf("  m=%-6zu subround_copy    %14.0f ns/subround  "
                "(shared %.1fx faster)\n",
                m, copy_ns, speedup);
  }

  if (!benchjson::write(json_path, records)) {
    std::fprintf(stderr, "bench_decentralized_scale: failed to write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu records)\n", json_path.c_str(),
              records.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flag parsing runs inside the try too, so a bad command line prints one
  // "bench_decentralized_scale: ..." line and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_decentralized_scale: %s\n", error.what());
    return 1;
  }
}
