// bench_decentralized_scale: sub-round cost of the agreement protocol at
// scale (ISSUE 9 tentpole artifact).
//
// Runs fixed-round approximate agreement with a Krum-family round function
// at m = 100..2000 nodes under the sync engine and measures the wall cost
// per sub-round for three configurations of the same protocol:
//
//   subround_shared   the default path: zero-copy inbox views over the
//                     round arena + cross-node memoization (one Gram/step
//                     build per distinct sub-round inbox).
//                     speedup_vs_naive compares against subround_copy at
//                     the same m, measured in the same process — only
//                     while that reference is still reasonable to run
//                     (--compare-max, default 2000), 0 elsewhere.
//   subround_private  ablation: views on, sharing off — every node pays
//                     its own O(m^2 d) build over the borrowed inbox.
//   subround_copy     the pre-PR path: owned per-node inbox copies
//                     (payload_batch) and per-node builds.
//   peak_rss_kb       ns_op carries getrusage(RUSAGE_SELF).ru_maxrss in
//                     KiB.  ru_maxrss is a process-lifetime high-water
//                     mark, so the shared cells run first in ascending m —
//                     the O(n d) memory evidence — and the per-node
//                     ablations run only after every RSS sample is taken.
//
// All three configurations produce bitwise-identical agreement traces
// (tests/subround_sharing_test.cpp enforces it); the bench prints the
// sharing counters so a collapsed build count (one per sub-round under
// sync, no faults) is visible alongside the timing.
//
// The committed baseline lives at bench/baseline/decentralized_scale.json;
// CI runs a reduced sweep (--ms with smaller values) whose records
// deliberately do not pair with the baseline keys.
//
//   ./bench_decentralized_scale                      # m = 100,500,2000
//   ./bench_decentralized_scale --ms 50,200 --subrounds 2   # CI smoke
//   ./bench_decentralized_scale --rule MULTIKRUM-8 --threads 8

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/bcl.hpp"

namespace {

using namespace bcl;

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream stream(csv);
  std::string token;
  while (!csv.empty() && std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(std::stoull(token));
  }
  return out;
}

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
/// sub-round count.  `views`/`share` select the configuration under test.
Cell run_cell(std::size_t m, std::size_t dim, std::size_t subrounds,
              const std::string& rule, std::uint64_t seed, ThreadPool* pool,
              bool views, bool share) {
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
  cfg.round_function = make_round_function(rule);
  cfg.epsilon = 0.0;
  cfg.pool = pool;
  cfg.inbox_views = views;
  cfg.share_subrounds = share;

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

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"ms", "dim", "subrounds", "rule", "compare-max",
                      "compare-subrounds", "seed", "json", "threads"});
  const std::vector<std::size_t> ms =
      parse_sizes(args.get_string("ms", "100,500,2000"));
  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim", 64));
  const std::size_t subrounds =
      static_cast<std::size_t>(args.get_int("subrounds", 3));
  const std::string rule = args.get_string("rule", "KRUM");
  const std::size_t compare_max =
      static_cast<std::size_t>(args.get_int("compare-max", 2000));
  // The per-node ablations cost O(m^3 d) per sub-round across the system —
  // minutes at m=2000 — so they run fewer sub-rounds than the shared
  // cells; per-sub-round nanoseconds stay comparable.
  const std::size_t compare_subrounds =
      static_cast<std::size_t>(args.get_int("compare-subrounds", 1));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 29));
  const std::string json_path =
      args.get_string("json", "BENCH_decentralized_scale.json");

  ThreadPool pool(static_cast<std::size_t>(args.get_int("threads", 0)));

  // Warm the allocator, the pool and the instruction cache outside the
  // timed cells.
  (void)run_cell(16, dim, 1, rule, seed, &pool, true, true);

  std::vector<benchjson::Record> records;
  std::printf("=== bench_decentralized_scale: rule=%s d=%zu subrounds=%zu "
              "===\n\n",
              rule.c_str(), dim, subrounds);

  // Pass 1: the default (shared, view) cells, ascending m, RSS sampled
  // after each — the memory profile must not be polluted by the per-node
  // ablations below.
  std::vector<double> shared_seconds(ms.size(), 0.0);
  std::vector<std::size_t> shared_record_at(ms.size(), 0);
  for (std::size_t cell = 0; cell < ms.size(); ++cell) {
    const std::size_t m = ms[cell];
    const Cell shared =
        run_cell(m, dim, subrounds, rule, seed, &pool, true, true);
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

  // Pass 2: per-node ablations at the same m — sharing off (views still
  // on), then the pre-PR owned-copy path — while small enough to be a
  // fair single-process reference.
  for (std::size_t cell = 0; cell < ms.size(); ++cell) {
    const std::size_t m = ms[cell];
    if (m > compare_max || shared_seconds[cell] <= 0.0) continue;
    const Cell priv =
        run_cell(m, dim, compare_subrounds, rule, seed, &pool, true, false);
    const Cell copy =
        run_cell(m, dim, compare_subrounds, rule, seed, &pool, false, false);
    const double priv_ns =
        priv.seconds * 1e9 / static_cast<double>(compare_subrounds);
    const double copy_ns =
        copy.seconds * 1e9 / static_cast<double>(compare_subrounds);
    const double shared_ns =
        shared_seconds[cell] * 1e9 / static_cast<double>(subrounds);
    const double speedup = copy_ns / shared_ns;
    records[shared_record_at[cell]].speedup_vs_naive = speedup;
    records.push_back({"subround_private", m, dim, priv_ns, 0.0});
    records.push_back({"subround_copy", m, dim, copy_ns, 0.0});
    std::printf("  m=%-6zu subround_private %14.0f ns/subround\n", m,
                priv_ns);
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
