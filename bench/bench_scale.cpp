// bench_scale: the client-scale sweep.
//
// Runs the streaming cohort trainer at m = 10^3..10^5 clients with a fixed
// cohort size, so the per-round cost and the resident set stay O(cohort*d)
// while the membership axis grows by two orders of magnitude.  Emits
// BENCH_scale.json (bench_json.hpp shape) with two record kinds per cell:
//
//   cohort_round   ns_op = wall nanoseconds per training round.
//                  speedup_vs_naive compares against the full-upload path
//                  (cohort=1, every client computes and uploads, one
//                  O(m*d) round batch) at the same m, measured in the same
//                  process — only while that reference is still reasonable
//                  to run (--compare-max, default 2000), 0 elsewhere.
//                  cohort=1 is bitwise the cohort=none run: both take the
//                  trainer's one streaming round loop.
//   peak_rss_kb    ns_op carries getrusage(RUSAGE_SELF).ru_maxrss in KiB
//                  (the schema has one numeric slot; the op name declares
//                  the unit).  ru_maxrss is a process-lifetime high-water
//                  mark, so the cohort cells run first in ascending m —
//                  a flat profile across them is the bounded-memory
//                  evidence — and the O(m*d) full-upload references run
//                  only after every RSS sample is taken.
//   sharded_exact / sharded_sketch
//                  one aggregate_sharded call over a synthetic
//                  sketch_m x d inbox (the >= 10^4-row regime where the
//                  sketch=auto scenario dimension engages) with the exact
//                  rule pair versus its SKETCH-* counterparts.
//                  speedup_vs_naive on the sketch record = exact/sketch.
//
// The committed baseline lives at bench/baseline/scale.json; CI runs a
// reduced sweep (--ms with smaller values), whose records deliberately do
// not pair with the baseline keys — the sweep documents the trajectory, it
// is not a same-machine timing gate.
//
//   ./bench_scale                         # full sweep: m = 1000,10000,100000
//   ./bench_scale --ms 500,5000 --rounds 2   # CI smoke
//   ./bench_scale --threads 8 --shards 16

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "aggregation/sharded.hpp"
#include "bench_json.hpp"
#include "figure_harness.hpp"

namespace {

using namespace bcl;
using experiments::ScenarioSpec;

double peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // Linux reports ru_maxrss in KiB already; macOS reports bytes.
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
  return static_cast<double>(usage.ru_maxrss);
#endif
}

/// One sweep cell: m clients, a fixed-size cohort, sharded aggregation.
ScenarioSpec make_spec(std::size_t m, std::size_t cohort_target,
                       std::size_t shards, const std::string& rule,
                       std::size_t rounds) {
  ScenarioSpec spec;
  spec.set("n", std::to_string(m));
  // ~1% Byzantine, at least one, and within the 3t < n validity bound.
  spec.set("f", std::to_string(std::max<std::size_t>(1, m / 100)));
  spec.set("rule", rule);
  spec.set("attack", "sign-flip");
  spec.set("rounds", std::to_string(rounds));
  spec.set("eval-max", "64");
  const double frac =
      std::min(1.0, static_cast<double>(cohort_target) /
                        static_cast<double>(m));
  char cohort[64];
  std::snprintf(cohort, sizeof(cohort), "%.6g,shards=%zu", frac, shards);
  spec.set("cohort", cohort);
  return spec;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"ms", "rounds", "cohort-size", "shards", "rule",
                      "compare-max", "sketch-m", "sketch-rule", "json",
                      "threads"});
  const std::vector<std::size_t> ms =
      args.get_counts("ms", "1000,10000,100000");
  const std::size_t rounds = args.get_count("rounds", 3);
  const std::size_t cohort_target = args.get_count("cohort-size", 256);
  const std::size_t shards = args.get_count("shards", 8);
  const std::string rule = args.get_string("rule", "CW-MEDIAN");
  const std::size_t compare_max = args.get_count("compare-max", 2000);
  const std::size_t sketch_m = args.get_count("sketch-m", 10000);
  const std::string sketch_rule = args.get_string("sketch-rule", "MULTIKRUM");
  const std::string json_path =
      args.get_string("json", "BENCH_scale.json");

  ThreadPool pool(args.get_count("threads", 0));
  experiments::ScenarioRunner runner(&pool);

  // Warm the shared dataset cache (and the allocator) outside the timed
  // cells: every cell reuses the same (mlp, reduced, seed) dataset.
  {
    ScenarioSpec warm = make_spec(10, 4, 1, rule, 1);
    const auto summary = runner.run(warm);
    if (!summary.error.empty()) {
      std::fprintf(stderr, "bench_scale: warmup failed: %s\n",
                   summary.error.c_str());
      return 1;
    }
  }

  // d of the reduced MLP every cell trains (reported in the records).
  const std::size_t dim = ml::make_mlp(100, 16, 8, 10).parameter_count();

  std::vector<benchjson::Record> records;
  std::printf("=== bench_scale: cohort=%zu shards=%zu rule=%s rounds=%zu "
              "===\n\n",
              cohort_target, shards, rule.c_str(), rounds);
  // Pass 1: the cohort cells, ascending m, RSS sampled after each — the
  // memory profile must not be polluted by the O(m*d) references below.
  std::vector<double> cohort_seconds(ms.size(), 0.0);
  std::vector<std::size_t> cohort_record_at(ms.size(), 0);
  for (std::size_t cell = 0; cell < ms.size(); ++cell) {
    const std::size_t m = ms[cell];
    const ScenarioSpec spec =
        make_spec(m, cohort_target, shards, rule, rounds);
    const auto summary = runner.run(spec);
    if (!summary.error.empty()) {
      std::fprintf(stderr, "bench_scale: m=%zu failed: %s\n", m,
                   summary.error.c_str());
      return 1;
    }
    cohort_seconds[cell] = summary.seconds;
    const double cohort_ns =
        summary.seconds * 1e9 / static_cast<double>(rounds);
    cohort_record_at[cell] = records.size();
    records.push_back({"cohort_round", m, dim, cohort_ns, 0.0});
    const double rss = peak_rss_kb();
    records.push_back({"peak_rss_kb", m, dim, rss, 0.0});
    std::printf("  m=%-7zu cohort_round %12.0f ns/op  peak rss %8.0f KiB\n",
                m, cohort_ns, rss);
  }

  // Pass 2: full-upload references (cohort=1, every client computes and
  // uploads into one O(m*d) round batch) at the same m — only while that
  // is small enough to be a fair single-process reference.
  for (std::size_t cell = 0; cell < ms.size(); ++cell) {
    const std::size_t m = ms[cell];
    if (m > compare_max || cohort_seconds[cell] <= 0.0) continue;
    ScenarioSpec full = make_spec(m, cohort_target, shards, rule, rounds);
    full.set("cohort", "1,shards=1");
    const auto reference = runner.run(full);
    if (!reference.error.empty()) {
      std::fprintf(stderr, "bench_scale: full-upload m=%zu failed: %s\n", m,
                   reference.error.c_str());
      return 1;
    }
    const double speedup = reference.seconds / cohort_seconds[cell];
    records[cohort_record_at[cell]].speedup_vs_naive = speedup;
    records.push_back({"full_upload_round", m, dim,
                       reference.seconds * 1e9 / static_cast<double>(rounds),
                       0.0});
    std::printf("  m=%-7zu full_upload  %12.0f ns/op  (cohort %.2fx faster)\n",
                m, reference.seconds * 1e9 / static_cast<double>(rounds),
                speedup);
  }

  // Pass 3: the sketched shard-rule cell (the sketch= dimension).  A
  // synthetic sketch_m x d inbox — the >= 10^4-row regime where
  // sketch=auto engages — aggregated through aggregate_sharded with the
  // exact rule pair versus its SKETCH-* counterparts, exactly the swap
  // the centralized trainer performs on a cohort round.  Isolated from the trainer so the record
  // measures the aggregation win alone, not gradient computation.
  //
  // The inbox mirrors the regime the sketch screen is for: a unit-scale
  // honest cluster plus a far Byzantine block (~1% of rows, leading each
  // shard slice so every shard sees the same cut).  The score gap across
  // that cut dwarfs the JL error bound, so the screen certifies and the
  // sketched path never pays the exact O((m/s)^2 * d) Gram per shard.  On
  // near-tied data it would fall back and cost slightly more than exact —
  // that regime is covered by the property tests, not timed here.  The
  // default rule pair is MULTIKRUM-q with q = honest rows per shard (the
  // selection cut sits exactly on the honest/Byzantine boundary);
  // --sketch-rule overrides with a verbatim registry name.
  if (sketch_m > 0) {
    const std::size_t sketch_shards = std::min(shards, sketch_m);
    const std::size_t per_shard = sketch_m / std::max<std::size_t>(1, sketch_shards);
    const std::size_t outliers = std::max<std::size_t>(1, per_shard / 100);
    Rng sketch_rng(33);
    GradientBatch inbox(sketch_m, dim);
    for (std::size_t i = 0; i < sketch_m; ++i) {
      // aggregate_sharded slices contiguously, so row i's shard-local
      // index is i % per_shard (exact when sketch_shards divides
      // sketch_m; a remainder only shifts later shards' cuts onto
      // honest/honest near-ties, which fall back and dilute the win).
      const bool byzantine = (i % per_shard) < outliers;
      const double offset = byzantine ? 100.0 : 0.0;
      double* row = inbox.row(i);
      for (std::size_t k = 0; k < dim; ++k) {
        row[k] = offset + sketch_rng.uniform(-1.0, 1.0);
      }
    }
    AggregationContext ctx;
    ctx.n = sketch_m;
    ctx.t = std::max<std::size_t>(1, sketch_m / 100);
    ctx.pool = &pool;
    std::string exact_name = sketch_rule;
    if (exact_name == "MULTIKRUM") {
      exact_name += "-" + std::to_string(per_shard - outliers);
    }
    const auto exact = make_rule(exact_name);
    const auto sketched = make_rule("SKETCH-" + exact_name);
    const auto time_pair = [&](const AggregationRule& rule) {
      AggregationWorkspace ws(inbox, &pool);
      const auto t0 = std::chrono::steady_clock::now();
      const Vector out = aggregate_sharded(inbox, ws, rule, rule, shards, ctx);
      const auto t1 = std::chrono::steady_clock::now();
      (void)out;
      return std::chrono::duration<double, std::nano>(t1 - t0).count();
    };
    const double exact_ns = time_pair(*exact);
    const double sketch_ns = time_pair(*sketched);
    records.push_back({"sharded_exact", sketch_m, dim, exact_ns, 0.0});
    records.push_back({"sharded_sketch", sketch_m, dim, sketch_ns,
                       exact_ns / sketch_ns});
    std::printf("\n  m=%-7zu sharded %s exact %12.0f ns  sketch %12.0f ns  "
                "(%.2fx)\n",
                sketch_m, exact_name.c_str(), exact_ns, sketch_ns,
                exact_ns / sketch_ns);
  }

  if (!benchjson::write(json_path, records)) {
    std::fprintf(stderr, "bench_scale: failed to write %s\n",
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
  // "bench_scale: ..." line and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_scale: %s\n", error.what());
    return 1;
  }
}
