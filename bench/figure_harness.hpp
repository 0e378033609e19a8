#pragma once
// Shared glue for the figure/ablation reproduction benchmarks.
//
// Each bench binary is now a thin list of ScenarioSpecs (src/experiments/)
// plus this helper, which applies the shared CLI overrides (--full,
// --rounds, --seed, --delay, --subrounds, --threads) to every spec and
// drives them through one ScenarioRunner with console + optional CSV/JSON
// emitters.  All training loops live in the engine; the binaries only
// declare *what* to run.  bcl_run reuses EmitterSet so the artifact
// wiring exists in exactly one place.

#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bcl.hpp"

namespace bcl::bench {

/// The CLI flags every scenario-driven bench accepts (bcl_run adds its
/// sweep axes on top).
inline const std::vector<std::string>& scenario_flags() {
  static const std::vector<std::string> flags = {
      "full",  "rounds",    "seed", "csv",     "json",
      "threads", "delay", "subrounds", "net", "comp", "eval-max",
      "trace", "trace-dir", "profile"};
  return flags;
}

/// Applies scalar override flags to `spec` through ScenarioSpec::set, so
/// CLI values get the same strict validation (non-negative integers,
/// known enum values) as the textual grammar — `--rounds -1` fails with
/// the grammar's message instead of wrapping to 2^64-1.  Each entry of
/// `keys` is both the flag name and the spec key; `--full` is handled
/// separately (boolean flag, not a key=value).
inline void apply_scalar_flags(const CliArgs& args,
                               const std::vector<std::string>& keys,
                               experiments::ScenarioSpec& spec) {
  if (args.get_bool("full", false)) spec.full_scale = true;
  for (const auto& key : keys) {
    if (args.has(key)) spec.set(key, args.get_string(key, ""));
  }
  // Asking for trace artifacts without picking a level means "record
  // everything": --trace-dir/--profile imply trace=full on cells still at
  // the default (an explicit --trace or per-spec trace= wins).
  if ((args.has("trace-dir") || args.get_bool("profile", false)) &&
      spec.trace == "off") {
    spec.trace = "full";
  }
}

/// The --threads worker count (0, the default, runs serially).  A
/// negative value is an error that names the flag, not a cast to a huge
/// size_t.
inline std::size_t thread_count(const CliArgs& args) {
  const long long threads = args.get_int("threads", 0);
  if (threads < 0) {
    throw std::invalid_argument("--threads must be >= 0, got " +
                                std::to_string(threads));
  }
  return static_cast<std::size_t>(threads);
}

/// Console emitter plus the optional --csv/--json artifact emitters, with
/// their "written to" report — one construction site shared by the bench
/// harnesses and bcl_run.
struct EmitterSet {
  EmitterSet(std::ostream& os, const CliArgs& args,
             const std::string& csv_default, const std::string& json_default)
      : console(os) {
    pointers.push_back(&console);
    if (args.has("csv")) {
      csv_base = args.get_string("csv", csv_default);
      csv.emplace(csv_base);
      pointers.push_back(&*csv);
    }
    if (args.has("json")) {
      json_path = args.get_string("json", json_default);
      json.emplace(json_path);
      pointers.push_back(&*json);
    }
    const bool profile = args.get_bool("profile", false);
    if (args.has("trace-dir") || profile) {
      trace_dir = args.get_string("trace-dir", "");
      trace.emplace(trace_dir, profile, &os);
      pointers.push_back(&*trace);
    }
  }

  // `pointers` aliases this object's own members, so a copy/move would
  // leave the new object pointing into the old one (use-after-free once
  // the source dies).  Both call sites construct in place.
  EmitterSet(const EmitterSet&) = delete;
  EmitterSet& operator=(const EmitterSet&) = delete;

  /// Prints where the artifacts went (after the emitters' finish()).
  void report(std::ostream& os) const {
    if (csv) os << "\nCSV written to " << csv_base << "_{series,summary}.csv\n";
    if (json) os << "JSON written to " << json_path << "\n";
    if (trace && !trace_dir.empty()) {
      os << trace->written().size() << " trace file(s) written to "
         << trace_dir << "/trace_<cell>.json\n";
    }
  }

  experiments::ConsoleEmitter console;
  std::optional<experiments::CsvEmitter> csv;
  std::optional<experiments::JsonEmitter> json;
  std::optional<experiments::TraceEmitter> trace;
  std::string csv_base;
  std::string json_path;
  std::string trace_dir;
  std::vector<experiments::MetricsEmitter*> pointers;
};

/// Applies CLI overrides to `specs`, runs them all through the scenario
/// engine, prints the series/summary tables, writes --csv/--json
/// artifacts, and returns the per-scenario summaries for binary-specific
/// post-processing (pivot tables etc.).
inline std::vector<experiments::ScenarioSummary> run_scenarios(
    const std::string& title, std::vector<experiments::ScenarioSpec> specs,
    int argc, char** argv) {
  const CliArgs args(argc, argv, scenario_flags());
  for (auto& spec : specs) {
    apply_scalar_flags(args, {"rounds", "seed", "delay", "subrounds", "net",
                              "comp", "eval-max", "trace"},
                       spec);
  }

  std::cout << "=== " << title << ": " << specs.size()
            << " scenario(s) through the scenario engine ===\n\n";

  ThreadPool pool(thread_count(args));
  experiments::ScenarioRunner runner(&pool);
  EmitterSet emitters(std::cout, args, title, "BENCH_" + title + ".json");
  const auto summaries = runner.run_all(specs, emitters.pointers);
  emitters.report(std::cout);
  return summaries;
}

}  // namespace bcl::bench
