// bcl_run: the scenario CLI.  Executes any single scenario or a
// cross-product sweep over rules x attacks x f x heterogeneity x topology
// x network x codec, streaming metrics to the console and optional
// CSV/JSON artifacts.
//
//   # registries
//   ./bcl_run --list
//
//   # one scenario, full key=value grammar (docs/scenarios.md)
//   ./bcl_run --scenario "topology=decentralized rule=BOX-GEOM \
//       attack=sign-flip:scale=2 f=2 rounds=30"
//
//   # sweep: every combination of the comma-separated axes
//   ./bcl_run --rules KRUM,BOX-GEOM --attacks sign-flip,alie,mimic \
//       --fs 1,2 --hets mild,extreme --rounds 40 --json sweep.json
//
//   # network-timing sweep (NetConfig grammar values contain commas, so
//   # the --nets axis is ';'-separated), four cells in parallel
//   ./bcl_run --rules BOX-GEOM --jobs 4 \
//       --nets "sync;async:delay=exp,mean=5,drop=0.05,timeout=50"
//
//   # compression sweep under a bandwidth cap (--comps is ';'-separated
//   # like --nets, since codec grammar values may contain commas)
//   ./bcl_run --rules BOX-GEOM --comps "identity;topk:frac=0.01" \
//       --net "async:delay=const,mean=1,bw=1e6"
//
//   # print the expanded grid (one spec per line) without running a cell
//   ./bcl_run --rules KRUM,BOX-GEOM --fs 1,2 --dry-run
//
//   # fault-injection sweep (FaultConfig grammar values contain commas,
//   # so --faults is ';'-separated like --nets/--comps); bounded-staleness
//   # server with tau=2
//   ./bcl_run --rules BOX-GEOM --stale 2 \
//       --faults "none;churn:leave=0.2,join=0.5,cap=0.3"
//
//   # streaming cohort subsampling + sharded aggregation at scale
//   ./bcl_run --scenario "n=100000 f=1000 rule=CW-MEDIAN \
//       cohort=0.01,shards=16 rounds=5"
//
// Sweep axes: --rules, --attacks, --topologies, --hets, --fs, --nets,
// --comps, --faults.  Shared scalar overrides: --n, --t, --model, --full,
// --rounds, --batch, --lr, --subrounds, --delay, --net, --comp, --stale,
// --cohort, --seed, --eval-max, --trace.
// Artifacts: --csv <base>, --json <file>; --trace-dir <dir> writes one
// Chrome-trace/Perfetto trace_<cell>.json per traced cell (implies
// trace=full on cells still at the default, as does --profile, which
// prints a per-phase self-time table at sweep end).  --threads attaches a
// worker pool; --jobs N runs independent sweep cells concurrently
// (artifact row order stays deterministic — cells are replayed through
// the emitters in spec order; traced cells force jobs=1); --dry-run
// prints the grid in exactly the order the cells would execute.

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "figure_harness.hpp"

namespace {

std::vector<std::string> split_list(const std::string& csv,
                                    char separator = ',') {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, separator)) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

void print_registries() {
  std::cout << "aggregation rules (make_rule):\n ";
  for (const auto& name : bcl::all_rule_names()) std::cout << " " << name;
  std::cout << "\n  extended baselines:";
  for (const auto& name : bcl::extended_rule_names()) {
    std::cout << " " << name;
  }
  std::cout << "\n  parameterized: MULTIKRUM-<q>\n\n";
  // Rendered from the registry's own validation table so this menu can
  // never go stale against make_attack.
  std::cout << "attacks (make_attack, grammar name[:key=value,...]):\n ";
  for (const auto& [family, params] : bcl::attack_parameter_table()) {
    std::cout << " " << family;
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::cout << (i == 0 ? ":" : ",") << params[i] << "=<v>";
    }
  }
  std::cout << "\n\ncodecs (make_codec, grammar name[:key=value,...]):\n ";
  for (const auto& [family, params] : bcl::codec_parameter_table()) {
    std::cout << " " << family;
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::cout << (i == 0 ? ":" : ",") << params[i] << "=<v>";
    }
  }
  std::cout << "\n\nscenario keys (--scenario \"key=value ...\"):\n ";
  for (const auto& key : bcl::experiments::scenario_keys()) {
    std::cout << " " << key;
  }
  std::cout << "\n\nnetwork models (net=sync | net=async:key=value,...):\n ";
  for (const auto& key : bcl::net_config_keys()) std::cout << " " << key;
  std::cout << "\n  delay families:";
  for (const auto& family : bcl::delay_family_names()) {
    std::cout << " " << family;
  }
  std::cout << "\n\nfault plans (faults=name[:key=value,...]):\n ";
  for (const auto& [family, params] : bcl::fault_parameter_table()) {
    std::cout << " " << family;
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::cout << (i == 0 ? ":" : ",") << params[i] << "=<v>";
    }
  }
  std::cout << "\n\nbounded staleness (stale=none | stale=<tau>[,key=...]):"
               "\n  keys:";
  for (const auto& key : bcl::stale_config_keys()) std::cout << " " << key;
  std::cout << "\n\ncohort subsampling (cohort=none | "
               "cohort=<frac>[,key=...]):\n  keys:";
  for (const auto& key : bcl::cohort_config_keys()) std::cout << " " << key;
  std::cout << "\n\nSee docs/scenarios.md for the full reference.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bcl;
  using experiments::ScenarioSpec;
  // Everything runs inside the try, flag parsing included, so a bad
  // command line prints one "bcl_run: ..." line and exits 1.
  try {
    const CliArgs args(argc, argv,
                       {"list", "scenario", "rules", "attacks", "topologies",
                        "hets", "fs", "nets", "comps", "faults", "n", "t",
                        "model", "full", "rounds", "batch", "lr",
                        "subrounds", "delay", "net", "comp", "stale",
                        "cohort", "seed", "eval-max", "csv", "json",
                        "threads", "jobs", "dry-run", "trace", "trace-dir",
                        "profile"});
    if (args.get_bool("list", false)) {
      print_registries();
      return 0;
    }

    // Shared scalar overrides, applied to every spec of the sweep through
    // the spec grammar's own strict validation (flag name == spec key).
    const std::vector<std::string> scalar_keys = {
        "n",  "t",     "model",     "rounds", "batch",    "lr",
        "subrounds", "delay", "net", "comp", "stale", "cohort", "seed",
        "eval-max", "trace"};
    const std::size_t threads = bench::thread_count(args);

    std::vector<ScenarioSpec> specs;
    if (args.has("scenario")) {
      // A single fully spelled-out scenario and the sweep axes are
      // mutually exclusive: dropping user-provided axes silently would
      // contradict the CLI's fail-loudly design.
      for (const char* axis :
           {"rules", "attacks", "topologies", "hets", "fs", "nets",
            "comps", "faults"}) {
        if (args.has(axis)) {
          throw std::invalid_argument(
              std::string("--scenario cannot be combined with the sweep "
                          "axis --") +
              axis + " (put the value in the scenario string instead)");
        }
      }
      // Scalar flags are applied after the scenario string so they win,
      // exactly as in sweep mode and the bench harnesses.
      ScenarioSpec spec;
      spec.apply(args.get_string("scenario", ""));
      bench::apply_scalar_flags(args, scalar_keys, spec);
      specs.push_back(spec);
    } else {
      experiments::SweepAxes axes;
      axes.rules = split_list(args.get_string("rules", "BOX-GEOM"));
      axes.attacks = split_list(args.get_string("attacks", "sign-flip"));
      axes.topologies =
          split_list(args.get_string("topologies", "centralized"));
      axes.hets = split_list(args.get_string("hets", "mild"));
      axes.fs = split_list(args.get_string("fs", "1"));
      // NetConfig and codec values embed commas ("async:delay=exp,mean=5"),
      // so those axes are ';'-separated.  A scalar override (--net/--comp)
      // is applied after the axis values and would silently collapse its
      // sweep axis — fail loudly instead, like --scenario with any axis.
      if (args.has("nets") && args.has("net")) {
        throw std::invalid_argument(
            "--nets cannot be combined with the scalar override --net "
            "(every cell would end up with the --net value)");
      }
      if (args.has("comps") && args.has("comp")) {
        throw std::invalid_argument(
            "--comps cannot be combined with the scalar override --comp "
            "(every cell would end up with the --comp value)");
      }
      axes.nets = split_list(args.get_string("nets", "sync"), ';');
      axes.comps = split_list(args.get_string("comps", "identity"), ';');
      // Fault grammar values embed commas too ("churn:leave=0.2,cap=0.3"),
      // so --faults is ';'-separated like --nets/--comps.
      axes.faults = split_list(args.get_string("faults", "none"), ';');
      specs = experiments::expand_sweep(axes, [&](ScenarioSpec& spec) {
        bench::apply_scalar_flags(args, scalar_keys, spec);
      });
    }

    // Fail fast on unknown rule/attack names (with the registry menus in
    // the message) before any dataset is generated — and before a
    // --dry-run preview, so the printed grid is one that can actually
    // execute (net=/comp= already validated eagerly in set()).
    for (const auto& spec : specs) {
      make_rule(spec.rule);
      make_attack(spec.attack);
    }

    // The expanded grid, one canonical spec string per line, in exactly
    // the order the cells would execute (expand_sweep order == run_all
    // order) — then stop before any dataset is generated.
    if (args.get_bool("dry-run", false)) {
      for (const auto& spec : specs) std::cout << spec.to_string() << "\n";
      return 0;
    }

    std::cout << "=== bcl_run: " << specs.size()
              << " scenario(s) ===\n\n";
    ThreadPool pool(threads);
    experiments::ScenarioRunner runner(&pool);
    bench::EmitterSet emitters(std::cout, args, "bcl_run",
                               "BENCH_scenarios.json");
    const std::size_t jobs =
        static_cast<std::size_t>(std::max(1LL, args.get_int("jobs", 1)));
    runner.run_all(specs, emitters.pointers, jobs);
    emitters.report(std::cout);
  } catch (const std::exception& error) {
    std::cerr << "bcl_run: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
