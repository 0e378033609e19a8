// Agreement-convergence table (Theorem 4.4 and Lemma 4.2).
//
// Part 1: per-round E_max of the honest bounding box for BOX-GEOM and
// BOX-MEAN under three adversaries, against the theoretical halving curve
// E_max / 2^r.  Part 2: rounds-to-epsilon versus the log2 bound.  Part 3:
// the Lemma 4.2 split-world execution where MD-GEOM (with sticky
// tie-breaking) never converges while BOX-GEOM halves every round.
//
//   ./bench/bench_table_agreement_convergence [--dim D] [--rounds R]
//       [--seed S] [--csv file]

#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/bcl.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace bcl;
  const CliArgs args(argc, argv, {"dim", "rounds", "seed", "csv"});
  const std::size_t d = args.get_count("dim", 3);
  const std::size_t rounds = args.get_count("rounds", 10);
  Rng root(static_cast<std::uint64_t>(args.get_int("seed", 23)));

  const std::size_t n = 10;
  const std::size_t t = 2;

  VectorList inputs;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(d);
    for (auto& x : v) x = root.uniform(-5.0, 5.0);
    inputs.push_back(v);
  }
  std::vector<std::size_t> byz{n - 2, n - 1};

  auto make_adversary = [&](const std::string& name)
      -> std::unique_ptr<Adversary> {
    if (name == "sign-flip") {
      return std::make_unique<SignFlipAdversary>(byz);
    }
    if (name == "crash") {
      return std::make_unique<CrashAdversary>(
          byz, 1, VectorList{inputs[n - 2], inputs[n - 1]});
    }
    return std::make_unique<SplitWorldAdversary>(
        std::vector<std::size_t>{0, 1, 2, 3},
        std::vector<std::size_t>{4, 5, 6, 7},
        std::vector<std::size_t>{8}, std::vector<std::size_t>{9});
  };

  std::cout << "=== Part 1: E_max per round (Theorem 4.4: halves each "
               "round), n=10, t=2, d=" << d << " ===\n\n";
  Table emax_table({"adversary", "rule", "round", "E_max",
                    "halving bound"});
  for (const std::string adv_name : {"sign-flip", "crash", "split-world"}) {
    for (const std::string rule : {"BOX-GEOM", "BOX-MEAN"}) {
      auto adversary = make_adversary(adv_name);
      AgreementConfig cfg;
      cfg.n = n;
      cfg.t = t;
      cfg.rule = make_rule(rule);
      cfg.epsilon = 0.0;
      const auto result =
          run_fixed_rounds_agreement(GradientBatch::from(inputs), *adversary,
                                     rounds, cfg);
      const double e0 = result.trace.honest_max_edge.front();
      for (std::size_t r = 0; r < result.trace.honest_max_edge.size(); ++r) {
        emax_table.new_row()
            .add(adv_name)
            .add(rule)
            .add_int(static_cast<long long>(r))
            .add_num(result.trace.honest_max_edge[r], 6)
            .add_num(e0 / std::pow(2.0, static_cast<double>(r)), 6);
      }
    }
  }
  emax_table.print(std::cout);

  std::cout << "\n=== Part 2: rounds to epsilon-agreement vs the log2 "
               "bound ===\n\n";
  Table eps_table({"epsilon", "rounds (BOX-GEOM)", "log2 bound"});
  for (const double eps : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5}) {
    SignFlipAdversary adversary(byz);
    AgreementConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.rule = make_rule("BOX-GEOM");
    cfg.epsilon = eps;
    cfg.max_rounds = 200;
    const auto result = run_approximate_agreement(GradientBatch::from(inputs),
                                                  adversary, cfg);
    const double d0 = result.trace.honest_diameter.front();
    eps_table.new_row()
        .add(format_double(eps, 6))
        .add_int(static_cast<long long>(result.rounds))
        .add_num(std::log2(std::sqrt(static_cast<double>(d)) * d0 / eps) +
                     1.0,
                 2);
  }
  eps_table.print(std::cout);

  std::cout << "\n=== Part 3: Lemma 4.2 split-world execution ===\n\n";
  {
    VectorList split_inputs(n, zeros(d));
    for (std::size_t i = 4; i < 8; ++i) split_inputs[i] = constant(d, 1.0);
    Table stuck({"round", "MD-GEOM diameter", "BOX-GEOM diameter"});
    SplitWorldAdversary adv_md({0, 1, 2, 3}, {4, 5, 6, 7}, {8}, {9});
    SplitWorldAdversary adv_box({0, 1, 2, 3}, {4, 5, 6, 7}, {8}, {9});
    AgreementConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.epsilon = 0.0;
    cfg.rule = std::make_shared<StickyMinDiameterGeoRule>();
    const auto md =
        run_fixed_rounds_agreement(GradientBatch::from(split_inputs), adv_md,
                                   rounds, cfg);
    cfg.rule = make_rule("BOX-GEOM");
    const auto box =
        run_fixed_rounds_agreement(GradientBatch::from(split_inputs), adv_box,
                                   rounds, cfg);
    for (std::size_t r = 0; r < md.trace.honest_diameter.size(); ++r) {
      stuck.new_row()
          .add_int(static_cast<long long>(r))
          .add_num(md.trace.honest_diameter[r], 6)
          .add_num(box.trace.honest_diameter[r], 6);
    }
    stuck.print(std::cout);
    std::cout << "\nMD-GEOM's diameter is constant (no convergence, "
                 "Lemma 4.2); BOX-GEOM's halves every round "
                 "(Theorem 4.4).\n";
  }
  if (args.has("csv")) {
    emax_table.write_csv(args.get_string("csv", "table_convergence.csv"));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flag parsing runs inside the try too, so a bad command line prints one
  // "bench_table_agreement_convergence: ..." line and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "bench_table_agreement_convergence: " << error.what()
              << "\n";
    return 1;
  }
}
