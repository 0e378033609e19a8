// Approximate-agreement demo: runs the hyperbox protocol (Algorithm 2) and
// the MD-GEOM protocol (Algorithm 1) against two adversaries and prints the
// per-round honest diameter, showing Theorem 4.4's halving and Lemma 4.2's
// non-convergence side by side.
//
//   ./examples/agreement_demo [--nodes 10] [--byzantine 2] [--dim 3]
//                             [--rounds 10] [--seed 1]

#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/bcl.hpp"

namespace {

int demo(int argc, char** argv) {
  using namespace bcl;
  const CliArgs args(argc, argv,
                     {"nodes", "byzantine", "dim", "rounds", "seed"});
  const std::size_t n = args.get_count("nodes", 10);
  const std::size_t t = args.get_count("byzantine", 2);
  const std::size_t d = args.get_count("dim", 3);
  const std::size_t rounds = args.get_count("rounds", 10);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  if (3 * t >= n) throw std::invalid_argument("need t < n/3");

  // Random honest inputs; Byzantine ids are the last t.
  VectorList inputs;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(d);
    for (auto& x : v) x = rng.uniform(-5.0, 5.0);
    inputs.push_back(v);
  }
  std::vector<std::size_t> byz_ids;
  for (std::size_t i = n - t; i < n; ++i) byz_ids.push_back(i);

  // MD-GEOM-STICKY breaks minimum-diameter ties toward the node's own
  // vector; it is built directly because only agreement can run it.
  const AggregationRulePtr box_geom = make_rule("BOX-GEOM");
  const AggregationRulePtr md_geom_sticky =
      std::make_shared<StickyMinDiameterGeoRule>();

  auto run = [&](const AggregationRulePtr& rule, Adversary& adversary) {
    AgreementConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.rule = rule;
    cfg.epsilon = 0.0;  // run all rounds; we want the full trace
    return run_fixed_rounds_agreement(GradientBatch::from(inputs), adversary,
                                      rounds, cfg);
  };

  std::cout << "=== BOX-GEOM vs MD-GEOM under a sign-flip adversary ===\n";
  {
    SignFlipAdversary adv_a(byz_ids);
    SignFlipAdversary adv_b(byz_ids);
    const auto box = run(box_geom, adv_a);
    const auto md = run(md_geom_sticky, adv_b);
    Table table({"round", "BOX-GEOM diameter", "MD-GEOM diameter"});
    for (std::size_t r = 0; r < box.trace.honest_diameter.size(); ++r) {
      table.new_row()
          .add_int(static_cast<long long>(r))
          .add_num(box.trace.honest_diameter[r], 6)
          .add_num(md.trace.honest_diameter[r], 6);
    }
    table.print(std::cout);
  }

  std::cout << "\n=== Lemma 4.2: split-world adversary (n = 10, t = 2) ===\n";
  {
    // Two camps of 4 honest nodes; one Byzantine supporter per camp.
    VectorList split_inputs(10, constant(d, 0.0));
    for (std::size_t i = 4; i < 8; ++i) split_inputs[i] = constant(d, 1.0);
    SplitWorldAdversary adv_a({0, 1, 2, 3}, {4, 5, 6, 7}, {8}, {9});
    SplitWorldAdversary adv_b({0, 1, 2, 3}, {4, 5, 6, 7}, {8}, {9});
    AgreementConfig cfg;
    cfg.n = 10;
    cfg.t = 2;
    cfg.epsilon = 0.0;
    cfg.rule = box_geom;
    const GradientBatch split = GradientBatch::from(split_inputs);
    const auto box = run_fixed_rounds_agreement(split, adv_a, rounds, cfg);
    cfg.rule = md_geom_sticky;
    const auto md = run_fixed_rounds_agreement(split, adv_b, rounds, cfg);
    Table table({"round", "BOX-GEOM diameter", "MD-GEOM diameter (stuck)"});
    for (std::size_t r = 0; r < box.trace.honest_diameter.size(); ++r) {
      table.new_row()
          .add_int(static_cast<long long>(r))
          .add_num(box.trace.honest_diameter[r], 6)
          .add_num(md.trace.honest_diameter[r], 6);
    }
    table.print(std::cout);
    std::cout << "\nBOX-GEOM halves the diameter every round (Theorem 4.4);\n"
                 "MD-GEOM never leaves the initial configuration (Lemma 4.2).\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flag parsing runs inside the try too, so a bad command line prints one
  // "agreement_demo: ..." line and exits 1.
  try {
    return demo(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "agreement_demo: " << error.what() << "\n";
    return 1;
  }
}
