// Decentralized collaborative learning (the Figure 3 pipeline): no server,
// gradients agreed on via the approximate-agreement subroutine with
// ceil(log2(T + 2)) sub-rounds in learning iteration T.
//
//   ./examples/decentralized_training --rule BOX-GEOM --attack sign-flip \
//       --byzantine 1 --rounds 20

#include <exception>
#include <iostream>

#include "core/bcl.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace bcl;
  const CliArgs args(argc, argv,
                     {"rule", "attack", "byzantine", "heterogeneity",
                      "rounds", "seed", "batch", "image", "threads"});

  const std::string rule = args.get_string("rule", "BOX-GEOM");
  const std::string attack = args.get_string("attack", "sign-flip");
  const std::size_t image = args.get_count("image", 10);
  ThreadPool pool(args.get_count("threads", 0));

  ml::SyntheticSpec spec = ml::SyntheticSpec::mnist_like(
      static_cast<std::uint64_t>(args.get_int("seed", 42)));
  spec.height = image;
  spec.width = image;
  spec.train_per_class = 80;
  spec.test_per_class = 25;
  const auto data = ml::make_synthetic_dataset(spec);
  const std::size_t dim = data.train.feature_dim();

  TrainingConfig cfg;
  cfg.num_clients = 10;
  cfg.num_byzantine = args.get_count("byzantine", 1);
  cfg.rounds = args.get_count("rounds", 20);
  cfg.batch_size = args.get_count("batch", 16);
  cfg.rule = make_rule(rule);
  cfg.attack = make_attack(attack);
  cfg.schedule = ml::LearningRateSchedule(0.05, 0.05 / cfg.rounds);
  cfg.heterogeneity =
      ml::parse_heterogeneity(args.get_string("heterogeneity", "mild"));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.pool = &pool;

  std::cout << "Decentralized collaborative learning: rule=" << rule
            << " attack=" << attack << " f=" << cfg.num_byzantine << "\n"
            << "agreement sub-rounds per iteration t: ceil(log2(t+2))\n\n";

  ModelFactory factory = [dim] { return ml::make_mlp(dim, 16, 8, 10); };
  DecentralizedTrainer trainer(cfg, factory, &data.train, &data.test);
  const auto result = trainer.run();

  Table table({"round", "mean acc", "min acc", "max acc", "disagreement"});
  for (const auto& metrics : result.history) {
    table.new_row()
        .add_int(static_cast<long long>(metrics.round))
        .add_num(metrics.accuracy, 4)
        .add_num(metrics.accuracy_min, 4)
        .add_num(metrics.accuracy_max, 4)
        .add_num(metrics.disagreement, 5);
  }
  table.print(std::cout);
  std::cout << "\nBest mean accuracy: "
            << format_double(result.best_accuracy(), 4) << "\n"
            << "The 'disagreement' column is the post-agreement diameter of\n"
               "the honest gradient vectors in that learning round.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flag parsing runs inside the try too, so a bad command line prints one
  // "decentralized_training: ..." line and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "decentralized_training: " << error.what() << "\n";
    return 1;
  }
}
