// Centralized collaborative learning on the synthetic MNIST-like dataset
// (the Figure 1 / Figure 2a pipeline): 10 clients, configurable attack,
// heterogeneity and aggregation rule.
//
//   ./examples/centralized_training --rule BOX-GEOM --attack sign-flip \
//       --byzantine 1 --heterogeneity mild --rounds 30

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
  const std::size_t image = args.get_count("image", 14);
  ThreadPool pool(args.get_count("threads", 0));

  ml::SyntheticSpec spec = ml::SyntheticSpec::mnist_like(
      static_cast<std::uint64_t>(args.get_int("seed", 42)));
  spec.height = image;
  spec.width = image;
  spec.train_per_class = 120;
  spec.test_per_class = 30;
  const auto data = ml::make_synthetic_dataset(spec);
  const std::size_t dim = data.train.feature_dim();

  TrainingConfig cfg;
  cfg.num_clients = 10;
  cfg.num_byzantine = args.get_count("byzantine", 1);
  cfg.rounds = args.get_count("rounds", 30);
  cfg.batch_size = args.get_count("batch", 32);
  cfg.rule = make_rule(rule);
  cfg.attack = make_attack(attack);
  cfg.schedule = ml::LearningRateSchedule::paper_default(cfg.rounds);
  // The paper's eta = 0.01 is tuned for TensorFlow-scale runs; a slightly
  // larger constant works better at this reduced scale.
  cfg.schedule = ml::LearningRateSchedule(0.05, 0.05 / cfg.rounds);
  cfg.heterogeneity =
      ml::parse_heterogeneity(args.get_string("heterogeneity", "mild"));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.pool = &pool;

  std::cout << "Centralized collaborative learning: rule=" << rule
            << " attack=" << attack << " f=" << cfg.num_byzantine
            << " heterogeneity="
            << ml::heterogeneity_name(cfg.heterogeneity) << "\n"
            << "model=MLP(" << dim << "-32-16-10), clients=10, rounds="
            << cfg.rounds << "\n\n";

  ModelFactory factory = [dim] { return ml::make_mlp(dim, 32, 16, 10); };
  CentralizedTrainer trainer(cfg, factory, &data.train, &data.test);
  const auto result = trainer.run();

  Table table({"round", "accuracy", "honest loss", "lr"});
  for (const auto& metrics : result.history) {
    if (metrics.round % 5 == 0 || metrics.round + 1 == cfg.rounds) {
      table.new_row()
          .add_int(static_cast<long long>(metrics.round))
          .add_num(metrics.accuracy, 4)
          .add_num(metrics.mean_honest_loss, 4)
          .add_num(metrics.learning_rate, 5);
    }
  }
  table.print(std::cout);
  std::cout << "\nBest accuracy: " << format_double(result.best_accuracy(), 4)
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flag parsing runs inside the try too, so a bad command line prints one
  // "centralized_training: ..." line and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "centralized_training: " << error.what() << "\n";
    return 1;
  }
}
