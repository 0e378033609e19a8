// Tests for src/learning: client gradient sampling, config validation,
// the sub-round schedule, and short centralized / decentralized training
// runs (fast, reduced-scale configurations).

#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/registry.hpp"
#include "attacks/registry.hpp"
#include "learning/centralized.hpp"
#include "learning/client.hpp"
#include "learning/config.hpp"
#include "learning/decentralized.hpp"
#include "ml/architectures.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

ml::SyntheticSpec tiny_spec(std::uint64_t seed) {
  ml::SyntheticSpec spec = ml::SyntheticSpec::mnist_small(seed);
  spec.height = 8;
  spec.width = 8;
  spec.train_per_class = 40;
  spec.test_per_class = 15;
  return spec;
}

ModelFactory tiny_mlp_factory(std::size_t input_dim) {
  return [input_dim] { return ml::make_mlp(input_dim, 16, 8, 10); };
}

TrainingConfig base_config(const std::string& rule,
                           const std::string& attack) {
  TrainingConfig cfg;
  cfg.num_clients = 10;
  cfg.num_byzantine = 1;
  cfg.rounds = 8;
  cfg.batch_size = 16;
  cfg.rule = make_rule(rule);
  cfg.attack = make_attack(attack);
  // Larger constant rate than the paper's 0.01: the reduced-scale test
  // task needs to learn within a handful of rounds.
  cfg.schedule = ml::LearningRateSchedule(0.5, 0.0);
  cfg.heterogeneity = ml::Heterogeneity::Mild;
  cfg.seed = 5;
  return cfg;
}

// --- client-side computation ---

TEST(Client, GradientHasModelDimension) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(1));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  ml::Model probe = factory();
  Rng init(2);
  probe.initialize(init);
  ml::Model scratch = factory();
  const std::vector<std::size_t> shard{0, 1, 2, 3, 4};
  Rng rng(1);
  Vector gradient(probe.parameter_count(), 0.0);
  const double loss = stochastic_gradient_with(
      scratch, data.train, shard, 4, rng, probe.parameters(), gradient.data());
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(norm2(gradient), 0.0);
}

TEST(Client, DeterministicGivenSameRng) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(2));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  ml::Model probe = factory();
  Rng init(3);
  probe.initialize(init);
  const std::vector<std::size_t> shard{0, 1, 2, 3, 4, 5};
  // Two distinct scratch replicas: which one computes never matters.
  ml::Model scratch_a = factory();
  ml::Model scratch_b = factory();
  Rng rng_a(7);
  Rng rng_b(7);
  Vector a(probe.parameter_count(), 0.0);
  Vector b(probe.parameter_count(), 0.0);
  stochastic_gradient_with(scratch_a, data.train, shard, 4, rng_a,
                           probe.parameters(), a.data());
  stochastic_gradient_with(scratch_b, data.train, shard, 4, rng_b,
                           probe.parameters(), b.data());
  EXPECT_EQ(a, b);
}

TEST(Client, EmptyShardThrows) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(3));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  ml::Model scratch = factory();
  Rng init(1);
  scratch.initialize(init);
  const Vector parameters = scratch.parameters();
  Vector gradient(parameters.size(), 0.0);
  Rng rng(1);
  EXPECT_THROW(stochastic_gradient_with(scratch, data.train, {}, 4, rng,
                                        parameters, gradient.data()),
               std::invalid_argument);
}

TEST(Client, EvaluateReturnsFraction) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(4));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  ml::Model probe = factory();
  Rng init(4);
  probe.initialize(init);
  ml::Model scratch = factory();
  const double acc =
      evaluate_with(scratch, probe.parameters(), data.test, 50);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

// More clients than training examples leaves some partition shards empty;
// those clients sample the whole training set instead, in both trainers.
TEST(Client, EmptyShardsSampleTheWholeTrainingSet) {
  ml::SyntheticSpec spec = tiny_spec(9);
  spec.train_per_class = 2;  // 20 training examples for 30 clients
  const auto data = ml::make_synthetic_dataset(spec);
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  TrainingConfig cfg = base_config("MEAN", "sign-flip");
  cfg.num_clients = 30;
  cfg.rounds = 2;
  const auto centralized =
      CentralizedTrainer(cfg, factory, &data.train, &data.test).run();
  const auto decentralized =
      DecentralizedTrainer(cfg, factory, &data.train, &data.test).run();
  for (const auto* result : {&centralized, &decentralized}) {
    ASSERT_EQ(result->history.size(), 2u);
    for (const RoundMetrics& m : result->history) {
      EXPECT_TRUE(std::isfinite(m.mean_honest_loss));
    }
  }
}

// --- config validation ---

TEST(Config, ValidatesTolerance) {
  TrainingConfig cfg = base_config("MEAN", "none");
  cfg.num_byzantine = 4;  // 3t >= n
  EXPECT_THROW(validate_config(cfg), std::invalid_argument);
}

TEST(Config, RequiresRuleAndAttack) {
  TrainingConfig cfg = base_config("MEAN", "none");
  cfg.rule = nullptr;
  EXPECT_THROW(validate_config(cfg), std::invalid_argument);
  cfg = base_config("MEAN", "none");
  cfg.attack = nullptr;
  EXPECT_THROW(validate_config(cfg), std::invalid_argument);
}

TEST(Config, ResolvedToleranceIsMaxOfBoth) {
  TrainingConfig cfg = base_config("MEAN", "none");
  cfg.num_byzantine = 1;
  cfg.tolerance = 2;
  EXPECT_EQ(cfg.resolved_t(), 2u);
  cfg.tolerance = 0;
  EXPECT_EQ(cfg.resolved_t(), 1u);
}

TEST(Config, BestAccuracyScansHistory) {
  TrainingResult result;
  result.history.push_back({0, 0.3, 0.3, 0.3, 1.0, 0.01, 0.0});
  result.history.push_back({1, 0.7, 0.7, 0.7, 0.5, 0.01, 0.0});
  result.history.push_back({2, 0.5, 0.5, 0.5, 0.6, 0.01, 0.0});
  EXPECT_DOUBLE_EQ(result.best_accuracy(), 0.7);
}

// --- sub-round schedule ---

TEST(Subrounds, LogarithmicSchedule) {
  EXPECT_EQ(agreement_subrounds(0), 1u);   // ceil(log2(2)) = 1
  EXPECT_EQ(agreement_subrounds(1), 2u);   // ceil(log2(3)) = 2
  EXPECT_EQ(agreement_subrounds(2), 2u);   // ceil(log2(4)) = 2
  EXPECT_EQ(agreement_subrounds(6), 3u);   // ceil(log2(8)) = 3
  EXPECT_EQ(agreement_subrounds(14), 4u);  // ceil(log2(16)) = 4
  EXPECT_EQ(agreement_subrounds(1000), 10u);
}

// --- centralized training ---

TEST(Centralized, LearnsWithoutFaults) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(5));
  TrainingConfig cfg = base_config("MEAN", "none");
  cfg.num_byzantine = 0;
  cfg.rounds = 60;
  CentralizedTrainer trainer(cfg, tiny_mlp_factory(data.train.feature_dim()),
                             &data.train, &data.test);
  const auto result = trainer.run();
  ASSERT_EQ(result.history.size(), 60u);
  EXPECT_GT(result.best_accuracy(), 0.5);
  // Accuracy at the end beats the start (learning happened).
  EXPECT_GT(result.history.back().accuracy,
            result.history.front().accuracy);
}

TEST(Centralized, DeterministicGivenSeed) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(6));
  auto run_once = [&] {
    TrainingConfig cfg = base_config("BOX-GEOM", "sign-flip");
    cfg.rounds = 3;
    CentralizedTrainer trainer(cfg,
                               tiny_mlp_factory(data.train.feature_dim()),
                               &data.train, &data.test);
    return trainer.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.history[r].accuracy, b.history[r].accuracy);
    EXPECT_DOUBLE_EQ(a.history[r].mean_honest_loss,
                     b.history[r].mean_honest_loss);
  }
}

TEST(Centralized, ParallelPoolMatchesSerial) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(7));
  ThreadPool pool(3);
  auto run_with = [&](ThreadPool* p) {
    TrainingConfig cfg = base_config("BOX-MEAN", "sign-flip");
    cfg.rounds = 3;
    cfg.pool = p;
    CentralizedTrainer trainer(cfg,
                               tiny_mlp_factory(data.train.feature_dim()),
                               &data.train, &data.test);
    return trainer.run();
  };
  const auto serial = run_with(nullptr);
  const auto parallel = run_with(&pool);
  for (std::size_t r = 0; r < serial.history.size(); ++r) {
    EXPECT_DOUBLE_EQ(serial.history[r].accuracy,
                     parallel.history[r].accuracy);
  }
}

TEST(Centralized, RobustRuleSurvivesSignFlip) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(8));
  TrainingConfig cfg = base_config("BOX-GEOM", "sign-flip");
  cfg.rounds = 60;
  CentralizedTrainer trainer(cfg, tiny_mlp_factory(data.train.feature_dim()),
                             &data.train, &data.test);
  const auto result = trainer.run();
  EXPECT_GT(result.best_accuracy(), 0.5);
}

TEST(Centralized, CrashFaultsTolerated) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(9));
  TrainingConfig cfg = base_config("MD-GEOM", "crash");
  cfg.rounds = 50;
  CentralizedTrainer trainer(cfg, tiny_mlp_factory(data.train.feature_dim()),
                             &data.train, &data.test);
  const auto result = trainer.run();
  EXPECT_GT(result.best_accuracy(), 0.5);
}

// --- decentralized training ---

TEST(Decentralized, LearnsWithoutFaults) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(10));
  TrainingConfig cfg = base_config("BOX-GEOM", "none");
  cfg.num_byzantine = 0;
  cfg.tolerance = 1;
  cfg.rounds = 40;
  DecentralizedTrainer trainer(cfg,
                               tiny_mlp_factory(data.train.feature_dim()),
                               &data.train, &data.test);
  const auto result = trainer.run();
  ASSERT_EQ(result.history.size(), 40u);
  EXPECT_GT(result.best_accuracy(), 0.4);
}

TEST(Decentralized, ReportsAccuracySpreadAndDisagreement) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(11));
  TrainingConfig cfg = base_config("BOX-GEOM", "sign-flip");
  cfg.rounds = 4;
  DecentralizedTrainer trainer(cfg,
                               tiny_mlp_factory(data.train.feature_dim()),
                               &data.train, &data.test);
  const auto result = trainer.run();
  for (const auto& metrics : result.history) {
    EXPECT_LE(metrics.accuracy_min, metrics.accuracy + 1e-12);
    EXPECT_GE(metrics.accuracy_max, metrics.accuracy - 1e-12);
    EXPECT_GE(metrics.disagreement, 0.0);
    EXPECT_TRUE(std::isfinite(metrics.disagreement));
  }
}

TEST(Decentralized, HonestParametersStayClose) {
  // The agreement subroutine keeps honest gradients (and hence parameters
  // after identical init) close across clients.
  const auto data = ml::make_synthetic_dataset(tiny_spec(12));
  TrainingConfig cfg = base_config("BOX-GEOM", "sign-flip");
  cfg.rounds = 6;
  DecentralizedTrainer trainer(cfg,
                               tiny_mlp_factory(data.train.feature_dim()),
                               &data.train, &data.test);
  trainer.run();
  const auto& params = trainer.honest_parameters();
  ASSERT_EQ(params.size(), 9u);
  // Parameter disagreement bounded by the sum of per-round gradient
  // disagreements times the learning rate; just assert it is small
  // relative to the parameter scale.
  EXPECT_LT(diameter(params), 0.5 * (1.0 + norm2(params[0])));
}

TEST(Decentralized, DeterministicGivenSeed) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(13));
  auto run_once = [&] {
    TrainingConfig cfg = base_config("MD-GEOM", "sign-flip");
    cfg.rounds = 3;
    DecentralizedTrainer trainer(cfg,
                                 tiny_mlp_factory(data.train.feature_dim()),
                                 &data.train, &data.test);
    return trainer.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.history[r].accuracy, b.history[r].accuracy);
  }
}

}  // namespace
}  // namespace bcl
