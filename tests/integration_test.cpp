// End-to-end integration tests: full collaborative-learning runs at reduced
// scale reproducing the qualitative shapes of the paper's evaluation
// (Section 5), plus cross-module interactions that unit tests cannot see.

#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/registry.hpp"
#include "attacks/attack.hpp"
#include "attacks/registry.hpp"
#include "learning/centralized.hpp"
#include "learning/decentralized.hpp"
#include "ml/architectures.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

struct Scenario {
  ml::TrainTestSplit data;
  ModelFactory factory;
};

Scenario make_scenario(std::uint64_t seed) {
  ml::SyntheticSpec spec = ml::SyntheticSpec::mnist_small(seed);
  spec.height = 10;
  spec.width = 10;
  spec.train_per_class = 60;
  spec.test_per_class = 20;
  Scenario s{ml::make_synthetic_dataset(spec), nullptr};
  const std::size_t dim = s.data.train.feature_dim();
  s.factory = [dim] { return ml::make_mlp(dim, 16, 8, 10); };
  return s;
}

TrainingConfig config_for(const std::string& rule, const std::string& attack,
                          std::size_t f, ml::Heterogeneity heterogeneity,
                          std::size_t rounds) {
  TrainingConfig cfg;
  cfg.num_clients = 10;
  cfg.num_byzantine = f;
  cfg.rounds = rounds;
  cfg.batch_size = 16;
  cfg.rule = make_rule(rule);
  cfg.attack = make_attack(attack);
  cfg.schedule = ml::LearningRateSchedule(0.25, 0.25 / 50.0);
  cfg.heterogeneity = heterogeneity;
  cfg.seed = 11;
  return cfg;
}

double centralized_accuracy(const Scenario& s, const std::string& rule,
                            const std::string& attack, std::size_t f,
                            ml::Heterogeneity h, std::size_t rounds = 50) {
  CentralizedTrainer trainer(config_for(rule, attack, f, h, rounds),
                             s.factory, &s.data.train, &s.data.test);
  return trainer.run().best_accuracy();
}

// Figure 1 shape: with f = 1 sign flip and mild heterogeneity, all four
// agreement-based rules reach useful accuracy.
TEST(FigureShapes, Fig1MildHeterogeneityAllRobustRulesLearn) {
  const Scenario s = make_scenario(100);
  for (const char* rule : {"MD-MEAN", "MD-GEOM", "BOX-MEAN", "BOX-GEOM"}) {
    const double acc = centralized_accuracy(s, rule, "sign-flip", 1,
                                            ml::Heterogeneity::Mild);
    EXPECT_GT(acc, 0.5) << rule;
  }
}

// Figure 1 shape: Krum relies on single-point selection and degrades under
// extreme heterogeneity relative to the box rules.
TEST(FigureShapes, Fig1ExtremeHeterogeneityHurtsKrum) {
  const Scenario s = make_scenario(101);
  const double krum = centralized_accuracy(s, "KRUM", "sign-flip", 1,
                                           ml::Heterogeneity::Extreme, 50);
  const double box_geom = centralized_accuracy(
      s, "BOX-GEOM", "sign-flip", 1, ml::Heterogeneity::Extreme, 50);
  // Krum picks a single client's gradient; with <= 2 classes per client it
  // cannot represent the joint distribution.
  EXPECT_GT(box_geom, krum - 0.05);
  EXPECT_LT(krum, 0.75);
}

// Figure 2a shape: f = 2 sign flips on extreme heterogeneity — the plain
// mean collapses while BOX-GEOM stays useful.
TEST(FigureShapes, Fig2aTwoByzantineExtreme) {
  // This is the hardest paper setting (the paper itself reports unstable
  // curves and ~57% after many rounds); the shape to check is that the
  // box rule reaches useful accuracy at some point while the plain mean
  // never leaves chance level.
  const Scenario s = make_scenario(102);
  const double mean_acc = centralized_accuracy(
      s, "MEAN", "sign-flip", 2, ml::Heterogeneity::Extreme, 60);
  const double box_geom = centralized_accuracy(
      s, "BOX-GEOM", "sign-flip", 2, ml::Heterogeneity::Extreme, 150);
  EXPECT_GT(box_geom, 0.3);
  EXPECT_LT(mean_acc, 0.3);
  EXPECT_GT(box_geom, mean_acc);
}

// Figure 3 shape: decentralized, mean-based aggregation under sign flip
// fails while geometric-median-based BOX-GEOM converges (the paper's
// headline empirical claim).
TEST(FigureShapes, Fig3DecentralizedGeoBeatsMeanUnderSignFlip) {
  const Scenario s = make_scenario(103);
  auto decentralized_accuracy = [&](const std::string& rule) {
    TrainingConfig cfg = config_for(rule, "sign-flip", 1,
                                    ml::Heterogeneity::Mild, 30);
    DecentralizedTrainer trainer(cfg, s.factory, &s.data.train,
                                 &s.data.test);
    return trainer.run().best_accuracy();
  };
  const double geo = decentralized_accuracy("BOX-GEOM");
  const double simple_mean = decentralized_accuracy("MEAN");
  EXPECT_GT(geo, 0.45);
  // The unfiltered mean absorbs the flipped gradient every round.
  EXPECT_GT(geo, simple_mean);
}

// Crash failures: every robust rule tolerates a crashed client.
TEST(Integration, CrashToleranceAcrossRules) {
  const Scenario s = make_scenario(104);
  for (const char* rule : {"MD-GEOM", "BOX-GEOM"}) {
    const double acc = centralized_accuracy(s, rule, "crash", 1,
                                            ml::Heterogeneity::Mild, 40);
    EXPECT_GT(acc, 0.45) << rule;
  }
}

// The no-attack control: robust rules pay only a small robustness tax
// relative to the mean without faults.
TEST(Integration, NoAttackControlArm) {
  const Scenario s = make_scenario(105);
  const double mean_acc = centralized_accuracy(s, "MEAN", "none", 0,
                                               ml::Heterogeneity::Uniform, 50);
  const double box_acc = centralized_accuracy(s, "BOX-GEOM", "none", 0,
                                              ml::Heterogeneity::Uniform, 50);
  EXPECT_GT(mean_acc, 0.6);
  EXPECT_GT(box_acc, mean_acc - 0.25);
}

// Thread-pool parallelism changes nothing about the learned trajectory.
TEST(Integration, EndToEndParallelDeterminism) {
  const Scenario s = make_scenario(106);
  ThreadPool pool(4);
  auto run = [&](ThreadPool* p) {
    TrainingConfig cfg = config_for("BOX-GEOM", "sign-flip", 1,
                                    ml::Heterogeneity::Mild, 4);
    cfg.pool = p;
    DecentralizedTrainer trainer(cfg, s.factory, &s.data.train,
                                 &s.data.test);
    return trainer.run();
  };
  const auto serial = run(nullptr);
  const auto parallel = run(&pool);
  ASSERT_EQ(serial.history.size(), parallel.history.size());
  for (std::size_t r = 0; r < serial.history.size(); ++r) {
    EXPECT_EQ(serial.history[r].accuracy, parallel.history[r].accuracy);
    EXPECT_EQ(serial.history[r].disagreement,
              parallel.history[r].disagreement);
  }
}

// A small CifarNet end-to-end smoke run (the Figure 2b pipeline).
TEST(Integration, CifarNetPipelineRuns) {
  ml::SyntheticSpec spec = ml::SyntheticSpec::cifar_small(107);
  spec.height = 8;
  spec.width = 8;
  spec.train_per_class = 20;
  spec.test_per_class = 10;
  const auto data = ml::make_synthetic_dataset(spec);
  const std::size_t c = spec.channels;
  const std::size_t hw = spec.height;
  ModelFactory factory = [c, hw] {
    return ml::make_cifarnet(c, hw, hw, 10, 3, 6, 16);
  };
  TrainingConfig cfg = config_for("BOX-GEOM", "sign-flip", 1,
                                  ml::Heterogeneity::Mild, 4);
  cfg.batch_size = 8;
  CentralizedTrainer trainer(cfg, factory, &data.train, &data.test);
  const auto result = trainer.run();
  EXPECT_EQ(result.history.size(), 4u);
  for (const auto& metrics : result.history) {
    EXPECT_TRUE(std::isfinite(metrics.mean_honest_loss));
    EXPECT_GE(metrics.accuracy, 0.0);
  }
}

// Label-flip data poisoning flows through the dataset path.
TEST(Integration, LabelFlipPoisoningStillLearnsWithRobustRule) {
  Scenario s = make_scenario(108);
  // Poison 10% of the training data (the first client's worth).
  std::vector<std::size_t> poisoned;
  for (std::size_t i = 0; i < s.data.train.size() / 10; ++i) {
    poisoned.push_back(i);
  }
  flip_labels_in_place(s.data.train, poisoned);
  const double acc = centralized_accuracy(s, "BOX-GEOM", "none", 1,
                                          ml::Heterogeneity::Mild, 60);
  EXPECT_GT(acc, 0.4);
}

}  // namespace
}  // namespace bcl
