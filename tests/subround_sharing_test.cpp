// Bitwise-equivalence suite for the agreement protocol's inbox path
// (agreement/protocol.cpp): zero-copy inbox views and cross-node
// distance/step memoization are pure execution strategies, so production
// agreement must reproduce the naive path — one private call per node over
// an owned inbox copy, tests/agreement_oracle.hpp — bit for bit, across
// rule families, network models and fault schedules, and inside the
// decentralized trainer.  The sharing stats are asserted where the
// topology makes them deterministic: under sync every honest node sees the
// same inbox (one build per sub-round), while a lossy async net diverges
// the inboxes and the signature must force per-node fallback builds.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "aggregation/minimum_diameter_rules.hpp"
#include "aggregation/registry.hpp"
#include "agreement/protocol.hpp"
#include "agreement_oracle.hpp"
#include "attacks/registry.hpp"
#include "compression/registry.hpp"
#include "faults/fault_plan.hpp"
#include "learning/decentralized.hpp"
#include "ml/architectures.hpp"
#include "network/adversary.hpp"
#include "network/delay_model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

VectorList random_inputs(Rng& rng, std::size_t n, std::size_t d,
                         double span = 5.0) {
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-span, span);
    pts.push_back(p);
  }
  return pts;
}

void expect_bitwise_outputs(const std::string& label, const AgreementResult& a,
                            const AgreementResult& b) {
  ASSERT_EQ(a.outputs.size(), b.outputs.size()) << label;
  ASSERT_EQ(a.honest_ids, b.honest_ids) << label;
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    ASSERT_EQ(a.outputs[i].size(), b.outputs[i].size()) << label;
    for (std::size_t c = 0; c < a.outputs[i].size(); ++c) {
      // operator== on doubles: bit-identical (no tolerance) is the claim.
      ASSERT_EQ(a.outputs[i][c], b.outputs[i][c])
          << label << " node " << i << " coordinate " << c;
    }
  }
}

AgreementResult run_path(const VectorList& inputs, std::size_t n,
                         std::size_t t, const AggregationRulePtr& rule,
                         const NetConfig& net, const FaultPlan* plan,
                         std::size_t subrounds, ThreadPool* pool = nullptr) {
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.rule = rule;
  cfg.net = net;
  cfg.net.seed = 77;  // fixed: both paths must replay identical networks
  cfg.faults = plan;
  cfg.fault_round = 0;
  cfg.pool = pool;
  SignFlipAdversary adversary({n - 2, n - 1});
  return run_fixed_rounds_agreement(GradientBatch::from(inputs), adversary,
                                    subrounds, cfg);
}

// Rules spanning both memoization modes: KRUM and CW-MEDIAN do not read
// the node's own vector (whole output shared), MD-GEOM-STICKY does and
// may only share the distance build.
std::vector<AggregationRulePtr> rules_under_test() {
  return {make_rule("KRUM"), make_rule("CW-MEDIAN"),
          std::make_shared<StickyMinDiameterGeoRule>()};
}

TEST(SubroundSharing, ProductionMatchesOracleUnderSync) {
  const std::size_t n = 9, t = 2, d = 24, subrounds = 4;
  Rng rng(101);
  const VectorList inputs = random_inputs(rng, n, d);
  const NetConfig sync;
  for (const auto& rule : rules_under_test()) {
    const auto oracle = run_path(inputs, n, t, test::private_copy(rule), sync,
                                 nullptr, subrounds);
    const auto production =
        run_path(inputs, n, t, rule, sync, nullptr, subrounds);
    expect_bitwise_outputs(rule->name() + " sync", oracle, production);
  }
}

TEST(SubroundSharing, SyncStatsCollapseToOneBuildPerSubround) {
  // Under sync with everyone up, every honest node's inbox is identical:
  // exactly one build per sub-round, and every other receive() is a hit.
  const std::size_t n = 9, t = 2, d = 16, subrounds = 5;
  const std::size_t honest = n - 2;  // the adversary controls 2 ids
  Rng rng(103);
  const VectorList inputs = random_inputs(rng, n, d);
  for (const auto& rule : rules_under_test()) {
    const auto result =
        run_path(inputs, n, t, rule, NetConfig{}, nullptr, subrounds);
    EXPECT_EQ(result.sharing.gram_builds, subrounds) << rule->name();
    EXPECT_EQ(result.sharing.shared_hits, (honest - 1) * subrounds)
        << rule->name();
  }
}

TEST(SubroundSharing, StickyTiesStayPerNodeUnderSharedBuild) {
  // Two tied minimum-diameter subsets in one inbox every node shares: the
  // nodes near 0 and the nodes near 10 must each break the tie toward
  // their own vector (Lemma 4.2's stall), so the share cache may lend
  // MD-GEOM-STICKY the distance build but never one node's output.
  const std::size_t n = 6, t = 1, subrounds = 2;
  const VectorList inputs = {{0.0}, {0.1}, {0.2}, {10.0}, {10.1}, {10.2}};
  const AggregationRulePtr sticky =
      std::make_shared<StickyMinDiameterGeoRule>();
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = t;
  NoAdversary none;
  cfg.rule = test::private_copy(sticky);
  const auto oracle = run_fixed_rounds_agreement(GradientBatch::from(inputs),
                                                 none, subrounds, cfg);
  cfg.rule = sticky;
  const auto production = run_fixed_rounds_agreement(
      GradientBatch::from(inputs), none, subrounds, cfg);
  expect_bitwise_outputs("sticky ties", oracle, production);
  EXPECT_EQ(production.sharing.gram_builds, subrounds);
  ASSERT_EQ(production.outputs.size(), n);
  EXPECT_LT(production.outputs.front()[0], 1.0);
  EXPECT_GT(production.outputs.back()[0], 9.0);
}

TEST(SubroundSharing, LossyAsyncDivergesInboxesAndStaysBitwise) {
  // drop + timeout: nodes advance on different inboxes, so the signature
  // must mismatch (per-node fallback builds) and production must still
  // equal the oracle bitwise — sharing never substitutes a build computed
  // over different bytes.
  const std::size_t n = 9, t = 2, d = 12, subrounds = 4;
  Rng rng(107);
  const VectorList inputs = random_inputs(rng, n, d);
  const NetConfig lossy =
      NetConfig::parse("async:delay=uniform,min=0.1,max=2,drop=0.25,timeout=8");
  for (const auto& rule : rules_under_test()) {
    const auto oracle = run_path(inputs, n, t, test::private_copy(rule),
                                 lossy, nullptr, subrounds);
    const auto production =
        run_path(inputs, n, t, rule, lossy, nullptr, subrounds);
    expect_bitwise_outputs(rule->name() + " lossy", oracle, production);
    // Divergent inboxes cannot collapse to one build per sub-round.
    EXPECT_GT(production.sharing.gram_builds, subrounds) << rule->name();
  }
}

TEST(SubroundSharing, CrashFaultsKeepLiveNodesSharedAndBitwise) {
  // Crashed senders shrink every inbox identically under sync, so the
  // live nodes still share one build per sub-round — and the outputs
  // match the oracle bitwise with the same fault plan.
  const std::size_t n = 9, t = 2, d = 12, subrounds = 3;
  Rng rng(109);
  const VectorList inputs = random_inputs(rng, n, d);
  const FaultConfig faults = FaultConfig::parse("crash:frac=0.2,at=0");
  const FaultPlan plan(faults, n, 4, 55);
  for (const auto& rule : rules_under_test()) {
    const auto oracle = run_path(inputs, n, t, test::private_copy(rule),
                                 NetConfig{}, &plan, subrounds);
    const auto production =
        run_path(inputs, n, t, rule, NetConfig{}, &plan, subrounds);
    expect_bitwise_outputs(rule->name() + " faults", oracle, production);
    EXPECT_EQ(production.sharing.gram_builds, subrounds) << rule->name();
  }
}

TEST(SubroundSharing, PooledRunMatchesSerialBitwise) {
  // advance_ready_nodes finalizes nodes in parallel on the engine pool;
  // the call_once sharing protocol must not perturb results under real
  // concurrency.
  const std::size_t n = 9, t = 2, d = 16, subrounds = 4;
  Rng rng(111);
  const VectorList inputs = random_inputs(rng, n, d);
  ThreadPool pool(4);
  for (const auto& rule : rules_under_test()) {
    const auto oracle = run_path(inputs, n, t, test::private_copy(rule),
                                 NetConfig{}, nullptr, subrounds);
    const auto serial =
        run_path(inputs, n, t, rule, NetConfig{}, nullptr, subrounds);
    const auto pooled =
        run_path(inputs, n, t, rule, NetConfig{}, nullptr, subrounds, &pool);
    expect_bitwise_outputs(rule->name() + " serial", oracle, serial);
    expect_bitwise_outputs(rule->name() + " pooled", oracle, pooled);
  }
}

// --- the decentralized trainer's agreement against the oracle ------------

TrainingResult train_decentralized(const ml::TrainTestSplit& data,
                                   const AggregationRulePtr& rule,
                                   const std::string& setting) {
  TrainingConfig cfg;
  cfg.num_clients = 10;
  cfg.num_byzantine = 2;
  cfg.rounds = 4;
  cfg.batch_size = 16;
  cfg.rule = rule;
  cfg.attack = make_attack("alie");
  cfg.schedule = ml::LearningRateSchedule(0.5, 0.0);
  cfg.seed = 19;
  if (setting.rfind("async", 0) == 0) {
    cfg.net = NetConfig::parse(setting);
  } else if (setting.rfind("crash", 0) == 0) {
    cfg.faults = FaultConfig::parse(setting);
  } else if (setting == "delay") {
    cfg.honest_delay_probability = 0.35;
  } else if (setting.rfind("topk", 0) == 0) {
    cfg.codec = make_codec(setting);
  }
  const std::size_t dim = data.train.feature_dim();
  DecentralizedTrainer trainer(
      cfg, [dim] { return ml::make_mlp(dim, 16, 8, 10); }, &data.train,
      &data.test);
  return trainer.run();
}

TEST(SubroundSharing, TrainerAgreementMatchesOracleEndToEnd) {
  // The trainer's own path: PerNodeFixedAdversary (and DelayingAdversary
  // with honest delays), the codec re-encode of every later sub-round and
  // fault membership frozen per learning round.  Every RoundMetrics field
  // but the wall time must come out bit for bit the same.
  ml::SyntheticSpec spec = ml::SyntheticSpec::mnist_small(3);
  spec.height = 8;
  spec.width = 8;
  spec.train_per_class = 30;
  spec.test_per_class = 10;
  const auto data = ml::make_synthetic_dataset(spec);
  const AggregationRulePtr box_geom = make_rule("BOX-GEOM");
  for (const std::string setting :
       {"sync", "async:delay=uniform,min=0.1,max=2,drop=0.25,timeout=8",
        "crash:frac=0.2,at=0", "delay", "topk:frac=0.1"}) {
    const TrainingResult plain = train_decentralized(data, box_geom, setting);
    const TrainingResult oracle =
        train_decentralized(data, test::private_copy(box_geom), setting);
    ASSERT_EQ(plain.history.size(), oracle.history.size()) << setting;
    for (std::size_t r = 0; r < plain.history.size(); ++r) {
      const RoundMetrics& a = plain.history[r];
      const RoundMetrics& b = oracle.history[r];
      const std::string at = setting + " round " + std::to_string(r);
      EXPECT_EQ(a.round, b.round) << at;
      EXPECT_EQ(a.accuracy, b.accuracy) << at;
      EXPECT_EQ(a.accuracy_min, b.accuracy_min) << at;
      EXPECT_EQ(a.accuracy_max, b.accuracy_max) << at;
      EXPECT_EQ(a.mean_honest_loss, b.mean_honest_loss) << at;
      EXPECT_EQ(a.learning_rate, b.learning_rate) << at;
      EXPECT_EQ(a.disagreement, b.disagreement) << at;
      EXPECT_EQ(a.gradient_diameter, b.gradient_diameter) << at;
      EXPECT_EQ(a.sim_seconds, b.sim_seconds) << at;
      EXPECT_EQ(a.bytes_delivered, b.bytes_delivered) << at;
      EXPECT_EQ(a.bytes_dense, b.bytes_dense) << at;
      EXPECT_EQ(a.live_clients, b.live_clients) << at;
      EXPECT_EQ(a.stale_accepted, b.stale_accepted) << at;
      EXPECT_EQ(a.stale_rejected, b.stale_rejected) << at;
      EXPECT_EQ(a.degraded, b.degraded) << at;
      EXPECT_EQ(a.cohort, b.cohort) << at;
      EXPECT_EQ(a.shards, b.shards) << at;
    }
  }
}

}  // namespace
}  // namespace bcl
