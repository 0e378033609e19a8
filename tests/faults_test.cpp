// Tests for src/faults and the liveness plumbing built on it: the
// faults=/stale= grammars (strict parsing, round-trips, rejection menus),
// the FaultPlan expansion (determinism, the cap invariant, per-family
// semantics), RNG stream isolation across the fault/message/codec streams,
// EventNetwork termination and degraded-round accounting under churn, the
// elastic centralized trainer, and the faults=none bitwise-equality
// contract.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "aggregation/registry.hpp"
#include "attacks/attack.hpp"
#include "attacks/registry.hpp"
#include "compression/codec.hpp"
#include "experiments/runner.hpp"
#include "experiments/scenario.hpp"
#include "experiments/sweep.hpp"
#include "faults/fault_plan.hpp"
#include "faults/staleness.hpp"
#include "learning/centralized.hpp"
#include "learning/decentralized.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"
#include "ml/architectures.hpp"
#include "network/adversary.hpp"
#include "network/delay_model.hpp"
#include "network/event_network.hpp"
#include "util/rng.hpp"

namespace bcl {
namespace {

template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return {};
}

// --- faults= grammar -------------------------------------------------------

TEST(FaultGrammar, DefaultIsNone) {
  const FaultConfig config = FaultConfig::parse("none");
  EXPECT_FALSE(config.any());
  EXPECT_EQ(config.to_string(), "none");
  EXPECT_EQ(config, FaultConfig{});
}

TEST(FaultGrammar, ParseToStringRoundTripsEveryFamily) {
  for (const char* text :
       {"none", "crash:at=3", "crash:at=2,frac=0.5",
        "crash-recover:mttf=5,mttr=2", "crash-recover:mttf=8,frac=0.7,cap=0.4",
        "straggler:factor=3,frac=0.5",
        "churn:leave=0.2,join=0.5,burst=2,p01=0.2,p10=0.6,cap=0.3"}) {
    const FaultConfig config = FaultConfig::parse(text);
    EXPECT_EQ(FaultConfig::parse(config.to_string()), config)
        << "round trip failed for '" << text << "'";
  }
}

TEST(FaultGrammar, UnknownFamilyListsTheMenu) {
  const std::string message =
      error_message([] { FaultConfig::parse("meteor"); });
  EXPECT_NE(message.find("valid"), std::string::npos) << message;
  EXPECT_NE(message.find("churn"), std::string::npos) << message;
  EXPECT_NE(message.find("crash-recover"), std::string::npos) << message;
}

TEST(FaultGrammar, UnknownKeyListsTheFamilyKeys) {
  const std::string message =
      error_message([] { FaultConfig::parse("churn:rate=0.5"); });
  EXPECT_NE(message.find("leave"), std::string::npos) << message;
}

TEST(FaultGrammar, RejectsZeroAndNegativeRates) {
  EXPECT_THROW(FaultConfig::parse("crash-recover:mttf=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("crash-recover:mttr=-1"),
               std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("crash:frac=0"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("crash:frac=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("churn:leave=0"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("churn:p01=2"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("churn:cap=0"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("straggler:factor=0.5"),
               std::invalid_argument);
}

TEST(FaultGrammar, TableAndNamesAgree) {
  const auto names = all_fault_names();
  EXPECT_EQ(names.size(), fault_parameter_table().size());
  for (const auto& [family, keys] : fault_parameter_table()) {
    (void)keys;
    EXPECT_NO_THROW(FaultConfig::parse(family));
  }
}

// --- stale= grammar --------------------------------------------------------

TEST(StaleGrammar, ParsesAndRoundTrips) {
  EXPECT_FALSE(StaleConfig::parse("none").enabled());
  const StaleConfig tau2 = StaleConfig::parse("2");
  EXPECT_TRUE(tau2.enabled());
  EXPECT_EQ(tau2.tau, 2u);
  EXPECT_DOUBLE_EQ(tau2.decay, 1.0);
  const StaleConfig full = StaleConfig::parse("3,decay=0.5,quorum=0.6");
  EXPECT_EQ(full.tau, 3u);
  EXPECT_DOUBLE_EQ(full.decay, 0.5);
  EXPECT_DOUBLE_EQ(full.quorum, 0.6);
  for (const char* text : {"none", "1", "2,decay=0.5", "4,quorum=0.75"}) {
    const StaleConfig config = StaleConfig::parse(text);
    EXPECT_EQ(StaleConfig::parse(config.to_string()), config)
        << "round trip failed for '" << text << "'";
  }
}

TEST(StaleGrammar, RejectsZeroTauAndBadKeys) {
  const std::string message = error_message([] { StaleConfig::parse("0"); });
  EXPECT_NE(message.find("none"), std::string::npos) << message;
  EXPECT_THROW(StaleConfig::parse("abc"), std::invalid_argument);
  EXPECT_THROW(StaleConfig::parse("2,decay=0"), std::invalid_argument);
  EXPECT_THROW(StaleConfig::parse("2,decay=1.5"), std::invalid_argument);
  EXPECT_THROW(StaleConfig::parse("2,quorum=1.5"), std::invalid_argument);
  EXPECT_THROW(StaleConfig::parse("2,bogus=1"), std::invalid_argument);
}

// --- FaultPlan expansion ---------------------------------------------------

TEST(FaultPlan, EmptyPlanKeepsEveryoneUp) {
  const FaultPlan plan(FaultConfig{}, 8, 10, 3);
  EXPECT_FALSE(plan.any());
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(plan.live_count(r), 8u);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(plan.alive(i, r));
  }
  EXPECT_EQ(plan.max_down(), 0u);
  EXPECT_EQ(plan.epochs(), 1u);
}

TEST(FaultPlan, DeterministicAcrossConstructions) {
  const FaultConfig config =
      FaultConfig::parse("churn:leave=0.3,join=0.4,cap=0.4");
  const FaultPlan a(config, 12, 20, 9);
  const FaultPlan b(config, 12, 20, 9);
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_EQ(a.live_count(r), b.live_count(r));
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_EQ(a.alive(i, r), b.alive(i, r)) << "node " << i << " round "
                                              << r;
    }
  }
  // A different seed reshuffles the schedule (statistically certain over
  // 240 cells at these rates).
  const FaultPlan c(config, 12, 20, 10);
  bool differs = false;
  for (std::size_t r = 0; r < 20 && !differs; ++r) {
    for (std::size_t i = 0; i < 12; ++i) {
      if (a.alive(i, r) != c.alive(i, r)) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, CapBoundsSimultaneousDowntime) {
  // Aggressive churn against a 30% cap: the invariant is structural, not
  // statistical — no round may have more than floor(0.3 * 10) = 3 down.
  const FaultConfig config =
      FaultConfig::parse("churn:leave=0.9,join=0.1,cap=0.3");
  const FaultPlan plan(config, 10, 30, 17);
  EXPECT_LE(plan.max_down(), 3u);
  for (std::size_t r = 0; r < 30; ++r) {
    EXPECT_GE(plan.live_count(r), 7u);
    EXPECT_GE(plan.live_count(r), 1u);
  }
}

TEST(FaultPlan, CrashFamilyIsFailStop) {
  const FaultConfig config = FaultConfig::parse("crash:at=3,frac=0.4");
  const FaultPlan plan(config, 10, 8, 5);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(plan.live_count(r), 10u);
  for (std::size_t r = 3; r < 8; ++r) EXPECT_EQ(plan.live_count(r), 6u);
  // Fail-stop: whoever is down at round 3 stays down.
  for (std::size_t i = 0; i < 10; ++i) {
    if (!plan.alive(i, 3)) {
      for (std::size_t r = 4; r < 8; ++r) EXPECT_FALSE(plan.alive(i, r));
    }
  }
  EXPECT_EQ(plan.max_down(), 4u);
  EXPECT_EQ(plan.epochs(), 2u);
  EXPECT_EQ(plan.transitions(3).crashes, 4u);
  EXPECT_EQ(plan.transitions(3).recoveries, 0u);
}

TEST(FaultPlan, TransitionsBalanceLiveCounts) {
  const FaultConfig config =
      FaultConfig::parse("crash-recover:mttf=3,mttr=2,frac=0.8,cap=0.4");
  const FaultPlan plan(config, 10, 40, 23);
  std::size_t recoveries = 0;
  for (std::size_t r = 1; r < 40; ++r) {
    const auto& t = plan.transitions(r);
    EXPECT_EQ(plan.live_count(r), plan.live_count(r - 1) - t.crashes +
                                      t.recoveries + t.joins)
        << "round " << r;
    recoveries += t.recoveries + t.joins;
  }
  // Over 40 rounds at mttr=2 the cohort must come back at least once.
  EXPECT_GT(recoveries, 0u);
  EXPECT_GT(plan.epochs(), 1u);
}

TEST(FaultPlan, StragglerSlowsWithoutKilling) {
  const FaultConfig config =
      FaultConfig::parse("straggler:factor=4,frac=0.5");
  const FaultPlan plan(config, 10, 10, 7);
  std::size_t slowed = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(plan.slowdown(i) == 1.0 || plan.slowdown(i) == 4.0);
    if (plan.slowdown(i) == 4.0) ++slowed;
  }
  EXPECT_EQ(slowed, 5u);  // ceil(0.5 * 10)
  for (std::size_t r = 0; r < 10; ++r) EXPECT_EQ(plan.live_count(r), 10u);
  EXPECT_EQ(plan.max_down(), 0u);
}

TEST(FaultPlan, RoundsBeyondHorizonFreeze) {
  const FaultConfig config = FaultConfig::parse("crash:at=2,frac=0.3");
  const FaultPlan plan(config, 10, 5, 1);
  EXPECT_EQ(plan.live_count(100), plan.live_count(4));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(plan.alive(i, 100), plan.alive(i, 4));
  }
}

// --- RNG stream isolation --------------------------------------------------

TEST(RngStreams, FaultMessageCodecStreamsNeverCollide) {
  // The fault, delivery, and codec streams are all splitmix64 chains off
  // the same root seed, distinguished only by their salts.  A collision
  // would let a fault schedule perturb sampled latencies (or codec draws)
  // and break the faults=none bitwise contract, so the first outputs of
  // every stream over a key grid must be pairwise distinct — across
  // streams as well as within each one.
  std::set<std::uint64_t> seen;
  std::size_t draws = 0;
  for (std::uint64_t seed : {1ull, 99ull, 0xDEADBEEFull}) {
    for (std::size_t node = 0; node < 10; ++node) {
      for (std::size_t round = 0; round < 10; ++round) {
        seen.insert(fault_stream(seed, node, round).next_u64());
        seen.insert(codec_stream(seed, node, round).next_u64());
        seen.insert(message_stream(seed, node, node + 1, round).next_u64());
        draws += 3;
      }
    }
  }
  EXPECT_EQ(seen.size(), draws);
}

TEST(RngStreams, FaultStreamIsDeterministicPerKey) {
  EXPECT_EQ(fault_stream(7, 3, 5).next_u64(),
            fault_stream(7, 3, 5).next_u64());
  EXPECT_NE(fault_stream(7, 3, 5).next_u64(),
            fault_stream(7, 5, 3).next_u64());
  EXPECT_NE(fault_stream(7, 3, 5).next_u64(),
            fault_stream(8, 3, 5).next_u64());
}

// --- EventNetwork liveness -------------------------------------------------

/// Minimal recorder fleet (mirrors event_network_test's).
class CountingProcess final : public HonestProcess {
 public:
  explicit CountingProcess(std::size_t id) : id_(id) {}
  Vector outgoing(std::size_t /*round*/) const override {
    return {static_cast<double>(id_)};
  }
  void receive(std::size_t /*round*/,
               std::vector<Message>&& inbox) override {
    received_ += inbox.size();
  }
  std::size_t received() const { return received_; }

 private:
  std::size_t id_;
  std::size_t received_ = 0;
};

TEST(EventNetworkFaults, ChurnRoundsTerminateWithAccountedDegradation) {
  const std::size_t n = 6;
  const std::size_t rounds = 12;
  const FaultConfig config =
      FaultConfig::parse("churn:leave=0.5,join=0.3,cap=0.5");
  const FaultPlan plan(config, n, rounds, 21);

  std::vector<std::unique_ptr<CountingProcess>> owned;
  std::vector<HonestProcess*> processes;
  for (std::size_t i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<CountingProcess>(i));
    processes.push_back(owned.back().get());
  }
  NoAdversary adversary;
  EventNetworkConfig net_config;
  net_config.quorum = n - 1;
  net_config.timeout = -1.0;  // no timeout: liveness must come from the
                              // membership-aware quorum alone
  net_config.faults = &plan;
  EventNetwork net(processes, adversary, net_config);
  net.run(rounds);  // must terminate even with up to half the nodes down

  const NetworkStats& stats = net.stats();
  EXPECT_EQ(stats.rounds, rounds);
  std::size_t expected_degraded = 0;
  std::size_t expected_crashes = 0;
  std::size_t expected_joins = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (plan.live_count(r) < n - 1) ++expected_degraded;
    expected_crashes += plan.transitions(r).crashes;
    expected_joins += plan.transitions(r).joins + plan.transitions(r).recoveries;
  }
  EXPECT_EQ(stats.rounds_degraded, expected_degraded);
  EXPECT_GT(expected_degraded, 0u);  // the schedule actually bites
  EXPECT_EQ(stats.crashes, expected_crashes);
  EXPECT_EQ(stats.recoveries + stats.joins, expected_joins);
}

TEST(EventNetworkFaults, NullFaultPlanKeepsStatsClean) {
  const std::size_t n = 4;
  std::vector<std::unique_ptr<CountingProcess>> owned;
  std::vector<HonestProcess*> processes;
  for (std::size_t i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<CountingProcess>(i));
    processes.push_back(owned.back().get());
  }
  NoAdversary adversary;
  EventNetworkConfig config;
  config.quorum = n - 1;
  EventNetwork net(processes, adversary, config);
  net.run(3);
  EXPECT_EQ(net.stats().crashes, 0u);
  EXPECT_EQ(net.stats().rounds_degraded, 0u);
}

// --- trainers --------------------------------------------------------------

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
  cfg.rounds = 6;
  cfg.batch_size = 16;
  cfg.rule = make_rule(rule);
  cfg.attack = make_attack(attack);
  cfg.schedule = ml::LearningRateSchedule(0.5, 0.0);
  cfg.heterogeneity = ml::Heterogeneity::Mild;
  cfg.seed = 5;
  return cfg;
}

// The in-flight/arrival machinery at its no-op setting: stale=1 makes every
// round elastic (quorum-or-skip, budgets over the accepted rows, staleness
// weights), but with a rushing attack and no faults nothing ever lands
// late, so every recorded field must match the barrier run bitwise.
TEST(CentralizedFaults, StaleOneWithoutFaultsIsBitwiseIdenticalToBarrier) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(11));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());

  TrainingConfig barrier = base_config("BOX-GEOM", "sign-flip");
  barrier.rounds = 5;
  TrainingConfig elastic = barrier;
  elastic.stale = StaleConfig::parse("1");

  CentralizedTrainer a(barrier, factory, &data.train, &data.test);
  CentralizedTrainer b(elastic, factory, &data.train, &data.test);
  const TrainingResult ra = a.run();
  const TrainingResult rb = b.run();

  ASSERT_EQ(ra.history.size(), 5u);
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t r = 0; r < ra.history.size(); ++r) {
    const RoundMetrics& x = ra.history[r];
    const RoundMetrics& y = rb.history[r];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.accuracy, y.accuracy) << r;
    EXPECT_EQ(x.accuracy_min, y.accuracy_min) << r;
    EXPECT_EQ(x.accuracy_max, y.accuracy_max) << r;
    EXPECT_EQ(x.mean_honest_loss, y.mean_honest_loss) << r;
    EXPECT_EQ(x.learning_rate, y.learning_rate) << r;
    EXPECT_EQ(x.disagreement, y.disagreement) << r;
    EXPECT_EQ(x.gradient_diameter, y.gradient_diameter) << r;
    EXPECT_EQ(x.sim_seconds, y.sim_seconds) << r;
    EXPECT_EQ(x.bytes_delivered, y.bytes_delivered) << r;
    EXPECT_EQ(x.bytes_dense, y.bytes_dense) << r;
    EXPECT_EQ(x.live_clients, y.live_clients) << r;
    EXPECT_EQ(x.stale_accepted, y.stale_accepted) << r;
    EXPECT_EQ(x.stale_rejected, y.stale_rejected) << r;
    EXPECT_EQ(x.degraded, y.degraded) << r;
    EXPECT_EQ(x.cohort, y.cohort) << r;
    EXPECT_EQ(x.shards, y.shards) << r;
  }
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
}

TEST(CentralizedFaults, ElasticChurnWithStalenessCompletesAndAccounts) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(12));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());

  TrainingConfig cfg = base_config("BOX-GEOM", "stale-strike");
  cfg.rounds = 8;
  cfg.faults = FaultConfig::parse("churn:leave=0.3,join=0.4,cap=0.3");
  cfg.stale = StaleConfig::parse("2,decay=0.5");

  CentralizedTrainer trainer(cfg, factory, &data.train, &data.test);
  const TrainingResult result = trainer.run();
  ASSERT_EQ(result.history.size(), 8u);
  bool saw_downtime = false;
  for (const RoundMetrics& m : result.history) {
    EXPECT_GE(m.live_clients, 7.0);  // cap=0.3 over n=10
    EXPECT_LE(m.live_clients, 10.0);
    if (m.live_clients < 10.0) saw_downtime = true;
    EXPECT_TRUE(std::isfinite(m.accuracy));
    EXPECT_TRUE(std::isfinite(m.mean_honest_loss));
  }
  EXPECT_TRUE(saw_downtime);

  // Determinism: the same config replays the elastic loop bitwise.
  CentralizedTrainer replay(cfg, factory, &data.train, &data.test);
  const TrainingResult again = replay.run();
  ASSERT_EQ(again.history.size(), result.history.size());
  for (std::size_t r = 0; r < result.history.size(); ++r) {
    EXPECT_EQ(result.history[r].accuracy, again.history[r].accuracy);
    EXPECT_EQ(result.history[r].live_clients,
              again.history[r].live_clients);
    EXPECT_EQ(result.history[r].stale_accepted,
              again.history[r].stale_accepted);
    EXPECT_EQ(result.history[r].stale_rejected,
              again.history[r].stale_rejected);
  }
}

TEST(CentralizedFaults, StaleStrikeSubmitsAtMaxStaleness) {
  const auto attack = make_attack("stale-strike:scale=2");
  EXPECT_EQ(attack->name(), "stale-strike");
  EXPECT_EQ(attack->submit_staleness(0, 3), 3u);
  EXPECT_EQ(attack->submit_staleness(5, 1), 1u);
  // Rushing attacks claim zero staleness by default.
  EXPECT_EQ(make_attack("sign-flip")->submit_staleness(0, 3), 0u);
}

TEST(DecentralizedFaults, RejectsStaleConfig) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(13));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  TrainingConfig cfg = base_config("BOX-GEOM", "sign-flip");
  cfg.stale = StaleConfig::parse("2");
  EXPECT_THROW(DecentralizedTrainer(cfg, factory, &data.train, &data.test),
               std::invalid_argument);
}

TEST(DecentralizedFaults, CrashRecoverCompletesWithLiveAccounting) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(14));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  TrainingConfig cfg = base_config("BOX-GEOM", "sign-flip");
  cfg.rounds = 4;
  cfg.faults = FaultConfig::parse("crash-recover:mttf=3,mttr=2,frac=0.6,cap=0.3");
  DecentralizedTrainer trainer(cfg, factory, &data.train, &data.test);
  const TrainingResult result = trainer.run();
  ASSERT_EQ(result.history.size(), 4u);
  for (const RoundMetrics& m : result.history) {
    EXPECT_GE(m.live_clients, 7.0);
    EXPECT_LE(m.live_clients, 10.0);
    EXPECT_TRUE(std::isfinite(m.accuracy));
  }
}

// A down node never receives, so its vector is its untouched input and the
// agreement trace must not count it.  Under net=sync every live honest node
// sees the same inbox whenever n - t nodes are up (sign-flip sends one value
// to everyone), so the disagreement of those rounds is exactly 0.
TEST(DecentralizedFaults, DisagreementIgnoresDownNodes) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(15));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  TrainingConfig cfg = base_config("BOX-GEOM", "sign-flip");
  cfg.rounds = 3;
  cfg.faults = FaultConfig::parse("crash:at=1,frac=0.1");
  const std::size_t n = cfg.num_clients;
  const std::size_t quorum = n - cfg.resolved_t();

  // The crash must take down an honest node in a round that keeps quorum,
  // or the check below would pass vacuously.
  const FaultPlan plan(cfg.faults, n, cfg.rounds, cfg.seed);
  bool honest_down = false;
  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    for (std::size_t i = 0; i < n - cfg.num_byzantine; ++i) {
      if (!plan.alive(i, r) && plan.live_count(r) >= quorum) {
        honest_down = true;
      }
    }
  }
  ASSERT_TRUE(honest_down);

  DecentralizedTrainer trainer(cfg, factory, &data.train, &data.test);
  const TrainingResult result = trainer.run();
  ASSERT_EQ(result.history.size(), cfg.rounds);
  for (const RoundMetrics& m : result.history) {
    if (m.live_clients >= static_cast<double>(quorum)) {
      EXPECT_EQ(m.disagreement, 0.0) << "round " << m.round;
    }
  }
}

/// Logs the honest rows it is shown, per round, and submits its own
/// gradient.  The trainer crafts from its driving thread only, so the log
/// needs no lock.
class RecordingAttack final : public GradientAttack {
 public:
  explicit RecordingAttack(std::map<std::size_t, VectorList>* seen)
      : seen_(seen) {}
  std::string name() const override { return "recording"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest, std::size_t round,
                                Rng& /*rng*/) const override {
    (*seen_)[round] = honest.to_vectors();
    return own_gradient;
  }

 private:
  std::map<std::size_t, VectorList>* seen_;
};

// The decentralized attacker sees exactly the live honest gradients, the
// same rows the round's gradient_diameter is measured over (no codec, so
// the attack's post-EF rows are the pre-EF ones).
TEST(DecentralizedFaults, AttackSeesExactlyTheLiveHonestRows) {
  const auto data = ml::make_synthetic_dataset(tiny_spec(16));
  const auto factory = tiny_mlp_factory(data.train.feature_dim());
  std::map<std::size_t, VectorList> seen;
  TrainingConfig cfg = base_config("BOX-GEOM", "sign-flip");
  cfg.attack = std::make_shared<RecordingAttack>(&seen);
  cfg.rounds = 6;
  cfg.faults =
      FaultConfig::parse("crash-recover:mttf=3,mttr=2,frac=0.6,cap=0.3");
  const std::size_t n = cfg.num_clients;
  const std::size_t honest_count = n - cfg.num_byzantine;
  const FaultPlan plan(cfg.faults, n, cfg.rounds, cfg.seed);

  DecentralizedTrainer trainer(cfg, factory, &data.train, &data.test);
  const TrainingResult result = trainer.run();
  ASSERT_EQ(result.history.size(), cfg.rounds);
  bool saw_honest_down = false;
  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    if (!plan.alive(n - 1, r)) {  // a down attacker crafts nothing
      EXPECT_EQ(seen.count(r), 0u) << r;
      continue;
    }
    ASSERT_EQ(seen.count(r), 1u) << r;
    const VectorList& rows = seen.at(r);
    std::size_t live_honest = 0;
    for (std::size_t i = 0; i < honest_count; ++i) {
      if (plan.alive(i, r)) ++live_honest;
    }
    if (live_honest < honest_count) saw_honest_down = true;
    ASSERT_EQ(rows.size(), live_honest) << r;
    // Down clients' rows are zeroed; none may leak into the view.
    for (const Vector& row : rows) EXPECT_GT(norm2(row), 0.0) << r;
    EXPECT_EQ(DistanceMatrix(GradientBatch::from(rows)).diameter(),
              result.history[r].gradient_diameter)
        << r;
  }
  EXPECT_TRUE(saw_honest_down);
}

// --- scenario / sweep surface ----------------------------------------------

TEST(ScenarioFaults, KeysParseValidateAndRoundTrip) {
  using experiments::ScenarioSpec;
  const auto spec = ScenarioSpec::parse(
      "faults=churn:leave=0.2,join=0.5,cap=0.3 stale=2,decay=0.5");
  EXPECT_EQ(spec.faults, "churn:leave=0.2,join=0.5,cap=0.3");
  EXPECT_EQ(spec.stale, "2,decay=0.5");
  EXPECT_EQ(ScenarioSpec::parse(spec.to_string()), spec);
  // Non-default values show in the derived name.
  EXPECT_NE(spec.name().find("churn"), std::string::npos);
  EXPECT_NE(spec.name().find("stale:2"), std::string::npos);
  // Defaults stay out of the name and round-trip too.
  const ScenarioSpec plain;
  EXPECT_EQ(plain.name().find("stale"), std::string::npos);
  EXPECT_EQ(ScenarioSpec::parse(plain.to_string()), plain);
}

TEST(ScenarioFaults, RejectsBadValuesEagerly) {
  using experiments::ScenarioSpec;
  ScenarioSpec spec;
  EXPECT_THROW(spec.set("faults", "meteor"), std::invalid_argument);
  EXPECT_THROW(spec.set("faults", "churn:leave=0"), std::invalid_argument);
  EXPECT_THROW(spec.set("stale", "0"), std::invalid_argument);
  EXPECT_THROW(spec.set("stale", "2,bogus=1"), std::invalid_argument);
  // A failed set leaves the spec untouched.
  EXPECT_EQ(spec.faults, "none");
  EXPECT_EQ(spec.stale, "none");
}

TEST(ScenarioFaults, SweepFaultsAxisExpandsBetweenCompAndRule) {
  experiments::SweepAxes axes;
  axes.faults = {"none", "crash:at=2"};
  axes.rules = {"MEAN", "KRUM"};
  const auto specs = experiments::expand_sweep(axes);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].faults, "none");
  EXPECT_EQ(specs[0].rule, "MEAN");
  EXPECT_EQ(specs[1].rule, "KRUM");
  EXPECT_EQ(specs[2].faults, "crash:at=2");
  EXPECT_EQ(specs[2].rule, "MEAN");
}

TEST(ScenarioFaults, ChurnSweepSerialAndJobsAreBitwiseIdentical) {
  using experiments::ScenarioSpec;
  experiments::SweepAxes axes;
  axes.rules = {"MEAN"};
  axes.attacks = {"sign-flip", "stale-strike"};
  axes.faults = {"churn:leave=0.3,join=0.5,cap=0.3"};
  const auto specs = experiments::expand_sweep(axes, [](ScenarioSpec& spec) {
    spec.set("rounds", "3");
    spec.set("stale", "2");
    spec.set("eval-max", "100");
  });
  ASSERT_EQ(specs.size(), 2u);

  experiments::ScenarioRunner serial;
  const auto serial_out = serial.run_all(specs, {}, 1);
  experiments::ScenarioRunner pooled;
  const auto pooled_out = pooled.run_all(specs, {}, 2);

  ASSERT_EQ(serial_out.size(), pooled_out.size());
  for (std::size_t i = 0; i < serial_out.size(); ++i) {
    EXPECT_EQ(serial_out[i].error, "") << serial_out[i].error;
    EXPECT_EQ(pooled_out[i].error, "") << pooled_out[i].error;
    const auto& a = serial_out[i].result.history;
    const auto& b = pooled_out[i].result.history;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
      EXPECT_EQ(a[r].accuracy, b[r].accuracy);
      EXPECT_EQ(a[r].mean_honest_loss, b[r].mean_honest_loss);
      EXPECT_EQ(a[r].live_clients, b[r].live_clients);
      EXPECT_EQ(a[r].stale_accepted, b[r].stale_accepted);
      EXPECT_EQ(a[r].stale_rejected, b[r].stale_rejected);
      EXPECT_EQ(a[r].degraded, b[r].degraded);
      EXPECT_EQ(a[r].bytes_delivered, b[r].bytes_delivered);
    }
  }
}

}  // namespace
}  // namespace bcl
