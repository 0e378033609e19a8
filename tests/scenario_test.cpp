// Tests for src/experiments (ScenarioSpec grammar, registries, runner +
// emitters) and the registry error-message contracts.

#include <gtest/gtest.h>

#include <chrono>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "aggregation/registry.hpp"
#include "attacks/registry.hpp"
#include "compression/registry.hpp"
#include "experiments/emitters.hpp"
#include "experiments/runner.hpp"
#include "experiments/scenario.hpp"
#include "experiments/sweep.hpp"
#include "faults/fault_plan.hpp"
#include "faults/staleness.hpp"
#include "learning/cohort.hpp"

namespace bcl {
namespace {

using experiments::ModelKind;
using experiments::ScenarioSpec;
using experiments::Topology;

// --- spec grammar ----------------------------------------------------------

TEST(ScenarioSpec, ParsesEveryKey) {
  const auto spec = ScenarioSpec::parse(
      "label=probe rule=KRUM attack=alie:z=2 n=13 f=2 t=3 "
      "topology=decentralized model=cifarnet het=extreme scale=full "
      "rounds=7 batch=4 lr=0.125 subrounds=2 delay=0.25 "
      "comp=topk:frac=0.05 seed=99 eval-max=50");
  EXPECT_EQ(spec.label, "probe");
  EXPECT_EQ(spec.rule, "KRUM");
  EXPECT_EQ(spec.attack, "alie:z=2");
  EXPECT_EQ(spec.clients, 13u);
  EXPECT_EQ(spec.byzantine, 2u);
  EXPECT_EQ(spec.tolerance, 3u);
  EXPECT_EQ(spec.topology, Topology::Decentralized);
  EXPECT_EQ(spec.model, ModelKind::CifarNet);
  EXPECT_EQ(spec.heterogeneity, ml::Heterogeneity::Extreme);
  EXPECT_TRUE(spec.full_scale);
  EXPECT_EQ(spec.rounds, 7u);
  EXPECT_EQ(spec.batch, 4u);
  EXPECT_DOUBLE_EQ(spec.lr, 0.125);
  EXPECT_EQ(spec.subrounds, 2u);
  EXPECT_DOUBLE_EQ(spec.delay, 0.25);
  EXPECT_EQ(spec.comp, "topk:frac=0.05");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.eval_max, 50u);
}

TEST(ScenarioSpec, ToStringRoundTrips) {
  const auto spec = ScenarioSpec::parse(
      "rule=MD-GEOM attack=mimic:target=1 f=2 topology=decentralized "
      "het=uniform lr=0.05 delay=0.3 subrounds=4 seed=7");
  const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_string());
  EXPECT_EQ(spec, reparsed);
  EXPECT_EQ(spec.to_string(), reparsed.to_string());
  // Defaults round-trip too.
  EXPECT_EQ(ScenarioSpec{}, ScenarioSpec::parse(ScenarioSpec{}.to_string()));
}

TEST(ScenarioSpec, UnknownKeyListsValidKeys) {
  try {
    ScenarioSpec::parse("rule=MEAN bogus=1");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("bogus"), std::string::npos);
    EXPECT_NE(message.find("topology"), std::string::npos);
    EXPECT_NE(message.find("eval-max"), std::string::npos);
  }
}

TEST(ScenarioSpec, MalformedTokenAndValuesRejected) {
  EXPECT_THROW(ScenarioSpec::parse("KRUM"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("rounds=many"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("rounds=1.5"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("rounds=-2"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("topology=p2p"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("scale=huge"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("model=resnet"), std::invalid_argument);
  // A label with whitespace could never parse back (the grammar is
  // whitespace-separated), so set() rejects it to keep the round-trip.
  ScenarioSpec spec;
  EXPECT_THROW(spec.set("label", "my run"), std::invalid_argument);
}

TEST(ScenarioSpec, DerivedNameReflectsFields) {
  const auto spec = ScenarioSpec::parse(
      "rule=KRUM attack=sign-flip f=2 topology=decentralized het=extreme");
  EXPECT_EQ(spec.name(), "dec/extreme/KRUM/sign-flip/f2");
  EXPECT_EQ(ScenarioSpec::parse("label=x rule=KRUM").name(), "x");
}

TEST(ScenarioSpec, NetKeyRoundTripsAndValidatesEagerly) {
  const auto spec =
      ScenarioSpec::parse("rule=KRUM net=async:delay=exp,mean=5,drop=0.01");
  EXPECT_EQ(spec.net, "async:delay=exp,mean=5,drop=0.01");
  EXPECT_EQ(spec, ScenarioSpec::parse(spec.to_string()));
  // The derived name carries the non-default network model so sweep cells
  // stay distinguishable in tables and artifacts.
  EXPECT_NE(spec.name().find("async:delay=exp"), std::string::npos);
  EXPECT_EQ(ScenarioSpec{}.net, "sync");
  // Malformed NetConfig grammar is rejected at set() time, not at run time.
  EXPECT_THROW(ScenarioSpec::parse("net=async:delay=gamma"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("net=lossy"), std::invalid_argument);
}

// --- grammar fuzz ----------------------------------------------------------

// One malformed input per row plus the substrings its rejection message
// must carry.  The shared contract across every textual grammar in the
// harness (scenario keys, attack/codec registries, faults/stale/cohort
// configs): a rejection names the offending token AND either the valid
// menu or the violated range, so a typo is always one error message away
// from the fix.
struct FuzzCase {
  std::string input;
  std::vector<std::string> expect;
};

void expect_menu_bearing_rejection(
    const char* grammar, const std::function<void(const std::string&)>& parse,
    const std::vector<FuzzCase>& cases) {
  for (const auto& c : cases) {
    try {
      parse(c.input);
      ADD_FAILURE() << grammar << " accepted malformed input '" << c.input
                    << "'";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      for (const auto& needle : c.expect) {
        EXPECT_NE(message.find(needle), std::string::npos)
            << grammar << " rejected '" << c.input << "' with '" << message
            << "', which does not mention '" << needle << "'";
      }
    }
  }
}

TEST(GrammarFuzz, ScenarioGrammarRejectionsListTheMenu) {
  expect_menu_bearing_rejection(
      "ScenarioSpec::parse",
      [](const std::string& s) { ScenarioSpec::parse(s); },
      {
          // Empty key: '=' at position 0 is a malformed token.
          {"=1", {"malformed token", "key=value", "topology"}},
          // Empty value on an integer key.
          {"rounds=", {"rounds", "non-negative integer"}},
          // Overflow numerics must not wrap silently.
          {"n=999999999999999999999999",
           {"n", "non-negative integer", "999999999999999999999999"}},
          {"lr=1e999999", {"lr", "number"}},
          // Unknown keys list the full key menu (including cohort).
          {"bogus=1", {"bogus", "cohort", "eval-max"}},
          {"cohort", {"malformed token", "key=value"}},
      });
}

TEST(GrammarFuzz, AttackGrammarRejectionsListTheMenu) {
  expect_menu_bearing_rejection(
      "make_attack", [](const std::string& s) { make_attack(s); },
      {
          {"", {"valid:", "sign-flip", "alie"}},
          {"bogus:x=1", {"bogus", "valid:", "sign-flip"}},
          // Empty parameter key and empty parameter value.
          {"sign-flip:=2", {"malformed parameter", "key=value"}},
          {"sign-flip:scale=", {"malformed parameter", "key=value"}},
          {"mimic:target=999999999999999999999999",
           {"target", "non-negative integer"}},
          // Unknown parameter for a known family lists that family's keys.
          {"alie:q=3", {"q", "alie", "valid:"}},
      });
}

TEST(GrammarFuzz, CodecGrammarRejectionsListTheMenu) {
  expect_menu_bearing_rejection(
      "make_codec", [](const std::string& s) { make_codec(s); },
      {
          {"gzip", {"gzip", "valid:", "topk"}},
          {"topk:frac=abc", {"frac", "number"}},
          {"topk:frac=0.5,extra=1", {"extra", "valid:"}},
      });
}

TEST(GrammarFuzz, FaultGrammarRejectionsListTheMenu) {
  expect_menu_bearing_rejection(
      "FaultConfig::parse",
      [](const std::string& s) { FaultConfig::parse(s); },
      {
          {"meteor", {"meteor", "valid:", "churn", "crash-recover"}},
          {"churn:leave=", {"malformed parameter", "key=value"}},
          {"churn:leave=2", {"leave", "(0, 1]"}},
          {"crash:at=1.5", {"at", "non-negative integer"}},
          {"churn:bogus=1", {"bogus", "valid:", "leave"}},
      });
}

TEST(GrammarFuzz, StaleGrammarRejectionsListTheMenu) {
  expect_menu_bearing_rejection(
      "StaleConfig::parse",
      [](const std::string& s) { StaleConfig::parse(s); },
      {
          {"abc", {"tau", "non-negative integer"}},
          {"2,decay=0", {"decay", "(0, 1]"}},
          {"2,bogus=1", {"bogus", "valid:", "decay"}},
      });
}

TEST(GrammarFuzz, CohortGrammarRejectionsListTheMenu) {
  expect_menu_bearing_rejection(
      "CohortConfig::parse",
      [](const std::string& s) { CohortConfig::parse(s); },
      {
          // The fraction itself: zero, above one, and non-numeric.
          {"0", {"frac", "(0, 1]"}},
          {"1.5", {"frac", "(0, 1]"}},
          {"abc", {"frac", "number"}},
          // Parameter tail.
          {"0.5,shards=0", {"shards", ">= 1"}},
          {"0.5,shards=", {"malformed parameter", "key=value"}},
          {"0.5,shards=999999999999999999999999",
           {"shards", "non-negative integer"}},
          {"0.5,bogus=1", {"bogus", "valid:", "shards", "root"}},
          // An unknown root rule surfaces the aggregation registry's own
          // menu (eager validation, like net=/comp= in the spec grammar).
          {"0.5,root=BOGUS", {"BOGUS", "MULTIKRUM-<q>"}},
      });
}

TEST(GrammarFuzz, TrailingCommasAreTolerated) {
  // The comma-separated parameter grammars skip empty tokens, so a
  // trailing comma is not an error — fuzz inputs ending in ',' must parse
  // to the same config as without it.
  EXPECT_EQ(CohortConfig::parse("0.5,").fraction,
            CohortConfig::parse("0.5").fraction);
  EXPECT_EQ(CohortConfig::parse("0.5,shards=2,").shards,
            CohortConfig::parse("0.5,shards=2").shards);
  EXPECT_NO_THROW(FaultConfig::parse("churn:leave=0.2,"));
  EXPECT_NO_THROW(StaleConfig::parse("2,decay=0.5,"));
}

// --- registry error contracts ----------------------------------------------

TEST(Registries, UnknownRuleListsValidNames) {
  try {
    make_rule("BOGUS");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("BOGUS"), std::string::npos);
    for (const auto& name : all_rule_names()) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
    EXPECT_NE(message.find("MULTIKRUM-<q>"), std::string::npos);
  }
}

TEST(Registries, UnknownAttackListsValidNames) {
  try {
    make_attack("bogus");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    for (const auto& name : all_attack_names()) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
}

TEST(Registries, UnknownAttackParameterListsValidKeys) {
  try {
    make_attack("sign-flip:sigma=2");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("sigma"), std::string::npos);
    EXPECT_NE(message.find("scale"), std::string::npos);
  }
  EXPECT_THROW(make_attack("zero:x=1"), std::invalid_argument);
  EXPECT_THROW(make_attack("alie:z="), std::invalid_argument);
  EXPECT_THROW(make_attack("alie:z=abc"), std::invalid_argument);
  // Integer parameters reject fractional values instead of truncating.
  EXPECT_THROW(make_attack("mimic:target=1.9"), std::invalid_argument);
  EXPECT_THROW(make_attack("crash:from=2.7"), std::invalid_argument);
}

TEST(Registries, AttackParameterGrammar) {
  Rng rng(5);
  const Vector own{1.0, -2.0};
  const VectorList honest{{1.0, 0.0}, {3.0, 0.0}};
  const GradientBatch rows = GradientBatch::from(honest);

  EXPECT_EQ(*make_attack("sign-flip:scale=2")->corrupt(own, rows, 0, rng),
            (Vector{-2.0, 4.0}));
  EXPECT_TRUE(
      make_attack("crash:from=3")->corrupt(own, rows, 2, rng).has_value());
  EXPECT_FALSE(
      make_attack("crash:from=3")->corrupt(own, rows, 3, rng).has_value());
  EXPECT_EQ(*make_attack("mimic:target=1")->corrupt(own, rows, 0, rng),
            honest[1]);
  // ipm: -eps * mean(honest) = -0.5 * (2, 0).
  EXPECT_EQ(*make_attack("ipm:eps=0.5")->corrupt(own, rows, 0, rng),
            (Vector{-1.0, 0.0}));
}

// Every registered attack constructs and corrupts a toy round with a
// plausible output (right dimension or silence).
TEST(Registries, EveryAttackConstructsAndCorruptsToyRound) {
  Rng rng(17);
  Vector own{0.5, -1.0, 2.0};
  const GradientBatch honest = GradientBatch::from(
      {{1.0, 0.0, 0.0}, {0.9, 0.1, 0.0}, {1.1, -0.1, 0.1}});
  for (const auto& name : all_attack_names()) {
    const auto attack = make_attack(name);
    ASSERT_NE(attack, nullptr) << name;
    const auto out = attack->corrupt(own, honest, 0, rng);
    if (name == "crash") {
      EXPECT_FALSE(out.has_value()) << name;  // crash:from=0 is silent
      continue;
    }
    ASSERT_TRUE(out.has_value()) << name;
    EXPECT_EQ(out->size(), own.size()) << name;
    for (double x : *out) EXPECT_TRUE(std::isfinite(x)) << name;
  }
}

TEST(Registries, MinMaxStaysWithinHonestDiameter) {
  Rng rng(19);
  const VectorList honest{{1.0, 0.0}, {0.8, 0.2}, {1.2, -0.2}};
  const auto out = *make_attack("min-max")->corrupt(
      honest[0], GradientBatch::from(honest), 0, rng);
  const double budget = diameter(honest);
  for (const auto& g : honest) {
    EXPECT_LE(distance(out, g), budget * (1.0 + 1e-9));
  }
  // ...and is displaced against the mean direction (gamma > 0).
  const Vector mu = mean(honest);
  EXPECT_LT(dot(out, mu), dot(mu, mu));
}

TEST(Registries, PoisonByzantineShardsFlipsOnlyByzantineShards) {
  ml::Dataset data;
  data.num_classes = 10;
  data.channels = data.height = data.width = 1;
  for (std::uint8_t c = 0; c < 10; ++c) {
    data.images.push_back({0.0});
    data.labels.push_back(c);
  }
  const std::vector<std::vector<std::size_t>> shards{
      {0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  ml::Dataset storage;
  // Non-poisoning attack: the original dataset comes back untouched.
  const auto* same = poison_byzantine_shards(*make_attack("sign-flip"), data,
                                             shards, 1, storage);
  EXPECT_EQ(same, &data);
  // label-flip with f=1: only the last shard {7,8,9} is remapped y -> 9-y.
  const auto* poisoned = poison_byzantine_shards(
      *make_attack("label-flip"), data, shards, 1, storage);
  ASSERT_EQ(poisoned, &storage);
  EXPECT_EQ(poisoned->labels[7], 2);
  EXPECT_EQ(poisoned->labels[9], 0);
  EXPECT_EQ(poisoned->labels[0], 0);  // honest shard untouched
  EXPECT_EQ(poisoned->labels[4], 4);
  EXPECT_EQ(data.labels[7], 7);       // caller's dataset untouched
}

TEST(Registries, LabelFlipDeclaresPoisoningAndPassesGradientThrough) {
  Rng rng(23);
  const auto attack = make_attack("label-flip");
  EXPECT_TRUE(attack->poisons_labels());
  EXPECT_FALSE(make_attack("sign-flip")->poisons_labels());
  const Vector own{1.0, 2.0};
  EXPECT_EQ(*attack->corrupt(own, {}, 0, rng), own);
}

// --- runner + emitters -----------------------------------------------------

// Minimal JSON well-formedness check: balanced brackets/braces outside
// strings, non-empty, ends in one top-level array.
void expect_parses_as_json_array(const std::string& text,
                                 std::size_t expected_objects) {
  ASSERT_FALSE(text.empty());
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  std::size_t top_level_objects = 0;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      if (c == '{' && depth == 1) ++top_level_objects;
      ++depth;
    } else if (c == ']' || c == '}') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(top_level_objects, expected_objects);
}

TEST(ScenarioRunner, TwoRoundSmokeScenarioEmitsParsableJson) {
  const std::string path = "scenario_test_smoke.json";
  experiments::ScenarioRunner runner;
  experiments::JsonEmitter json(path);
  std::ostringstream console_out;
  experiments::ConsoleEmitter console(console_out);
  // n=4, f=1 keeps t < n/3; eval-max keeps the smoke test fast.
  const auto specs = std::vector<ScenarioSpec>{
      ScenarioSpec::parse(
          "rule=MEAN attack=none n=4 f=1 rounds=2 eval-max=60"),
      ScenarioSpec::parse(
          "rule=KRUM attack=sign-flip n=4 f=1 rounds=2 eval-max=60"),
  };
  const auto summaries = runner.run_all(specs, {&json, &console});

  ASSERT_EQ(summaries.size(), 2u);
  for (const auto& summary : summaries) {
    EXPECT_EQ(summary.result.history.size(), 2u);
    EXPECT_GT(summary.result.history.back().seconds, 0.0);
    EXPECT_GE(summary.result.final_accuracy, 0.0);
  }
  EXPECT_NE(console_out.str().find("cen/mild/KRUM/sign-flip/f1"),
            std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  expect_parses_as_json_array(buffer.str(), 2);
  EXPECT_NE(buffer.str().find("\"rounds\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"gradient_diameter\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ScenarioRunner, StreamsRoundsLive) {
  experiments::ScenarioRunner runner;
  // The emit_round hook must fire during training (streamed through
  // TrainingConfig::on_round), in round order.
  struct Probe final : experiments::MetricsEmitter {
    std::vector<std::size_t> rounds;
    void emit_round(const ScenarioSpec& /*spec*/,
                    const RoundMetrics& metrics) override {
      rounds.push_back(metrics.round);
    }
  } probe;
  runner.run(ScenarioSpec::parse(
                 "rule=CW-MEDIAN attack=zero n=4 f=1 rounds=3 eval-max=40"),
             {&probe});
  EXPECT_EQ(probe.rounds, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ScenarioRunner, UnknownRuleOrAttackRecordedAsErrorWithNames) {
  // Scenario failures are data, not exceptions (one bad cell must not
  // abort a sweep); the registry menus still arrive in the message.
  experiments::ScenarioRunner runner;
  const auto bad_rule = runner.run(ScenarioSpec::parse("rule=NOPE rounds=1"));
  EXPECT_NE(bad_rule.error.find("BOX-GEOM"), std::string::npos);
  EXPECT_TRUE(bad_rule.result.history.empty());
  const auto bad_attack =
      runner.run(ScenarioSpec::parse("attack=nope rounds=1"));
  EXPECT_NE(bad_attack.error.find("sign-flip"), std::string::npos);
}

TEST(ScenarioRunner, HyperboxSubsetBudgetFailsFastWithNamedError) {
  // n = 31, t = 10 asks BOX-GEOM for C(31, 21) = 44 352 165 subset medians;
  // the rule refuses before enumerating any of them, and the cell records
  // the count and the budget instead of running out of memory.
  experiments::ScenarioRunner runner;
  const auto start = std::chrono::steady_clock::now();
  const auto summary = runner.run(
      ScenarioSpec::parse("rule=BOX-GEOM n=31 f=10 rounds=1 eval-max=50"));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_NE(summary.error.find("BOX-GEOM: C(31, 21) = 44352165"),
            std::string::npos)
      << summary.error;
  EXPECT_NE(summary.error.find("budget of 100000"), std::string::npos)
      << summary.error;
  EXPECT_LT(elapsed.count(), 1.0);
}

TEST(ScenarioRunner, DivergentScenarioDoesNotAbortSweep) {
  experiments::ScenarioRunner runner;
  experiments::JsonEmitter json("scenario_test_divergent.json");
  // MEAN under a factor-1e300 magnitude attack overflows the parameters
  // within a round or two; the non-finite gradients are rejected at the
  // aggregation boundary and must surface as an error summary while the
  // healthy scenario after it still runs and both reach the artifact.
  const auto summaries = runner.run_all(
      {ScenarioSpec::parse(
           "rule=MEAN attack=scale:factor=1e300 n=4 f=1 rounds=4 "
           "eval-max=40"),
       ScenarioSpec::parse(
           "rule=CW-MEDIAN attack=none n=4 f=1 rounds=2 eval-max=40")},
      {&json});
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_NE(summaries[0].error.find("non-finite"), std::string::npos);
  EXPECT_TRUE(summaries[1].error.empty());
  EXPECT_EQ(summaries[1].result.history.size(), 2u);
  std::ifstream in("scenario_test_divergent.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  expect_parses_as_json_array(buffer.str(), 2);
  EXPECT_NE(buffer.str().find("non-finite"), std::string::npos);
  std::remove("scenario_test_divergent.json");
}

TEST(ScenarioRunner, LabelFlipScenarioRuns) {
  experiments::ScenarioRunner runner;
  const auto summary = runner.run(ScenarioSpec::parse(
      "rule=CW-MEDIAN attack=label-flip n=4 f=1 rounds=2 eval-max=40"));
  EXPECT_EQ(summary.result.history.size(), 2u);
}

TEST(ScenarioRunner, ParallelJobsMatchSerialBitwiseInOrder) {
  // Same sweep serial and with jobs=3: every cell is deterministic from
  // its seed and emitter replay is in spec order, so histories and the
  // emitted artifact rows must agree exactly.
  const std::vector<ScenarioSpec> specs = {
      ScenarioSpec::parse("rule=MEAN attack=none n=4 f=1 rounds=2 "
                          "eval-max=40"),
      ScenarioSpec::parse("rule=KRUM attack=sign-flip n=4 f=1 rounds=2 "
                          "eval-max=40"),
      ScenarioSpec::parse("topology=decentralized rule=BOX-GEOM "
                          "attack=sign-flip n=4 f=1 rounds=2 eval-max=40"),
      ScenarioSpec::parse("rule=CW-MEDIAN attack=zero n=4 f=1 rounds=2 "
                          "eval-max=40"),
      // The scale= and cohort= keys must replay bitwise under --jobs too:
      // an explicit scale= cell and a sampled-cohort + sharded cell.
      ScenarioSpec::parse("scale=reduced rule=MEDOID attack=zero n=4 f=1 "
                          "rounds=2 eval-max=40"),
      ScenarioSpec::parse("rule=TRIM-MEAN attack=sign-flip n=12 f=2 "
                          "rounds=2 eval-max=40 cohort=0.6,shards=2")};
  experiments::ScenarioRunner serial_runner;
  const auto serial = serial_runner.run_all(specs);
  experiments::ScenarioRunner parallel_runner;
  experiments::JsonEmitter json("scenario_test_parallel.json");
  const auto parallel = parallel_runner.run_all(specs, {&json}, /*jobs=*/3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].spec, parallel[i].spec);  // order preserved
    ASSERT_EQ(serial[i].result.history.size(),
              parallel[i].result.history.size());
    for (std::size_t r = 0; r < serial[i].result.history.size(); ++r) {
      EXPECT_EQ(serial[i].result.history[r].accuracy,
                parallel[i].result.history[r].accuracy);
      EXPECT_EQ(serial[i].result.history[r].mean_honest_loss,
                parallel[i].result.history[r].mean_honest_loss);
    }
  }
  // The artifact holds all cells in spec order.
  std::ifstream in("scenario_test_parallel.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  expect_parses_as_json_array(buffer.str(), specs.size());
  EXPECT_LT(buffer.str().find("MEAN"), buffer.str().find("KRUM"));
  std::remove("scenario_test_parallel.json");
}

// --- cohort determinism ----------------------------------------------------

// ISSUE 8 acceptance criterion: cohort=1,shards=1 routes the full
// membership through the streaming GradientBatch path, and that path must
// be bitwise identical to the pre-cohort lockstep loop — same RNG splits,
// same aggregation inputs in the same row order, same evaluation.
TEST(ScenarioRunner, FullCohortIsBitwiseIdenticalToLockstep) {
  const char* base =
      "rule=CW-MEDIAN attack=sign-flip n=6 f=1 rounds=3 eval-max=40";
  experiments::ScenarioRunner runner;
  const auto lockstep = runner.run(ScenarioSpec::parse(base));
  auto spec = ScenarioSpec::parse(base);
  spec.set("cohort", "1,shards=1");
  const auto streaming = runner.run(spec);
  ASSERT_TRUE(lockstep.error.empty()) << lockstep.error;
  ASSERT_TRUE(streaming.error.empty()) << streaming.error;
  ASSERT_EQ(lockstep.result.history.size(), streaming.result.history.size());
  for (std::size_t r = 0; r < lockstep.result.history.size(); ++r) {
    const auto& a = lockstep.result.history[r];
    const auto& b = streaming.result.history[r];
    EXPECT_EQ(a.accuracy, b.accuracy) << r;
    EXPECT_EQ(a.mean_honest_loss, b.mean_honest_loss) << r;
    EXPECT_EQ(a.gradient_diameter, b.gradient_diameter) << r;
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered) << r;
    // Both paths report the full membership as the round's cohort.
    EXPECT_EQ(a.cohort, b.cohort) << r;
    EXPECT_EQ(b.cohort, 6.0) << r;
  }
  EXPECT_EQ(lockstep.result.final_accuracy, streaming.result.final_accuracy);
}

// Sharded-aggregation determinism: when shard rule and root rule are both
// the exact mean, the hierarchy collapses to the global mean in input row
// order, so the shard count must not perturb a single bit of the history.
TEST(ScenarioRunner, MeanRootShardCountDoesNotChangeHistory) {
  experiments::ScenarioRunner runner;
  std::vector<experiments::ScenarioSummary> runs;
  for (const char* shards : {"1", "4", "16"}) {
    auto spec = ScenarioSpec::parse(
        "rule=MEAN attack=none n=8 f=1 rounds=2 eval-max=40");
    spec.set("cohort", std::string("1,shards=") + shards);
    runs.push_back(runner.run(spec));
    ASSERT_TRUE(runs.back().error.empty()) << runs.back().error;
  }
  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[0].result.history.size(), runs[v].result.history.size());
    for (std::size_t r = 0; r < runs[0].result.history.size(); ++r) {
      const auto& a = runs[0].result.history[r];
      const auto& b = runs[v].result.history[r];
      EXPECT_EQ(a.accuracy, b.accuracy) << v << "/" << r;
      EXPECT_EQ(a.mean_honest_loss, b.mean_honest_loss) << v << "/" << r;
      EXPECT_EQ(a.gradient_diameter, b.gradient_diameter) << v << "/" << r;
      EXPECT_EQ(a.bytes_delivered, b.bytes_delivered) << v << "/" << r;
    }
  }
}

// Sharded aggregation forwards the metrics registry into every shard and
// root aggregation, so the sketched screens of a sharded round publish
// their certification counters: at least one screen per shard per round.
TEST(ScenarioRunner, ShardedSketchScreensPublishCounters) {
  experiments::ScenarioRunner runner;
  const auto summary = runner.run(ScenarioSpec::parse(
      "rule=KRUM attack=sign-flip n=40 f=3 rounds=2 eval-max=40 "
      "cohort=1,shards=4 sketch=on"));
  ASSERT_TRUE(summary.error.empty()) << summary.error;
  const auto screens = summary.metrics.counter_or("sketch.certified") +
                       summary.metrics.counter_or("sketch.fallbacks");
  EXPECT_GE(screens, 2u * 4u);
}

TEST(ScenarioRunner, CohortOnDecentralizedIsAnErrorSummary) {
  // cohort= is a server-side mechanism; on the decentralized topology the
  // runner records the mismatch as the cell's error (sweeps keep going).
  experiments::ScenarioRunner runner;
  const auto summary = runner.run(ScenarioSpec::parse(
      "topology=decentralized rule=BOX-GEOM attack=none n=4 f=1 rounds=1 "
      "eval-max=40 cohort=0.5"));
  EXPECT_NE(summary.error.find("topology=centralized"), std::string::npos)
      << summary.error;
  EXPECT_TRUE(summary.result.history.empty());
}

TEST(ScenarioRunner, AsyncNetScenarioReportsSimulatedSeconds) {
  experiments::ScenarioRunner runner;
  const auto summary = runner.run(ScenarioSpec::parse(
      "rule=CW-MEDIAN attack=none n=4 f=1 rounds=2 eval-max=40 "
      "net=async:delay=const,mean=3"));
  ASSERT_TRUE(summary.error.empty()) << summary.error;
  ASSERT_EQ(summary.result.history.size(), 2u);
  for (const auto& metrics : summary.result.history) {
    EXPECT_GT(metrics.sim_seconds, 0.0);
  }
}

TEST(SweepExpansion, GridMatchesExecutedCellOrder) {
  // The contract behind `bcl_run --dry-run`: expand_sweep's grid, in
  // order, is exactly the sequence of cells a run would execute — so the
  // printed dry-run lines can be trusted cell for cell.
  experiments::SweepAxes axes;
  axes.rules = {"MEAN", "KRUM"};
  axes.attacks = {"none", "sign-flip"};
  axes.comps = {"identity", "topk:frac=0.5"};
  const auto specs =
      experiments::expand_sweep(axes, [](ScenarioSpec& spec) {
        spec.set("n", "4");
        spec.set("rounds", "1");
        spec.set("eval-max", "20");
      });
  ASSERT_EQ(specs.size(), 8u);
  // comp is an outer axis relative to rule/attack: the first four cells
  // are identity, the last four topk, each in rule-major order.
  EXPECT_EQ(specs[0].comp, "identity");
  EXPECT_EQ(specs[4].comp, "topk:frac=0.5");
  EXPECT_EQ(specs[0].rule, "MEAN");
  EXPECT_EQ(specs[1].attack, "sign-flip");
  EXPECT_EQ(specs[2].rule, "KRUM");

  // Execute the grid and record the begin_scenario order.
  struct OrderProbe final : experiments::MetricsEmitter {
    std::vector<std::string> begun;
    void begin_scenario(const ScenarioSpec& spec) override {
      begun.push_back(spec.to_string());
    }
  } probe;
  experiments::ScenarioRunner runner;
  runner.run_all(specs, {&probe});
  ASSERT_EQ(probe.begun.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(probe.begun[i], specs[i].to_string()) << i;
  }
}

TEST(SweepExpansion, InvalidAxisValueFailsBeforeAnyCell) {
  experiments::SweepAxes axes;
  axes.comps = {"identity", "gzip"};
  EXPECT_THROW(experiments::expand_sweep(axes), std::invalid_argument);
  axes.comps = {"identity"};
  axes.nets = {"wireless"};
  EXPECT_THROW(experiments::expand_sweep(axes), std::invalid_argument);
}

TEST(ScenarioRunner, FixedSubroundsHonoured) {
  experiments::ScenarioRunner runner;
  // With full synchrony one sub-round reaches exact agreement; the spec
  // only needs to run, proving the subrounds key reaches the trainer.
  const auto summary = runner.run(ScenarioSpec::parse(
      "topology=decentralized rule=BOX-MEAN attack=crash n=4 f=1 "
      "subrounds=2 rounds=2 eval-max=40"));
  EXPECT_EQ(summary.result.history.size(), 2u);
}

}  // namespace
}  // namespace bcl
