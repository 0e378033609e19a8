// Tests for the model extensions: honest-message delays ("receive up to n
// messages") and non-finite input hardening.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "aggregation/registry.hpp"
#include "agreement/protocol.hpp"
#include "linalg/hyperbox.hpp"
#include "network/adversary.hpp"
#include "network/event_network.hpp"
#include "util/rng.hpp"

namespace bcl {
namespace {

// --- honest-message delays ---

class CountingProcess final : public HonestProcess {
 public:
  explicit CountingProcess(std::size_t id) : id_(id) {}
  Vector outgoing(std::size_t) const override {
    return {static_cast<double>(id_)};
  }
  void receive(std::size_t, std::vector<Message>&& inbox) override {
    last_inbox_size_ = inbox.size();
  }
  std::size_t last_inbox_size() const { return last_inbox_size_; }

 private:
  std::size_t id_;
  std::size_t last_inbox_size_ = 0;
};

TEST(Delays, NeverBelowFloor) {
  const std::size_t n = 6;
  const std::size_t t = 1;
  std::vector<std::unique_ptr<CountingProcess>> procs;
  std::vector<HonestProcess*> pointers;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<CountingProcess>(i));
    pointers.push_back(procs.back().get());
  }
  NoAdversary inner;
  // Request to delay EVERY honest message; the floor must clamp.
  DelayingAdversary adversary(inner, 1.0, 7);
  EventNetworkConfig config;
  config.quorum = n - t;
  EventNetwork net(pointers, adversary, config);
  net.run(4);
  for (const auto& p : procs) {
    EXPECT_EQ(p->last_inbox_size(), n - t);
  }
  EXPECT_GT(net.stats().messages_delayed, 0u);
}

TEST(Delays, DefaultNetworkIgnoresDelayRequests) {
  const std::size_t n = 4;
  std::vector<std::unique_ptr<CountingProcess>> procs;
  std::vector<HonestProcess*> pointers;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<CountingProcess>(i));
    pointers.push_back(procs.back().get());
  }
  NoAdversary inner;
  DelayingAdversary adversary(inner, 1.0, 7);
  EventNetwork net(pointers, adversary);  // default quorum: full synchrony
  net.run_round();
  for (const auto& p : procs) {
    EXPECT_EQ(p->last_inbox_size(), n);
  }
  EXPECT_EQ(net.stats().messages_delayed, 0u);
}

TEST(Delays, ZeroProbabilityDelaysNothing) {
  NoAdversary inner;
  DelayingAdversary adversary(inner, 0.0, 3);
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_FALSE(adversary.delays_honest(s, r, 0));
    }
  }
}

TEST(Delays, InvalidProbabilityThrows) {
  NoAdversary inner;
  EXPECT_THROW(DelayingAdversary(inner, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(DelayingAdversary(inner, 1.5, 1), std::invalid_argument);
}

TEST(Delays, DecisionIsDeterministicAndOrderFree) {
  NoAdversary inner;
  DelayingAdversary a(inner, 0.5, 99);
  DelayingAdversary b(inner, 0.5, 99);
  // Query in different orders; decisions must match link-by-link.
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(a.delays_honest(s, 0, r), b.delays_honest(s, 0, r));
    }
  }
  EXPECT_EQ(a.delays_honest(2, 1, 0), b.delays_honest(2, 1, 0));
}

TEST(Delays, WrapsInnerByzantineBehaviour) {
  FixedVectorAdversary inner({2}, {9.0});
  DelayingAdversary adversary(inner, 0.3, 5);
  EXPECT_TRUE(adversary.is_byzantine(2));
  EXPECT_FALSE(adversary.is_byzantine(0));
  const auto v = adversary.byzantine_value(2, 0, {});
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ((*v)[0], 9.0);
}

TEST(Delays, BoxGeomAgreementStillConvergesUnderDelays) {
  // Theorem 4.4's proof explicitly covers unequal inbox sizes m_i != m_j;
  // the protocol must converge with random honest delays down to n - t.
  Rng rng(11);
  const std::size_t n = 10;
  const std::size_t t = 2;
  VectorList inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back({rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)});
  }
  SignFlipAdversary byz({8, 9});
  DelayingAdversary adversary(byz, 0.4, 13);
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.rule = make_rule("BOX-GEOM");
  cfg.epsilon = 1e-4;
  cfg.max_rounds = 80;
  const auto result = run_approximate_agreement(GradientBatch::from(inputs),
                                                adversary, cfg);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.network.messages_delayed, 0u);
  // Validity still holds.
  VectorList honest_inputs(inputs.begin(), inputs.begin() + (n - t));
  const Hyperbox box = Hyperbox::bounding(GradientBatch::from(honest_inputs));
  for (const auto& out : result.outputs) {
    EXPECT_TRUE(box.contains(out, 1e-6));
  }
}

TEST(Delays, EmaxStillHalvesUnderDelays) {
  Rng rng(12);
  const std::size_t n = 10;
  VectorList inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back({rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                      rng.uniform(-3.0, 3.0)});
  }
  SignFlipAdversary byz({8, 9});
  DelayingAdversary adversary(byz, 0.3, 17);
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = 2;
  cfg.rule = make_rule("BOX-GEOM");
  cfg.epsilon = 0.0;
  const auto result = run_fixed_rounds_agreement(GradientBatch::from(inputs),
                                                 adversary, 6, cfg);
  const auto& edges = result.trace.honest_max_edge;
  for (std::size_t r = 0; r + 1 < edges.size(); ++r) {
    EXPECT_LE(edges[r + 1], 0.5 * edges[r] + 1e-9);
  }
}

// --- non-finite input hardening ---

class FiniteInputTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FiniteInputTest, NonFiniteInputsRejected) {
  const auto rule = make_rule(GetParam());
  AggregationContext ctx;
  ctx.n = 4;
  ctx.t = 1;
  VectorList nan_inputs{{0.0}, {1.0}, {std::nan("")}, {2.0}};
  VectorList inf_inputs{{0.0}, {1.0},
                        {std::numeric_limits<double>::infinity()}, {2.0}};
  EXPECT_THROW(rule->aggregate(nan_inputs, ctx), std::invalid_argument);
  EXPECT_THROW(rule->aggregate(inf_inputs, ctx), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllRules, FiniteInputTest,
                         ::testing::ValuesIn(all_rule_names()));

}  // namespace
}  // namespace bcl
