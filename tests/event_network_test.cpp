// Tests for the discrete-event network core: the NetConfig grammar, the
// delay models, event delivery / timeout / drop / late accounting
// (NetworkStats), adversarial scheduling power, and the sync-vs-event
// equivalence contract — the zero-delay event engine must reproduce the
// synchronous engine bitwise across agreement and learning.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "agreement/protocol.hpp"
#include "aggregation/registry.hpp"
#include "attacks/registry.hpp"
#include "learning/decentralized.hpp"
#include "ml/architectures.hpp"
#include "ml/dataset.hpp"
#include "network/adversary.hpp"
#include "network/delay_model.hpp"
#include "network/event_network.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

// --- NetConfig grammar -----------------------------------------------------

TEST(NetConfig, SyncDefault) {
  const NetConfig config = NetConfig::parse("sync");
  EXPECT_FALSE(config.async);
  EXPECT_EQ(config.to_string(), "sync");
}

TEST(NetConfig, ParseToStringRoundTrips) {
  for (const char* text :
       {"sync", "async", "async:delay=zero", "async:delay=const,mean=2.5",
        "async:delay=exp,mean=5", "async:delay=uniform,min=1,max=3",
        "async:delay=mmpp,mean=1,mean2=20,p01=0.2,p10=0.4",
        "async:delay=partition,mean=1,penalty=40,until=8",
        "async:delay=exp,mean=5,drop=0.01,timeout=50,adv=2",
        // Keys the family does not consume still round-trip.
        "async:delay=exp,min=2,max=9"}) {
    const NetConfig config = NetConfig::parse(text);
    EXPECT_EQ(NetConfig::parse(config.to_string()), config)
        << "round trip failed for '" << text << "'";
  }
}

TEST(NetConfig, RejectsUnknownModeFamilyAndKeys) {
  EXPECT_THROW(NetConfig::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(NetConfig::parse("sync:delay=exp"), std::invalid_argument);
  EXPECT_THROW(NetConfig::parse("async:delay=gamma"), std::invalid_argument);
  EXPECT_THROW(NetConfig::parse("async:latency=5"), std::invalid_argument);
  EXPECT_THROW(NetConfig::parse("async:delay=exp,mean="),
               std::invalid_argument);
  EXPECT_THROW(NetConfig::parse("async:drop=1.5"), std::invalid_argument);
  EXPECT_THROW(NetConfig::parse("async:delay=uniform,min=3,max=1"),
               std::invalid_argument);
}

// --- delay models ----------------------------------------------------------

TEST(DelayModel, MessageStreamIsDeterministicPerKey) {
  Rng a = message_stream(7, 1, 2, 3);
  Rng b = message_stream(7, 1, 2, 3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c = message_stream(7, 2, 1, 3);  // direction matters
  EXPECT_NE(message_stream(7, 1, 2, 3).next_u64(), c.next_u64());
}

TEST(DelayModel, SamplesMatchConfiguredFamilies) {
  const NetConfig constant = NetConfig::parse("async:delay=const,mean=2.5");
  auto model = make_delay_model(constant, 10);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(model->sample(0, 1, 0, rng), 2.5);

  const NetConfig uniform =
      NetConfig::parse("async:delay=uniform,min=1,max=3");
  auto uniform_model = make_delay_model(uniform, 10);
  for (int i = 0; i < 200; ++i) {
    const double d = uniform_model->sample(0, 1, 0, rng);
    EXPECT_GE(d, 1.0);
    EXPECT_LT(d, 3.0);
  }

  const NetConfig exponential = NetConfig::parse("async:delay=exp,mean=5");
  auto exp_model = make_delay_model(exponential, 10);
  double sum = 0.0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) sum += exp_model->sample(0, 1, 0, rng);
  EXPECT_NEAR(sum / draws, 5.0, 0.3);  // LLN at 20k draws
}

TEST(DelayModel, MmppStateIsDeterministicAndBursty) {
  const NetConfig config =
      NetConfig::parse("async:delay=mmpp,mean=0.5,mean2=50,p01=0.3,p10=0.3");
  MmppDelayModel a(0.5, 50.0, 0.3, 0.3, /*seed=*/11);
  MmppDelayModel b(0.5, 50.0, 0.3, 0.3, /*seed=*/11);
  // Query out of order: state must be a pure function of (sender, round).
  EXPECT_EQ(a.congested(0, 40), b.congested(0, 40));
  for (std::size_t r = 0; r < 40; ++r) {
    EXPECT_EQ(a.congested(0, r), b.congested(0, r));
  }
  // With symmetric switching both states must appear over a long horizon.
  bool saw_calm = false;
  bool saw_burst = false;
  for (std::size_t r = 0; r < 200; ++r) {
    (a.congested(0, r) ? saw_burst : saw_calm) = true;
  }
  EXPECT_TRUE(saw_calm);
  EXPECT_TRUE(saw_burst);
  // Burstiness: the marginal latency mixes a slow and a fast mode, so its
  // coefficient of variation exceeds an exponential's (the MMPP > 1
  // property that motivates the model).
  auto model = make_delay_model(config, 10);
  Rng rng(3);
  std::vector<double> draws;
  for (std::size_t r = 0; r < 4000; ++r) {
    draws.push_back(model->sample(0, 1, r, rng));
  }
  double mean = 0.0;
  for (double d : draws) mean += d;
  mean /= static_cast<double>(draws.size());
  double var = 0.0;
  for (double d : draws) var += (d - mean) * (d - mean);
  var /= static_cast<double>(draws.size());
  EXPECT_GT(var / (mean * mean), 1.2);  // exponential would give ~1
}

TEST(DelayModel, MmppWindowedCountsAreOverdispersed) {
  // The defining MMPP property from the arrival-process literature: treat
  // successive per-round latencies as inter-arrival gaps of a point
  // process and count arrivals in fixed time windows — the squared
  // coefficient of variation (index of dispersion) of the per-window
  // counts exceeds 1, whereas a Poisson (exponential) stream sits at ~1.
  // Long dwell times (p01 = p10 = 0.05) make the bursts macroscopic.
  const auto dispersion = [](DelayModel& model) {
    std::vector<double> arrivals;
    double t = 0.0;
    for (std::size_t r = 0; r < 20000; ++r) {
      Rng rng = message_stream(17, 0, 1, r);
      t += model.sample(0, 1, r, rng);
      arrivals.push_back(t);
    }
    const double window = t / 400.0;  // ~50 arrivals per window on average
    std::vector<double> counts(400, 0.0);
    for (double a : arrivals) {
      const auto w = static_cast<std::size_t>(a / window);
      if (w < counts.size()) counts[w] += 1.0;
    }
    double mean = 0.0;
    for (double c : counts) mean += c;
    mean /= static_cast<double>(counts.size());
    double var = 0.0;
    for (double c : counts) var += (c - mean) * (c - mean);
    var /= static_cast<double>(counts.size());
    return var / mean;
  };

  MmppDelayModel mmpp(/*calm_mean=*/1.0, /*burst_mean=*/20.0, /*p01=*/0.05,
                      /*p10=*/0.05, /*seed=*/23);
  ExponentialDelayModel exponential(1.0);
  EXPECT_GT(dispersion(mmpp), 1.5);
  EXPECT_LT(dispersion(exponential), 1.3);  // Poisson control stays near 1
}

TEST(DelayModel, PartitionPenalizesCrossLinksUntilHealed) {
  PartitionDelayModel model(/*base_mean=*/0.0, /*penalty=*/40.0,
                            /*until=*/5, /*boundary=*/2);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(model.sample(0, 1, 0, rng), 0.0);    // same camp
  EXPECT_DOUBLE_EQ(model.sample(0, 3, 0, rng), 40.0);   // cross, partitioned
  EXPECT_DOUBLE_EQ(model.sample(0, 3, 5, rng), 0.0);    // healed
  PartitionDelayModel hard(0.0, /*penalty=*/-1.0, 5, 2);
  EXPECT_LT(hard.sample(3, 0, 2, rng), 0.0);  // hard partition drops
}

// --- event engine ----------------------------------------------------------

/// Owned copy of a delivered message: payloads are views valid only during
/// receive(), so a recorder that keeps them must materialize them.
struct Recorded {
  std::size_t sender = 0;
  Vector payload;
};

using RecordedInboxes = std::map<std::size_t, std::vector<Recorded>>;

/// Records everything it receives; broadcasts a constant tagged by id.
class RecordingProcess final : public HonestProcess {
 public:
  explicit RecordingProcess(std::size_t id) : id_(id) {}
  Vector outgoing(std::size_t /*round*/) const override {
    return {static_cast<double>(id_)};
  }
  void receive(std::size_t round, std::vector<Message>&& inbox) override {
    auto& recorded = inboxes_[round];
    recorded.reserve(inbox.size());
    for (const Message& msg : inbox) {
      recorded.push_back({msg.sender, msg.payload.to_vector()});
    }
  }
  const RecordedInboxes& inboxes() const { return inboxes_; }

 private:
  std::size_t id_;
  RecordedInboxes inboxes_;
};

struct Fleet {
  std::vector<std::unique_ptr<RecordingProcess>> owned;
  std::vector<HonestProcess*> pointers;
  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<RecordingProcess>(i));
      pointers.push_back(owned.back().get());
    }
  }
};

TEST(EventNetwork, ZeroDelayModelMatchesDefaultConfigBitwise) {
  const std::size_t n = 6;
  const std::size_t rounds = 4;
  Fleet sync_fleet(n);
  Fleet event_fleet(n);
  NoAdversary sync_adv;
  NoAdversary event_adv;
  EventNetworkConfig sync_config;
  sync_config.quorum = n - 1;
  EventNetwork sync_net(sync_fleet.pointers, sync_adv, sync_config);
  ZeroDelayModel zero;
  EventNetworkConfig config;
  config.quorum = n - 1;
  config.timeout = 0.0;
  config.delay = &zero;
  EventNetwork event_net(event_fleet.pointers, event_adv, config);
  sync_net.run(rounds);
  event_net.run(rounds);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto& a = sync_fleet.owned[i]->inboxes().at(r);
      const auto& b = event_fleet.owned[i]->inboxes().at(r);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].sender, b[k].sender);
        EXPECT_EQ(a[k].payload, b[k].payload);
      }
    }
  }
  EXPECT_EQ(sync_net.stats().messages_delivered,
            event_net.stats().messages_delivered);
  EXPECT_EQ(event_net.now(), 0.0);  // zero simulated time under synchrony
}

TEST(EventNetwork, ConstantDelayAdvancesSimulatedTime) {
  const std::size_t n = 4;
  Fleet fleet(n);
  NoAdversary adversary;
  ConstantDelayModel delay(2.0);
  EventNetworkConfig config;
  config.quorum = n;  // wait for everyone
  config.timeout = -1.0;
  config.delay = &delay;
  EventNetwork net(fleet.pointers, adversary, config);
  net.run(3);
  // Every round waits for the slowest link (2.0): rounds complete at 2, 4, 6.
  ASSERT_EQ(net.round_end_times().size(), 3u);
  EXPECT_DOUBLE_EQ(net.round_end_times()[0], 2.0);
  EXPECT_DOUBLE_EQ(net.round_end_times()[1], 4.0);
  EXPECT_DOUBLE_EQ(net.round_end_times()[2], 6.0);
  EXPECT_DOUBLE_EQ(net.last_round_latency(), 2.0);
  // Full delivery: all n^2 messages per round arrived in time.
  EXPECT_EQ(net.stats().messages_delivered, 3 * n * n);
  EXPECT_EQ(net.stats().messages_late, 0u);
}

/// Broadcasts a fixed-dimension payload and reports a custom wire size,
/// like a compressing node would.
class WireProcess final : public HonestProcess {
 public:
  WireProcess(std::size_t id, std::size_t dim, std::size_t wire)
      : id_(id), dim_(dim), wire_(wire) {}
  Vector outgoing(std::size_t /*round*/) const override {
    return Vector(dim_, static_cast<double>(id_));
  }
  std::size_t outgoing_wire_bytes(std::size_t /*round*/) const override {
    return wire_;
  }
  void receive(std::size_t, std::vector<Message>&& inbox) override {
    last_wire_.clear();
    for (const Message& msg : inbox) last_wire_.push_back(msg.wire_bytes);
  }
  const std::vector<std::size_t>& last_wire() const { return last_wire_; }

 private:
  std::size_t id_, dim_, wire_;
  std::vector<std::size_t> last_wire_;
};

TEST(EventNetwork, WireBytesAccountingAndBandwidthDelay) {
  // 3 nodes, 100-double payloads compressed to 50 bytes on the wire, a
  // 1-second propagation and 50 bytes/s of bandwidth: every real-link
  // delivery lands at 1 + 50/50 = 2 simulated seconds, and the byte
  // counters cover real links only (self-delivery is a local loopback).
  const std::size_t n = 3;
  const std::size_t dim = 100;
  const std::size_t wire = 50;
  std::vector<std::unique_ptr<WireProcess>> owned;
  std::vector<HonestProcess*> pointers;
  for (std::size_t i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<WireProcess>(i, dim, wire));
    pointers.push_back(owned.back().get());
  }
  NoAdversary adversary;
  ConstantDelayModel delay(1.0);
  EventNetworkConfig config;
  config.quorum = n;
  config.timeout = -1.0;
  config.delay = &delay;
  config.bandwidth = 50.0;
  EventNetwork net(pointers, adversary, config);
  net.run(2);

  EXPECT_DOUBLE_EQ(net.round_end_times()[0], 2.0);
  EXPECT_DOUBLE_EQ(net.round_end_times()[1], 4.0);
  const NetworkStats& stats = net.stats();
  const std::size_t real_links = 2 * n * (n - 1);  // 2 rounds, no self
  EXPECT_EQ(stats.messages_delivered, 2 * n * n);  // inboxes include self
  EXPECT_EQ(stats.bytes_sent, real_links * wire);
  EXPECT_EQ(stats.bytes_delivered, real_links * wire);
  EXPECT_EQ(stats.bytes_dense_delivered,
            real_links * dim * sizeof(double));
  // The inbox messages carry their sender's declared wire size.
  for (const std::size_t delivered_wire : owned[0]->last_wire()) {
    EXPECT_EQ(delivered_wire, wire);
  }
}

TEST(EventNetwork, QuorumAdvanceLeavesStragglersLate) {
  // Heterogeneous constant delays per link are not expressible with the
  // stock models, so drive quorum behaviour with a uniform distribution:
  // with quorum n - 2, each node advances at its (n-2)-th arrival and the
  // two slowest messages of some round will typically land late.
  const std::size_t n = 6;
  Fleet fleet(n);
  NoAdversary adversary;
  UniformDelayModel delay(0.5, 10.0);
  EventNetworkConfig config;
  config.quorum = n - 2;
  config.timeout = -1.0;
  config.delay = &delay;
  config.seed = 42;
  EventNetwork net(fleet.pointers, adversary, config);
  net.run(5);
  const auto& stats = net.stats();
  EXPECT_EQ(stats.rounds, 5u);
  EXPECT_GT(stats.messages_late, 0u);
  // Every message is accounted exactly once — delivered, late, dropped or
  // delayed — except last-round stragglers still in flight when the run
  // stops (at most the 2 beyond-quorum messages per receiver).
  const std::size_t accounted = stats.messages_delivered +
                                stats.messages_late +
                                stats.messages_dropped +
                                stats.messages_delayed;
  EXPECT_LE(accounted, 5 * n * n);
  EXPECT_GE(accounted, 5 * n * n - 2 * n);
  // Inboxes never resolve below the quorum (no timeouts configured).
  for (const auto& proc : fleet.owned) {
    for (const auto& [round, inbox] : proc->inboxes()) {
      (void)round;
      EXPECT_GE(inbox.size(), n - 2);
    }
  }
  EXPECT_EQ(stats.timeouts_fired, 0u);
}

TEST(EventNetwork, DropAndTimeoutAccounting) {
  const std::size_t n = 5;
  Fleet fleet(n);
  NoAdversary adversary;
  EventNetworkConfig config;
  config.quorum = n;           // unreachable under loss
  config.timeout = 3.0;        // partial synchrony opens the round
  config.drop_probability = 0.4;
  config.seed = 9;
  EventNetwork net(fleet.pointers, adversary, config);
  net.run(6);
  const auto& stats = net.stats();
  EXPECT_EQ(stats.rounds, 6u);
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_GT(stats.timeouts_fired, 0u);
  EXPECT_EQ(stats.messages_delivered + stats.messages_late +
                stats.messages_dropped + stats.messages_delayed,
            6 * n * n);
  // Timeout pacing: each round takes exactly Delta (drops force it).
  ASSERT_GE(net.round_end_times().size(), 1u);
  EXPECT_GT(net.now(), 0.0);
}

TEST(EventNetwork, QueueDryForcesStalledRoundsOpen) {
  const std::size_t n = 3;
  Fleet fleet(n);
  NoAdversary adversary;
  EventNetworkConfig config;
  config.quorum = n;
  config.timeout = -1.0;       // no timeout at all
  config.drop_probability = 0.9;
  config.seed = 4;
  EventNetwork net(fleet.pointers, adversary, config);
  net.run(3);  // must terminate even though quorum is hopeless
  EXPECT_EQ(net.stats().rounds, 3u);
  EXPECT_GT(net.stats().timeouts_fired, 0u);
}

TEST(EventNetwork, ByzantineStatsMatchSyncSemantics) {
  // One Byzantine node omitting towards camp 2 (SplitWorld): the event
  // engine must count omissions/deliveries exactly like the sync engine.
  Fleet fleet(4);
  auto pointers = fleet.pointers;
  pointers.push_back(nullptr);
  pointers.push_back(nullptr);
  SplitWorldAdversary adversary({0, 1}, {2, 3}, {4}, {5});
  EventNetworkConfig config;
  EventNetwork net(pointers, adversary, config);
  net.run_round();
  // Each Byzantine supporter delivers to its 2-camp + omits the other 2.
  EXPECT_EQ(net.stats().messages_omitted, 4u);
  EXPECT_EQ(net.stats().messages_delivered, 4u * 4u + 4u);
}

/// Fault-free adversary that requests a huge targeted delay on every link.
class SlowEverythingAdversary final : public Adversary {
 public:
  bool is_byzantine(std::size_t) const override { return false; }
  std::optional<Vector> byzantine_value(
      std::size_t, std::size_t,
      const std::vector<std::optional<Vector>>&) override {
    return std::nullopt;
  }
  double scheduling_delay(std::size_t, std::size_t, std::size_t) override {
    return 1e9;
  }
};

TEST(EventNetwork, AdversarialSchedulingDelayIsClampedToBound) {
  const std::size_t n = 3;
  Fleet fleet(n);
  SlowEverythingAdversary adversary;
  EventNetworkConfig config;
  config.quorum = n;
  config.timeout = -1.0;
  config.adversary_delay_bound = 2.0;  // partial-synchrony bound
  EventNetwork net(fleet.pointers, adversary, config);
  net.run(2);
  // Every non-self link pays exactly the clamped bound; rounds complete at
  // 2 and 4, never at the adversary's requested 1e9.
  ASSERT_EQ(net.round_end_times().size(), 2u);
  EXPECT_DOUBLE_EQ(net.round_end_times()[0], 2.0);
  EXPECT_DOUBLE_EQ(net.round_end_times()[1], 4.0);
}

// --- sharded-core determinism ----------------------------------------------

/// One full adversarial async run captured for bitwise comparison.
struct RunCapture {
  std::vector<RecordedInboxes> inboxes;
  NetworkStats stats;
  std::vector<double> ends;
};

/// A messy configuration on purpose: bursty per-sender MMPP state (the one
/// stateful delay model), loss, partial-synchrony timeouts, a Byzantine
/// broadcaster, and a quorum that lets fast nodes run ahead of slow ones.
RunCapture run_sharded(ThreadPool* pool, const char* family) {
  const std::size_t n = 6;
  Fleet fleet(n);
  auto pointers = fleet.pointers;
  pointers.push_back(nullptr);  // id 6 is Byzantine
  FixedVectorAdversary adversary({6}, {42.0});
  NetConfig net = NetConfig::parse(std::string("async:delay=") + family +
                                   ",mean=2,mean2=20,p01=0.2,p10=0.4");
  net.seed = 31;
  auto delay = make_delay_model(net, n + 1);
  EventNetworkConfig config;
  config.quorum = n;  // n of n+1: one message may lag behind each advance
  config.timeout = 15.0;
  config.drop_probability = 0.05;
  config.seed = 31;
  config.delay = delay.get();
  config.pool = pool;
  EventNetwork engine(pointers, adversary, config);
  engine.run(5);
  RunCapture out;
  for (auto& proc : fleet.owned) out.inboxes.push_back(proc->inboxes());
  out.stats = engine.stats();
  out.ends = engine.round_end_times();
  return out;
}

void expect_bitwise_equal(const RunCapture& a, const RunCapture& b) {
  ASSERT_EQ(a.ends.size(), b.ends.size());
  for (std::size_t r = 0; r < a.ends.size(); ++r) {
    EXPECT_EQ(a.ends[r], b.ends[r]);  // exact, not approximate
  }
  ASSERT_EQ(a.inboxes.size(), b.inboxes.size());
  for (std::size_t i = 0; i < a.inboxes.size(); ++i) {
    ASSERT_EQ(a.inboxes[i].size(), b.inboxes[i].size());
    for (const auto& [round, inbox] : a.inboxes[i]) {
      const auto& other = b.inboxes[i].at(round);
      ASSERT_EQ(inbox.size(), other.size());
      for (std::size_t k = 0; k < inbox.size(); ++k) {
        EXPECT_EQ(inbox[k].sender, other[k].sender);
        EXPECT_EQ(inbox[k].payload, other[k].payload);
      }
    }
  }
  EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered);
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped);
  EXPECT_EQ(a.stats.messages_late, b.stats.messages_late);
  EXPECT_EQ(a.stats.messages_delayed, b.stats.messages_delayed);
  EXPECT_EQ(a.stats.messages_omitted, b.stats.messages_omitted);
  EXPECT_EQ(a.stats.timeouts_fired, b.stats.timeouts_fired);
  EXPECT_EQ(a.stats.bytes_sent, b.stats.bytes_sent);
  EXPECT_EQ(a.stats.bytes_delivered, b.stats.bytes_delivered);
}

TEST(EventNetwork, ShardedDrainIsBitwiseIdenticalAcrossJobCounts) {
  // The conservative safe-window rule promises serial == parallel exactly,
  // not approximately: the same run on 1, 2 and 4 workers must produce
  // identical inboxes, statistics and round end times, for a stateless and
  // for the stateful (MMPP) delay family.
  for (const char* family : {"exp", "mmpp"}) {
    const RunCapture serial = run_sharded(nullptr, family);
    ThreadPool two(2);
    ThreadPool four(4);
    const RunCapture jobs2 = run_sharded(&two, family);
    const RunCapture jobs4 = run_sharded(&four, family);
    expect_bitwise_equal(serial, jobs2);
    expect_bitwise_equal(serial, jobs4);
  }
}

TEST(EventNetwork, ArenaPayloadsSurviveRushingAdversaryAndRunAhead) {
  // The rushing adversary fixes its round value only after the last honest
  // node enters the round, and with quorum below n fast nodes run ahead
  // into later rounds while old-round messages are still in flight.  The
  // round book (and the arena behind every PayloadView) must stay alive
  // until the last honest node seals the round: every delivered Byzantine
  // payload must read back the fixed value exactly, never recycled bytes.
  const std::size_t n = 5;
  Fleet fleet(n);
  auto pointers = fleet.pointers;
  pointers.push_back(nullptr);
  FixedVectorAdversary adversary({5}, {42.0, -7.5});
  ExponentialDelayModel delay(3.0);
  EventNetworkConfig config;
  config.quorum = n;  // of n+1 senders: advance one message early
  config.timeout = -1.0;
  config.seed = 77;
  config.delay = &delay;
  EventNetwork engine(pointers, adversary, config);
  engine.run(6);
  const Vector fixed{42.0, -7.5};
  std::size_t byzantine_seen = 0;
  for (const auto& proc : fleet.owned) {
    for (const auto& [round, inbox] : proc->inboxes()) {
      (void)round;
      for (const auto& msg : inbox) {
        if (msg.sender != 5) continue;
        ++byzantine_seen;
        EXPECT_EQ(msg.payload, fixed);
      }
    }
  }
  EXPECT_GT(byzantine_seen, 0u);
  // Run-ahead actually happened (otherwise this test shrinks to the
  // synchronous case and proves nothing about book lifetime).
  EXPECT_GT(engine.stats().messages_late, 0u);
}

// --- agreement equivalence -------------------------------------------------

AgreementResult run_agreement_with_net(const std::string& net,
                                       std::uint64_t seed) {
  const std::size_t n = 7;
  const std::size_t t = 2;
  VectorList inputs;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  }
  SignFlipAdversary adversary({5, 6}, 1.0);
  AgreementConfig config;
  config.n = n;
  config.t = t;
  config.rule = make_rule("BOX-GEOM");
  config.net = NetConfig::parse(net);
  config.net.seed = seed;
  return run_fixed_rounds_agreement(GradientBatch::from(inputs), adversary, 5,
                                    config);
}

TEST(Equivalence, AgreementZeroDelayAsyncMatchesSyncBitwise) {
  const AgreementResult sync = run_agreement_with_net("sync", 17);
  const AgreementResult async_zero =
      run_agreement_with_net("async:delay=zero", 17);
  ASSERT_EQ(sync.outputs.size(), async_zero.outputs.size());
  for (std::size_t i = 0; i < sync.outputs.size(); ++i) {
    EXPECT_EQ(sync.outputs[i], async_zero.outputs[i]);  // bitwise
  }
  EXPECT_EQ(sync.trace.honest_diameter, async_zero.trace.honest_diameter);
  EXPECT_EQ(sync.network.messages_delivered,
            async_zero.network.messages_delivered);
  EXPECT_DOUBLE_EQ(async_zero.simulated_seconds, 0.0);
}

TEST(Equivalence, AsyncDelaysChangeTimingButReportLatency) {
  const AgreementResult async_exp =
      run_agreement_with_net("async:delay=exp,mean=5", 17);
  EXPECT_GT(async_exp.simulated_seconds, 0.0);
  ASSERT_EQ(async_exp.trace.round_latency.size(), 5u);
  double total = 0.0;
  for (double latency : async_exp.trace.round_latency) {
    EXPECT_GE(latency, 0.0);
    total += latency;
  }
  EXPECT_NEAR(total, async_exp.simulated_seconds, 1e-12);
}

// --- learning equivalence --------------------------------------------------

TrainingResult run_training_with_net(const std::string& net) {
  ml::SyntheticSpec spec = ml::SyntheticSpec::mnist_like(5);
  spec.height = spec.width = 6;
  spec.train_per_class = 12;
  spec.test_per_class = 4;
  const ml::TrainTestSplit data = ml::make_synthetic_dataset(spec);
  TrainingConfig config;
  config.num_clients = 7;
  config.num_byzantine = 1;
  config.rounds = 4;
  config.batch_size = 8;
  config.rule = make_rule("BOX-GEOM");
  config.attack = make_attack("sign-flip");
  config.seed = 23;
  config.net = NetConfig::parse(net);
  config.net.seed = 23;
  const std::size_t dim = data.train.feature_dim();
  ModelFactory factory = [dim] { return ml::make_mlp(dim, 6, 4, 10); };
  DecentralizedTrainer trainer(config, factory, &data.train, &data.test);
  return trainer.run();
}

TEST(Equivalence, DecentralizedTrainingZeroDelayAsyncMatchesSyncBitwise) {
  const TrainingResult sync = run_training_with_net("sync");
  const TrainingResult async_zero = run_training_with_net("async:delay=zero");
  ASSERT_EQ(sync.history.size(), async_zero.history.size());
  for (std::size_t r = 0; r < sync.history.size(); ++r) {
    EXPECT_EQ(sync.history[r].accuracy, async_zero.history[r].accuracy);
    EXPECT_EQ(sync.history[r].mean_honest_loss,
              async_zero.history[r].mean_honest_loss);
    EXPECT_EQ(sync.history[r].disagreement,
              async_zero.history[r].disagreement);
    EXPECT_EQ(sync.history[r].gradient_diameter,
              async_zero.history[r].gradient_diameter);
    EXPECT_EQ(async_zero.history[r].sim_seconds, 0.0);
  }
  EXPECT_EQ(sync.final_accuracy, async_zero.final_accuracy);
}

TEST(Equivalence, DecentralizedAsyncReportsSimulatedTime) {
  const TrainingResult async_exp =
      run_training_with_net("async:delay=exp,mean=2");
  for (const auto& metrics : async_exp.history) {
    EXPECT_GT(metrics.sim_seconds, 0.0);
  }
}

}  // namespace
}  // namespace bcl
