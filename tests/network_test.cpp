// Tests for src/network: synchronous delivery, reliable-broadcast
// (anti-equivocation) structure, adversarial omission/crash behaviour, and
// deterministic parallel execution.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>

#include "network/adversary.hpp"
#include "network/message.hpp"
#include "network/event_network.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

/// Owned copy of a delivered message: payloads are views valid only during
/// receive(), so a recorder that keeps them must materialize them.
struct Recorded {
  std::size_t sender = 0;
  Vector payload;
};

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

  const std::map<std::size_t, std::vector<Recorded>>& inboxes() const {
    return inboxes_;
  }

 private:
  std::size_t id_;
  std::map<std::size_t, std::vector<Recorded>> inboxes_;
};

std::vector<HonestProcess*> as_pointers(
    std::vector<std::unique_ptr<RecordingProcess>>& owned) {
  std::vector<HonestProcess*> out;
  for (auto& p : owned) out.push_back(p.get());
  return out;
}

TEST(LockstepNetwork, AllToAllDeliveryWithoutFaults) {
  std::vector<std::unique_ptr<RecordingProcess>> procs;
  for (std::size_t i = 0; i < 4; ++i) {
    procs.push_back(std::make_unique<RecordingProcess>(i));
  }
  NoAdversary adversary;
  EventNetwork net(as_pointers(procs), adversary);
  net.run_round();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& inbox = procs[i]->inboxes().at(0);
    ASSERT_EQ(inbox.size(), 4u);
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(inbox[s].sender, s);
      EXPECT_DOUBLE_EQ(inbox[s].payload[0], static_cast<double>(s));
    }
  }
  EXPECT_EQ(net.stats().messages_delivered, 16u);
  EXPECT_EQ(net.stats().messages_omitted, 0u);
}

TEST(LockstepNetwork, InboxSortedBySenderId) {
  std::vector<std::unique_ptr<RecordingProcess>> procs;
  for (std::size_t i = 0; i < 5; ++i) {
    procs.push_back(std::make_unique<RecordingProcess>(i));
  }
  NoAdversary adversary;
  EventNetwork net(as_pointers(procs), adversary);
  net.run(3);
  for (std::size_t r = 0; r < 3; ++r) {
    const auto& inbox = procs[2]->inboxes().at(r);
    for (std::size_t i = 1; i < inbox.size(); ++i) {
      EXPECT_LT(inbox[i - 1].sender, inbox[i].sender);
    }
  }
}

TEST(LockstepNetwork, ByzantineIdMustNotHaveProcess) {
  std::vector<std::unique_ptr<RecordingProcess>> procs;
  procs.push_back(std::make_unique<RecordingProcess>(0));
  procs.push_back(std::make_unique<RecordingProcess>(1));
  FixedVectorAdversary adversary({1}, {9.0});
  EXPECT_THROW(EventNetwork(as_pointers(procs), adversary),
               std::invalid_argument);
}

TEST(LockstepNetwork, HonestIdRequiresProcess) {
  std::vector<HonestProcess*> procs(2, nullptr);
  NoAdversary adversary;
  EXPECT_THROW(EventNetwork(procs, adversary), std::invalid_argument);
}

TEST(LockstepNetwork, FixedVectorAdversaryInjectsValue) {
  std::vector<std::unique_ptr<RecordingProcess>> procs;
  procs.push_back(std::make_unique<RecordingProcess>(0));
  procs.push_back(std::make_unique<RecordingProcess>(1));
  auto pointers = as_pointers(procs);
  pointers.push_back(nullptr);  // id 2 is Byzantine
  FixedVectorAdversary adversary({2}, {42.0});
  EventNetwork net(pointers, adversary);
  net.run_round();
  const auto& inbox = procs[0]->inboxes().at(0);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_DOUBLE_EQ(inbox[2].payload[0], 42.0);
}

TEST(LockstepNetwork, CrashAdversarySilentFromCrashRound) {
  std::vector<std::unique_ptr<RecordingProcess>> procs;
  procs.push_back(std::make_unique<RecordingProcess>(0));
  procs.push_back(std::make_unique<RecordingProcess>(1));
  auto pointers = as_pointers(procs);
  pointers.push_back(nullptr);
  CrashAdversary adversary({2}, /*crash_round=*/1, {{7.0}});
  EventNetwork net(pointers, adversary);
  net.run(2);
  EXPECT_EQ(procs[0]->inboxes().at(0).size(), 3u);  // pre-crash: delivers
  EXPECT_EQ(procs[0]->inboxes().at(1).size(), 2u);  // post-crash: silent
  EXPECT_EQ(net.stats().broadcasts_skipped, 1u);
}

TEST(LockstepNetwork, SelectiveOmissionRespectsAdversary) {
  // SplitWorld: byz id 4 supports camp {0,1}, byz id 5 supports camp {2,3}.
  std::vector<std::unique_ptr<RecordingProcess>> procs;
  for (std::size_t i = 0; i < 4; ++i) {
    procs.push_back(std::make_unique<RecordingProcess>(i));
  }
  auto pointers = as_pointers(procs);
  pointers.push_back(nullptr);
  pointers.push_back(nullptr);
  SplitWorldAdversary adversary({0, 1}, {2, 3}, {4}, {5});
  EventNetwork net(pointers, adversary);
  net.run_round();
  // Camp 1 node receives byz 4 (camp-1 supporter) but not byz 5.
  const auto& inbox0 = procs[0]->inboxes().at(0);
  bool saw4 = false;
  bool saw5 = false;
  for (const auto& msg : inbox0) {
    if (msg.sender == 4) saw4 = true;
    if (msg.sender == 5) saw5 = true;
  }
  EXPECT_TRUE(saw4);
  EXPECT_FALSE(saw5);
  // And byz 4 echoes camp 1's current value (node 0 broadcasts {0.0}).
  for (const auto& msg : inbox0) {
    if (msg.sender == 4) EXPECT_DOUBLE_EQ(msg.payload[0], 0.0);
  }
  EXPECT_GT(net.stats().messages_omitted, 0u);
}

TEST(LockstepNetwork, ReliableBroadcastNoEquivocation) {
  // Structural guarantee: all receivers of a Byzantine message in a round
  // see the identical payload.
  std::vector<std::unique_ptr<RecordingProcess>> procs;
  for (std::size_t i = 0; i < 3; ++i) {
    procs.push_back(std::make_unique<RecordingProcess>(i));
  }
  auto pointers = as_pointers(procs);
  pointers.push_back(nullptr);
  FixedVectorAdversary adversary({3}, {5.5});
  EventNetwork net(pointers, adversary);
  net.run(4);
  for (std::size_t r = 0; r < 4; ++r) {
    Vector seen;
    for (std::size_t i = 0; i < 3; ++i) {
      for (const auto& msg : procs[i]->inboxes().at(r)) {
        if (msg.sender == 3) {
          if (seen.empty()) {
            seen = msg.payload;
          } else {
            EXPECT_EQ(seen, msg.payload);
          }
        }
      }
    }
  }
}

TEST(LockstepNetwork, ParallelDeliveryMatchesSerial) {
  auto build = [](ThreadPool* pool,
                  std::vector<std::unique_ptr<RecordingProcess>>& procs) {
    procs.clear();
    for (std::size_t i = 0; i < 6; ++i) {
      procs.push_back(std::make_unique<RecordingProcess>(i));
    }
    std::vector<HonestProcess*> pointers;
    for (auto& p : procs) pointers.push_back(p.get());
    static NoAdversary adversary;
    EventNetworkConfig config;
    config.pool = pool;
    EventNetwork net(pointers, adversary, config);
    net.run(3);
  };
  std::vector<std::unique_ptr<RecordingProcess>> serial_procs;
  std::vector<std::unique_ptr<RecordingProcess>> parallel_procs;
  ThreadPool pool(4);
  build(nullptr, serial_procs);
  build(&pool, parallel_procs);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t r = 0; r < 3; ++r) {
      const auto& a = serial_procs[i]->inboxes().at(r);
      const auto& b = parallel_procs[i]->inboxes().at(r);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].sender, b[k].sender);
        EXPECT_EQ(a[k].payload, b[k].payload);
      }
    }
  }
}

TEST(Adversary, CountByzantine) {
  FixedVectorAdversary adversary({1, 3, 5}, {0.0});
  EXPECT_EQ(adversary.count_byzantine(6), 3u);
  EXPECT_EQ(adversary.count_byzantine(2), 1u);
}

TEST(Adversary, SignFlipNegatesHonestMean) {
  SignFlipAdversary adversary({2}, 1.0);
  std::vector<std::optional<Vector>> honest{Vector{2.0}, Vector{4.0},
                                            std::nullopt};
  const auto v = adversary.byzantine_value(2, 0, honest);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ((*v)[0], -3.0);
}

TEST(Adversary, PerNodeFixedValuesAndSilence) {
  std::vector<std::optional<Vector>> values(3);
  values[1] = Vector{7.0};
  PerNodeFixedAdversary adversary({1, 2}, values);
  EXPECT_TRUE(adversary.is_byzantine(1));
  EXPECT_TRUE(adversary.is_byzantine(2));
  EXPECT_FALSE(adversary.is_byzantine(0));
  EXPECT_EQ((*adversary.byzantine_value(1, 0, {}))[0], 7.0);
  EXPECT_FALSE(adversary.byzantine_value(2, 0, {}).has_value());
}

TEST(Adversary, CrashRequiresMatchingValues) {
  EXPECT_THROW(CrashAdversary({1, 2}, 0, {{1.0}}), std::invalid_argument);
}

TEST(Message, PayloadsPreserveOrder) {
  const Vector a{1.0};
  const Vector b{3.0};
  std::vector<Message> inbox{{0, PayloadView(a), 8}, {2, PayloadView(b), 8}};
  const VectorList p = payloads(inbox);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[1][0], 3.0);
}

TEST(Message, PayloadsCopyAndBatchViewBorrows) {
  // Payloads are views into engine-owned storage.  payloads() is where
  // the one copy happens, so its result must not alias the backing
  // buffer; payload_batch_view() lends the payload spans as batch rows.
  Vector a{1.0, 2.0};
  Vector b{3.0, 4.0};
  std::vector<Message> inbox{{0, PayloadView(a), 16}, {2, PayloadView(b), 16}};
  const VectorList p = payloads(inbox);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NE(p[1].data(), b.data());  // copied, not aliased
  a[0] = 9.0;                        // backing changes after the copy...
  EXPECT_DOUBLE_EQ(p[0][0], 1.0);    // ...the extracted copy does not

  std::vector<const double*> table;
  const GradientBatch batch = payload_batch_view(inbox, table);
  ASSERT_EQ(batch.rows(), 2u);
  EXPECT_DOUBLE_EQ(batch.row(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(batch.row(0)[0], 9.0);  // read through the live view
  EXPECT_EQ(batch.row(1), b.data());       // borrowed, not copied
}

TEST(Message, PayloadBatchViewRejectsDimensionMismatch) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0};
  std::vector<Message> inbox{{0, PayloadView(a), 16}, {2, PayloadView(b), 8}};
  std::vector<const double*> table;
  EXPECT_THROW(payload_batch_view(inbox, table), std::invalid_argument);
}

}  // namespace
}  // namespace bcl
