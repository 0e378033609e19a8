// Bitwise-equivalence suite for the PR 9 sub-round sharing layers
// (agreement/protocol.cpp): zero-copy inbox views and cross-node
// distance/step memoization are pure execution strategies — every
// combination of the two knobs must reproduce the naive copy-per-node
// path bit for bit, across round-function families, network models and
// fault schedules.  The sharing stats are asserted where the topology
// makes them deterministic: under sync every honest node sees the same
// inbox (one build per sub-round), while a lossy async net diverges the
// inboxes and the signature must force per-node fallback builds.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "agreement/protocol.hpp"
#include "agreement/round_function.hpp"
#include "faults/fault_plan.hpp"
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

struct PathConfig {
  bool views = false;
  bool share = false;
};

AgreementResult run_path(const VectorList& inputs, std::size_t n,
                         std::size_t t, const std::string& rule,
                         const NetConfig& net, const FaultPlan* plan,
                         std::size_t subrounds, PathConfig path,
                         ThreadPool* pool = nullptr) {
  AgreementConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.round_function = make_round_function(rule);
  cfg.net = net;
  cfg.net.seed = 77;  // fixed: both paths must replay identical networks
  cfg.faults = plan;
  cfg.fault_round = 0;
  cfg.inbox_views = path.views;
  cfg.share_subrounds = path.share;
  cfg.pool = pool;
  SignFlipAdversary adversary({n - 2, n - 1});
  return run_fixed_rounds_agreement(GradientBatch::from(inputs), adversary,
                                    subrounds, cfg);
}

// The naive path (owned copies, no sharing) is the reference every other
// strategy must match bitwise.
constexpr PathConfig kNaive{false, false};
constexpr PathConfig kViews{true, false};
constexpr PathConfig kShared{false, true};
constexpr PathConfig kViewsShared{true, true};

// Round functions spanning both memoization modes: RuleRound is
// current-independent (whole step output shared), MD-GEOM-STICKY reads
// `current` and may only share the distance build.
const char* kRules[] = {"KRUM", "CW-MEDIAN", "MD-GEOM-STICKY"};

TEST(SubroundSharing, AllStrategiesBitwiseEqualUnderSync) {
  const std::size_t n = 9, t = 2, d = 24, subrounds = 4;
  Rng rng(101);
  const VectorList inputs = random_inputs(rng, n, d);
  const NetConfig sync;
  for (const char* rule : kRules) {
    const auto naive =
        run_path(inputs, n, t, rule, sync, nullptr, subrounds, kNaive);
    for (const PathConfig path : {kViews, kShared, kViewsShared}) {
      const auto other =
          run_path(inputs, n, t, rule, sync, nullptr, subrounds, path);
      expect_bitwise_outputs(std::string(rule) + " views=" +
                                 std::to_string(path.views) + " share=" +
                                 std::to_string(path.share),
                             naive, other);
    }
  }
}

TEST(SubroundSharing, SyncStatsCollapseToOneBuildPerSubround) {
  // Under sync with everyone up, every honest node's inbox is identical:
  // exactly one build per sub-round, and every other receive() is a hit.
  const std::size_t n = 9, t = 2, d = 16, subrounds = 5;
  const std::size_t honest = n - 2;  // the adversary controls 2 ids
  Rng rng(103);
  const VectorList inputs = random_inputs(rng, n, d);
  for (const char* rule : kRules) {
    const auto result = run_path(inputs, n, t, rule, NetConfig{}, nullptr,
                                 subrounds, kViewsShared);
    EXPECT_EQ(result.sharing.gram_builds, subrounds) << rule;
    EXPECT_EQ(result.sharing.shared_hits, (honest - 1) * subrounds) << rule;
  }
}

TEST(SubroundSharing, SharingDisabledReportsZeroStats) {
  const std::size_t n = 7, t = 2, d = 8;
  Rng rng(105);
  const VectorList inputs = random_inputs(rng, n, d);
  const auto result =
      run_path(inputs, n, t, "KRUM", NetConfig{}, nullptr, 3, kViews);
  EXPECT_EQ(result.sharing.gram_builds, 0u);
  EXPECT_EQ(result.sharing.shared_hits, 0u);
}

TEST(SubroundSharing, LossyAsyncDivergesInboxesAndStaysBitwise) {
  // drop + timeout: nodes advance on different inboxes, so the signature
  // must mismatch (per-node fallback builds) and the shared path must
  // still equal the naive path bitwise — sharing never substitutes a
  // build computed over different bytes.
  const std::size_t n = 9, t = 2, d = 12, subrounds = 4;
  Rng rng(107);
  const VectorList inputs = random_inputs(rng, n, d);
  const NetConfig lossy =
      NetConfig::parse("async:delay=uniform,min=0.1,max=2,drop=0.25,timeout=8");
  for (const char* rule : kRules) {
    const auto naive =
        run_path(inputs, n, t, rule, lossy, nullptr, subrounds, kNaive);
    const auto shared =
        run_path(inputs, n, t, rule, lossy, nullptr, subrounds, kViewsShared);
    expect_bitwise_outputs(std::string(rule) + " lossy", naive, shared);
    // Divergent inboxes cannot collapse to one build per sub-round.
    EXPECT_GT(shared.sharing.gram_builds, subrounds) << rule;
  }
}

TEST(SubroundSharing, CrashFaultsKeepLiveNodesSharedAndBitwise) {
  // Crashed senders shrink every inbox identically under sync, so the
  // live nodes still share one build per sub-round — and the outputs
  // match the naive path bitwise with the same fault plan.
  const std::size_t n = 9, t = 2, d = 12, subrounds = 3;
  Rng rng(109);
  const VectorList inputs = random_inputs(rng, n, d);
  const FaultConfig faults = FaultConfig::parse("crash:frac=0.2,at=0");
  const FaultPlan plan(faults, n, 4, 55);
  for (const char* rule : kRules) {
    const auto naive =
        run_path(inputs, n, t, rule, NetConfig{}, &plan, subrounds, kNaive);
    const auto shared = run_path(inputs, n, t, rule, NetConfig{}, &plan,
                                 subrounds, kViewsShared);
    expect_bitwise_outputs(std::string(rule) + " faults", naive, shared);
    EXPECT_EQ(shared.sharing.gram_builds, subrounds) << rule;
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
  for (const char* rule : kRules) {
    const auto serial = run_path(inputs, n, t, rule, NetConfig{}, nullptr,
                                 subrounds, kViewsShared);
    const auto pooled = run_path(inputs, n, t, rule, NetConfig{}, nullptr,
                                 subrounds, kViewsShared, &pool);
    expect_bitwise_outputs(std::string(rule) + " pooled", serial, pooled);
  }
}

}  // namespace
}  // namespace bcl
