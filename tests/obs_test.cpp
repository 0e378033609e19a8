// Flight-recorder tests: trace spans (nesting, thread attribution, disabled
// cost path), the metrics registry (bucket boundaries, quantiles, snapshot
// consistency under ThreadPool concurrency — run under TSan in CI), the
// capturable log sink, and the headline invariant that trace=off artifacts
// are bitwise identical to traced runs (the wall-clock field excepted).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "experiments/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

using experiments::ScenarioRunner;
using experiments::ScenarioSpec;
using experiments::ScenarioSummary;

/// Every test that arms the recorder restores Off and drains, so tests stay
/// independent of execution order.
class ScopedTraceLevel {
 public:
  explicit ScopedTraceLevel(obs::TraceLevel level) {
    obs::drain_trace();
    obs::set_trace_level(level);
  }
  ~ScopedTraceLevel() {
    obs::set_trace_level(obs::TraceLevel::Off);
    obs::drain_trace();
  }
};

TEST(TraceLevelTest, ParseRoundTripsAndRejects) {
  for (const auto level : {obs::TraceLevel::Off, obs::TraceLevel::Spans,
                           obs::TraceLevel::Full}) {
    EXPECT_EQ(obs::parse_trace_level(obs::to_string(level)), level);
  }
  EXPECT_THROW(obs::parse_trace_level("verbose"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_level(""), std::invalid_argument);
}

TEST(TraceSpanTest, OffRecordsNothing) {
  ScopedTraceLevel scope(obs::TraceLevel::Off);
  {
    BCL_TRACE_SPAN("should.not.appear");
    BCL_TRACE_SPAN_FINE("nor.this");
  }
  EXPECT_TRUE(obs::drain_trace().empty());
}

TEST(TraceSpanTest, SpansLevelSkipsFineSpans) {
  ScopedTraceLevel scope(obs::TraceLevel::Spans);
  {
    BCL_TRACE_SPAN("coarse");
    BCL_TRACE_SPAN_FINE("fine");
  }
  const obs::TraceBuffer buffer = obs::drain_trace();
  ASSERT_EQ(buffer.records.size(), 2u);  // coarse B + E only
  for (const auto& record : buffer.records) {
    EXPECT_STREQ(record.name, "coarse");
  }
}

TEST(TraceSpanTest, NestedSpansAreWellFormed) {
  ScopedTraceLevel scope(obs::TraceLevel::Full);
  {
    BCL_TRACE_SPAN("outer");
    {
      BCL_TRACE_SPAN("inner");
    }
  }
  const obs::TraceBuffer buffer = obs::drain_trace();
  ASSERT_EQ(buffer.records.size(), 4u);
  EXPECT_EQ(buffer.dropped, 0u);
  // One thread, so drain order is record order: outer-B inner-B inner-E
  // outer-E, with non-decreasing timestamps.
  EXPECT_STREQ(buffer.records[0].name, "outer");
  EXPECT_EQ(buffer.records[0].phase, 'B');
  EXPECT_STREQ(buffer.records[1].name, "inner");
  EXPECT_EQ(buffer.records[1].phase, 'B');
  EXPECT_STREQ(buffer.records[2].name, "inner");
  EXPECT_EQ(buffer.records[2].phase, 'E');
  EXPECT_STREQ(buffer.records[3].name, "outer");
  EXPECT_EQ(buffer.records[3].phase, 'E');
  for (std::size_t i = 1; i < buffer.records.size(); ++i) {
    EXPECT_EQ(buffer.records[i].tid, buffer.records[0].tid);
    EXPECT_GE(buffer.records[i].ts_ns, buffer.records[i - 1].ts_ns);
  }
}

TEST(TraceSpanTest, ThreadAttributionIsPerWorker) {
  ScopedTraceLevel scope(obs::TraceLevel::Full);
  ThreadPool pool(3);
  pool.parallel_for(0, 16, [](std::size_t) {
    BCL_TRACE_SPAN("worker.task");
  });
  const obs::TraceBuffer buffer = obs::drain_trace();
  EXPECT_EQ(buffer.records.size(), 32u);  // 16 B/E pairs
  std::set<std::uint32_t> tids;
  std::map<std::uint32_t, int> open;
  for (const auto& record : buffer.records) {
    tids.insert(record.tid);
    // Records are concatenated per thread, so each tid's slice must be a
    // valid B/E sequence on its own.
    open[record.tid] += record.phase == 'B' ? 1 : -1;
    EXPECT_GE(open[record.tid], 0);
  }
  for (const auto& [tid, depth] : open) EXPECT_EQ(depth, 0) << "tid " << tid;
  // parallel_for help-drains on the caller, so 1..4 distinct threads can
  // have participated; every one got a distinct tid.
  EXPECT_GE(tids.size(), 1u);
  EXPECT_LE(tids.size(), 4u);
  EXPECT_GE(obs::trace_thread_count(), tids.size());
}

TEST(TraceExportTest, ChromeTraceIsWellFormedJson) {
  ScopedTraceLevel scope(obs::TraceLevel::Spans);
  {
    BCL_TRACE_SPAN("alpha");
    {
      BCL_TRACE_SPAN("beta");
    }
  }
  const obs::TraceBuffer buffer = obs::drain_trace();
  std::ostringstream out;
  obs::write_chrome_trace(out, buffer);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  // Matched B/E pairs only.
  std::size_t b = 0, e = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos) {
    ++b;
    ++pos;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos) {
    ++e;
    ++pos;
  }
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(e, 2u);
}

TEST(TraceProfileTest, SelfTimeSubtractsNestedChildren) {
  // Hand-built record stream: outer [0, 100] with inner [10, 40] on one
  // thread; a second thread contributes its own outer [0, 50].
  const char* outer = "outer";
  const char* inner = "inner";
  std::vector<obs::TraceRecord> records = {
      {outer, 0, 0, 'B'},   {inner, 10, 0, 'B'}, {inner, 40, 0, 'E'},
      {outer, 100, 0, 'E'}, {outer, 0, 1, 'B'},  {outer, 50, 1, 'E'},
  };
  const auto stats = obs::self_time(records);
  ASSERT_EQ(stats.size(), 2u);
  // Sorted by self time descending: outer self = (100-30) + 50 = 120.
  EXPECT_EQ(stats[0].name, "outer");
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_EQ(stats[0].total_ns, 150u);
  EXPECT_EQ(stats[0].self_ns, 120u);
  EXPECT_EQ(stats[1].name, "inner");
  EXPECT_EQ(stats[1].total_ns, 30u);
  EXPECT_EQ(stats[1].self_ns, 30u);
}

TEST(HistogramTest, BucketBoundariesRoundTrip) {
  using obs::Histogram;
  for (int i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const double lo = Histogram::bucket_lower_bound(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "bucket " << i;
    const double hi = Histogram::bucket_upper_bound(i);
    EXPECT_EQ(Histogram::bucket_index(hi), i + 1) << "bucket " << i;
  }
  // Underflow and overflow land in the edge buckets.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
}

TEST(HistogramTest, SnapshotTracksExactMoments) {
  obs::Histogram histogram;
  for (const double v : {0.5, 2.0, 8.0, 8.0}) histogram.record(v);
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 18.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 4.625);
  // Quantiles are bucket upper bounds clamped into [min, max]: within one
  // bucket width (2^(1/4) relative) of the true order statistic.
  const double width = std::pow(2.0, 0.25);
  EXPECT_GE(snap.quantile(0.0), 0.5);
  EXPECT_LE(snap.quantile(0.0), 0.5 * width);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 8.0);  // clamped to max
  const double p50 = snap.quantile(0.5);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 2.0 * width);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  obs::Histogram histogram;
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
}

TEST(MetricsRegistryTest, SnapshotIsConsistentUnderConcurrency) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.hits");
  obs::Histogram& histogram = registry.histogram("test.latency");
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 250;
  ThreadPool pool(4);
  pool.parallel_for(0, kTasks, [&](std::size_t task) {
    for (std::size_t i = 0; i < kPerTask; ++i) {
      counter.add();
      histogram.record(static_cast<double>(task + 1));
      // Name lookups from workers must be safe too (mutex-guarded).
      registry.counter("test.lookups").add();
    }
  });
  registry.gauge("test.level").set(3.5);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("test.hits"), kTasks * kPerTask);
  EXPECT_EQ(snap.counter_or("test.lookups"), kTasks * kPerTask);
  EXPECT_EQ(snap.counter_or("test.absent", 7u), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.level"), 3.5);
  const obs::HistogramSnapshot h = snap.histograms.at("test.latency");
  EXPECT_EQ(h.count, kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, static_cast<double>(kTasks));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);
}

TEST(LoggingTest, ScopedCaptureCollectsAndRestores) {
  const std::uint64_t warnings_before = log_count(LogLevel::Warn);
  {
    ScopedLogCapture capture;
    log_warn() << "flight recorder test warning";
    log_info() << "and an info line";
    EXPECT_TRUE(capture.contains(LogLevel::Warn, "recorder test"));
    EXPECT_FALSE(capture.contains(LogLevel::Error, "recorder test"));
    EXPECT_EQ(capture.records().size(), 2u);
  }
  EXPECT_EQ(log_count(LogLevel::Warn), warnings_before + 1);
  // The bounded ring keeps the records regardless of sink.
  bool found = false;
  for (const auto& record : recent_log_records()) {
    found = found ||
            record.message.find("flight recorder test warning") !=
                std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioTraceKeyTest, RoundTripsAndRejects) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.trace, "off");
  spec.set("trace", "spans");
  EXPECT_EQ(ScenarioSpec::parse(spec.to_string()), spec);
  EXPECT_NE(spec.name().find("trace:spans"), std::string::npos);
  EXPECT_THROW(spec.set("trace", "everything"), std::invalid_argument);
}

ScenarioSpec small_spec(const std::string& trace) {
  ScenarioSpec spec;
  spec.rule = "KRUM";
  spec.attack = "sign-flip";
  spec.clients = 8;
  spec.byzantine = 1;
  spec.rounds = 3;
  spec.trace = trace;
  return spec;
}

void expect_identical_histories(const ScenarioSummary& a,
                                const ScenarioSummary& b) {
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_TRUE(b.error.empty()) << b.error;
  ASSERT_EQ(a.result.history.size(), b.result.history.size());
  for (std::size_t r = 0; r < a.result.history.size(); ++r) {
    const RoundMetrics& x = a.result.history[r];
    const RoundMetrics& y = b.result.history[r];
    // Every field except wall-clock seconds must be bitwise identical:
    // recording spans must not perturb the computation.
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.accuracy, y.accuracy);
    EXPECT_EQ(x.accuracy_min, y.accuracy_min);
    EXPECT_EQ(x.accuracy_max, y.accuracy_max);
    EXPECT_EQ(x.mean_honest_loss, y.mean_honest_loss);
    EXPECT_EQ(x.learning_rate, y.learning_rate);
    EXPECT_EQ(x.disagreement, y.disagreement);
    EXPECT_EQ(x.gradient_diameter, y.gradient_diameter);
    EXPECT_EQ(x.sim_seconds, y.sim_seconds);
    EXPECT_EQ(x.bytes_delivered, y.bytes_delivered);
    EXPECT_EQ(x.bytes_dense, y.bytes_dense);
    EXPECT_EQ(x.live_clients, y.live_clients);
    EXPECT_EQ(x.stale_accepted, y.stale_accepted);
    EXPECT_EQ(x.stale_rejected, y.stale_rejected);
    EXPECT_EQ(x.degraded, y.degraded);
    EXPECT_EQ(x.cohort, y.cohort);
    EXPECT_EQ(x.shards, y.shards);
  }
}

TEST(TraceBitwiseTest, TracedCentralizedRunMatchesUntraced) {
  ScenarioRunner runner;
  const ScenarioSummary off = runner.run(small_spec("off"));
  const ScenarioSummary full = runner.run(small_spec("full"));
  expect_identical_histories(off, full);
  EXPECT_TRUE(off.trace.empty());
  EXPECT_FALSE(full.trace.empty());
  // Deterministic counters must agree between the runs too.
  EXPECT_EQ(off.metrics.counters, full.metrics.counters);
  // And the recorder is disarmed again after the traced cell.
  EXPECT_EQ(obs::trace_level(), obs::TraceLevel::Off);
}

TEST(TraceBitwiseTest, TracedDecentralizedAsyncRunMatchesUntraced) {
  ScenarioSpec spec;
  spec.rule = "BOX-GEOM";
  spec.attack = "sign-flip";
  spec.clients = 7;
  spec.byzantine = 1;
  spec.rounds = 2;
  spec.topology = experiments::Topology::Decentralized;
  spec.net = "async:delay=exp,mean=2,timeout=50";
  ScenarioRunner runner;
  ScenarioSpec traced = spec;
  traced.trace = "full";
  const ScenarioSummary off = runner.run(spec);
  const ScenarioSummary full = runner.run(traced);
  expect_identical_histories(off, full);
  // The sub-round sharing and network counters are deterministic under the
  // seeded engine and must survive the emitter plumbing.
  EXPECT_GT(full.metrics.counter_or("agreement.gram_builds"), 0u);
  EXPECT_GT(full.metrics.counter_or("net.messages_delivered"), 0u);
  EXPECT_EQ(off.metrics.counters, full.metrics.counters);
}

// On the trainer thread every phase span of the centralized round is a
// direct child of `round` — none of them may swallow a later phase — even
// on the elastic path (churn, stale arrivals, down-weighting) with a codec.
TEST(TraceStructureTest, ElasticRoundPhasesAreDirectChildrenOfRound) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "rule=KRUM attack=sign-flip n=10 f=1 rounds=6 eval-max=40 "
      "comp=topk:frac=0.1 stale=2,decay=0.5 "
      "faults=churn:leave=0.2,join=0.5,cap=0.3 trace=full");
  ScenarioRunner runner;
  const ScenarioSummary summary = runner.run(spec);
  ASSERT_TRUE(summary.error.empty()) << summary.error;
  ASSERT_EQ(summary.trace_dropped, 0u);

  // The trainer thread is the one that opens the round spans.
  const auto first_round = std::find_if(
      summary.trace.begin(), summary.trace.end(), [](const auto& record) {
        return record.phase == 'B' && std::string(record.name) == "round";
      });
  ASSERT_NE(first_round, summary.trace.end());
  const std::uint32_t trainer = first_round->tid;

  const std::set<std::string> phases = {"grad.compute",   "codec.encode",
                                        "attack.corrupt", "aggregate.rule",
                                        "sgd.apply",      "evaluate"};
  std::map<std::string, std::size_t> seen;
  std::vector<std::string> open;
  for (const auto& record : summary.trace) {
    if (record.tid != trainer) continue;
    const std::string name = record.name;
    if (record.phase == 'B') {
      if (phases.count(name) > 0) {
        ++seen[name];
        ASSERT_FALSE(open.empty()) << name;
        EXPECT_EQ(open.back(), "round") << name << " opened inside "
                                        << open.back();
      }
      open.push_back(name);
    } else {
      ASSERT_FALSE(open.empty()) << name;
      EXPECT_EQ(open.back(), name);
      open.pop_back();
    }
  }
  EXPECT_TRUE(open.empty());
  for (const std::string& phase : phases) {
    EXPECT_GT(seen[phase], 0u) << phase << " never traced";
  }
}

TEST(TraceEmitterTest, WritesPerCellTraceFiles) {
  const std::string dir = testing::TempDir() + "bcl_obs_traces";
  experiments::TraceEmitter emitter(dir, false);
  ScenarioRunner runner;
  std::vector<experiments::MetricsEmitter*> emitters = {&emitter};
  runner.run(small_spec("spans"), emitters);
  emitter.finish();
  ASSERT_EQ(emitter.written().size(), 1u);
  std::ifstream in(emitter.written()[0]);
  ASSERT_TRUE(in.good()) << emitter.written()[0];
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.str().find("\"round\""), std::string::npos);
}

}  // namespace
}  // namespace bcl
