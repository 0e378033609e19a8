// Tests for src/util: RNG determinism and distributions, thread pool
// correctness, table/CSV output, CLI parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

// --- Rng ---

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64Bounds) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformU64RejectsZero) {
  Rng rng(12);
  EXPECT_THROW(rng.uniform_u64(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(14);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(15);
  const int n = 100000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaleShift) {
  Rng rng(16);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 0.1);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Rng, SplitStreamsIndependentOfParentDraws) {
  Rng parent(99);
  Rng child_before = parent.split(3);
  parent.next_u64();
  parent.next_u64();
  Rng child_after = parent.split(3);
  // Splitting depends only on parent state at split time; the parent state
  // changed, so the children differ -- but two splits with the same index
  // from the same state agree.
  Rng parent2(99);
  Rng child2 = parent2.split(3);
  EXPECT_EQ(child_before.next_u64(), child2.next_u64());
  (void)child_after;
}

TEST(Rng, SplitDifferentIndicesDiffer) {
  Rng parent(99);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(17);
  const auto p = rng.permutation(20);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 19u);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(18);
  std::vector<int> v{1, 2, 2, 3, 3, 3};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// --- ThreadPool ---

TEST(ThreadPool, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, WaitIdleRethrowsSubmitError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("bad"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  // Error is cleared after rethrow.
  pool.submit([] {});
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(0, 50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  ThreadPool::global().parallel_for(0, 10,
                                    [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

// --- Table ---

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, BuildsRowsAndCounts) {
  Table t({"a", "b"});
  t.new_row().add("x").add_num(1.5, 2);
  t.new_row().add_int(42).add("y");
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows()[0][1], "1.50");
  EXPECT_EQ(t.rows()[1][0], "42");
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.new_row().add("1");
  EXPECT_THROW(t.add("2"), std::logic_error);
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.new_row().add("long-name").add("1");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(Table, CsvRoundTripsSpecialChars) {
  Table t({"a"});
  t.new_row().add("with,comma\"quote");
  const std::string path = "/tmp/bcl_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string header;
  std::string line;
  std::getline(f, header);
  std::getline(f, line);
  EXPECT_EQ(header, "a");
  EXPECT_EQ(line, "\"with,comma\"\"quote\"");
  std::remove(path.c_str());
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

// --- CliArgs ---

TEST(CliArgs, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "hello"};
  CliArgs args(4, argv, {"alpha", "beta"});
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_string("beta", ""), "hello");
}

TEST(CliArgs, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  CliArgs args(2, argv, {"verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliArgs, UnknownFlagThrows) {
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(CliArgs(2, argv, {"yes"}), std::invalid_argument);
}

TEST(CliArgs, MissingFlagsFallBack) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv, {"x"});
  EXPECT_EQ(args.get_int("x", -5), -5);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(args.has("x"));
}

TEST(CliArgs, NonFlagPositionalRejected) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(CliArgs(2, argv, {}), std::invalid_argument);
}

TEST(CliArgs, CountGettersRejectNegativeAndMalformedValues) {
  // A count never wraps: "-1" is an error naming the flag, not 2^64 - 1.
  const char* argv[] = {"prog",  "--threads=-1", "--ms",  "100,,500",
                        "--bad", "12x",          "--neg", "5,-2"};
  CliArgs args(8, argv, {"threads", "ms", "bad", "neg", "absent"});
  EXPECT_EQ(args.get_count("absent", 7), 7u);
  EXPECT_EQ(args.get_counts("ms", ""), (std::vector<std::size_t>{100, 500}));
  EXPECT_EQ(args.get_counts("absent", "1,2"),
            (std::vector<std::size_t>{1, 2}));
  const auto message = [&](auto&& call) {
    try {
      call();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("no exception");
  };
  EXPECT_EQ(message([&] { args.get_count("threads", 0); }),
            "--threads must be >= 0, got -1");
  EXPECT_EQ(message([&] { args.get_count("bad", 0); }),
            "--bad expects a non-negative integer, got '12x'");
  EXPECT_EQ(message([&] { args.get_counts("neg", ""); }),
            "--neg must be >= 0, got -2");
}

// --- Logging / Stopwatch ---

TEST(Logging, LevelFilterRoundTrip) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  log_info() << "should be suppressed";
  set_log_level(old_level);
}

TEST(Stopwatch, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  const double t2 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

}  // namespace
}  // namespace bcl
