// Unit tests for the support library: deterministic RNG, string helpers,
// and the table renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace statsym {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.uniform(9, 9), 9);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedPickProportions) {
  Rng rng(19);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 60'000; ++i) {
    ++counts[rng.weighted_pick({1.0, 2.0, 3.0})];
  }
  EXPECT_NEAR(counts[0] / 10'000.0, 1.0, 0.2);
  EXPECT_NEAR(counts[1] / 10'000.0, 2.0, 0.25);
  EXPECT_NEAR(counts[2] / 10'000.0, 3.0, 0.3);
}

TEST(Rng, WeightedPickIgnoresNonPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.weighted_pick({0.0, 5.0, -1.0}), 1u);
  }
}

TEST(Rng, SplitIsIndependent) {
  Rng a(5);
  Rng b = a.split();
  // The split stream differs from the parent's continuation.
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmpty) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "|"), "x|y|z");
  EXPECT_EQ(split(join(parts, "|"), '|'), parts);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("convert_fileName", "convert"));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_TRUE(ends_with("main():enter", ":enter"));
  EXPECT_FALSE(ends_with("x", "xx"));
}

TEST(Strings, ParseI64) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64("-123", v));
  EXPECT_EQ(v, -123);
  EXPECT_FALSE(parse_i64("12x", v));
  EXPECT_FALSE(parse_i64("", v));
  EXPECT_FALSE(parse_i64("999999999999999999999999", v));
  EXPECT_FALSE(parse_i64(" 5", v));
  EXPECT_FALSE(parse_i64("5 ", v));
}

TEST(Strings, ParseU64TakesTheFullRangeAndNothingElse) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, ~0ull);
  EXPECT_TRUE(parse_u64("11716865273979742174", v));  // >= 2^63
  EXPECT_EQ(v, 11716865273979742174ull);
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  v = 7;
  for (const char* bad : {"", "-3", "+3", " 3", "3 ", "3x", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad, v)) << bad;
    EXPECT_EQ(v, 7u) << bad;  // untouched on failure
  }
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.5", v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("-inf", v));
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double(" 0.5", v));
  EXPECT_FALSE(parse_double("0.5x", v));
}

TEST(Strings, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "n"});
  t.add_row({"polymorph", "63"});
  t.add_row({"ctree", "112"});
  const std::string out = t.render();
  EXPECT_NE(out.find("polymorph  63"), std::string::npos);
  EXPECT_NE(out.find("ctree"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, PadsMissingCells) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NE(t.render().find("1"), std::string::npos);
}

TEST(DeriveSeed, PureFunctionOfMasterAndIndex) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  EXPECT_NE(derive_seed(42, 7), derive_seed(42, 8));
  EXPECT_NE(derive_seed(42, 7), derive_seed(43, 7));
}

TEST(DeriveSeed, AdjacentIndicesGiveIndependentStreams) {
  // The derived seeds feed whole Rngs; adjacent task indices must not
  // produce correlated streams.
  Rng a(derive_seed(1, 0));
  Rng b(derive_seed(1, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(DeriveSeed, NoCollisionsOverManyTasks) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10'000; ++i) seen.insert(derive_seed(99, i));
  EXPECT_EQ(seen.size(), 10'000u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsInSubmissionOrder) {
  // The candidate portfolio relies on FIFO order at width 1 to reproduce
  // the sequential candidate-at-a-time semantics.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futs) f.get();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, SubmitTaskExceptionLandsInFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, EffectiveThreadsResolvesZero) {
  EXPECT_GE(effective_threads(0), 1u);
  EXPECT_EQ(effective_threads(3), 3u);
}

TEST(DeriveSeed, NoFirstDrawCollisionsAcross10kTasks) {
  // Every parallel subsystem (log collection, candidate portfolio, fuzz
  // campaigns) seeds task i with derive_seed(master, i). If two tasks ever
  // shared a first draw they would run correlated streams, so demand full
  // injectivity over a 10k-task range for both the derived seeds and the
  // first value drawn from them.
  for (const std::uint64_t master : {1ull, 42ull, 0ull}) {
    std::set<std::uint64_t> seeds;
    std::set<std::uint64_t> first_draws;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      const std::uint64_t s = derive_seed(master, i);
      seeds.insert(s);
      Rng r(s);
      first_draws.insert(r.next_u64());
    }
    EXPECT_EQ(seeds.size(), 10'000u) << "master=" << master;
    EXPECT_EQ(first_draws.size(), 10'000u) << "master=" << master;
  }
}

TEST(DeriveSeed, GoldenValuesPinPlatformStability) {
  // Checked-in corpus entries and reproducer seeds are only meaningful if
  // derive_seed and xoshiro256** produce the same streams on every platform
  // and compiler. These constants were produced by the reference
  // implementation; a mismatch means the corpus is silently invalidated.
  EXPECT_EQ(derive_seed(42, 0), 18201609923829866926ULL);
  EXPECT_EQ(derive_seed(42, 1), 6938366530895179ULL);
  EXPECT_EQ(derive_seed(1, 12345), 9059022720058144244ULL);
  Rng r(derive_seed(42, 7));
  EXPECT_EQ(r.next_u64(), 9258118898927677029ULL);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { ++count; });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace statsym
