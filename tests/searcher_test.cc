// Scheduling-policy tests for symexec/searcher.cc: ordering contracts,
// tie-breaks, and empty-frontier edges for every built-in policy. The
// executor draws one state per slice through select(), so these orders fix
// the exploration order.
#include <algorithm>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "symexec/searcher.h"

namespace statsym::symexec {
namespace {

// Minimal state with one frame so CoverageSearcher::select can read top().
State make_state(std::uint64_t id, ir::FuncId func = 0, ir::BlockId block = 0) {
  State st;
  st.id = id;
  Frame f;
  f.func = func;
  f.block = block;
  st.stack.push_back(std::move(f));
  return st;
}

TEST(DfsSearcher, SelectsInLifoOrder) {
  DfsSearcher s;
  State a = make_state(1), b = make_state(2), c = make_state(3);
  s.add(&a);
  s.add(&b);
  s.add(&c);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.select(), &c);
  EXPECT_EQ(s.select(), &b);
  EXPECT_EQ(s.select(), &a);
  EXPECT_TRUE(s.empty());
}

TEST(DfsSearcher, ForkRequeuePutsParentOnTop) {
  // The executor's commit order after a fork: child first, then the parent.
  // DFS must keep running the parent (the then-branch) before descending
  // into the sibling — the tie-break the golden traces depend on.
  DfsSearcher s;
  State parent = make_state(1), child = make_state(2);
  s.add(&child);
  s.add(&parent);
  EXPECT_EQ(s.select(), &parent);
  EXPECT_EQ(s.select(), &child);
}

TEST(DfsSearcher, EmptyFrontierReturnsNull) {
  DfsSearcher s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.select(), nullptr);
  // Draining must not corrupt the structure: add after failed select works.
  State a = make_state(1);
  s.add(&a);
  EXPECT_EQ(s.select(), &a);
  EXPECT_EQ(s.select(), nullptr);
}

TEST(BfsSearcher, SelectsInFifoOrder) {
  BfsSearcher s;
  State a = make_state(1), b = make_state(2), c = make_state(3);
  s.add(&a);
  s.add(&b);
  s.add(&c);
  EXPECT_EQ(s.select(), &a);
  EXPECT_EQ(s.select(), &b);
  EXPECT_EQ(s.select(), &c);
  EXPECT_EQ(s.select(), nullptr);
}

TEST(BfsSearcher, InterleavedAddsKeepArrivalOrder) {
  BfsSearcher s;
  State a = make_state(1), b = make_state(2), c = make_state(3);
  s.add(&a);
  s.add(&b);
  EXPECT_EQ(s.select(), &a);
  s.add(&c);
  EXPECT_EQ(s.select(), &b);
  EXPECT_EQ(s.select(), &c);
  EXPECT_TRUE(s.empty());
}

TEST(RandomPathSearcher, ReturnsEveryStateExactlyOnce) {
  RandomPathSearcher s(Rng(7));
  std::vector<State> states;
  states.reserve(16);
  for (std::uint64_t i = 0; i < 16; ++i) states.push_back(make_state(i));
  for (auto& st : states) s.add(&st);
  std::set<State*> seen;
  for (std::size_t i = 0; i < states.size(); ++i) {
    State* st = s.select();
    ASSERT_NE(st, nullptr);
    EXPECT_TRUE(seen.insert(st).second) << "state returned twice";
  }
  EXPECT_EQ(seen.size(), states.size());
  EXPECT_EQ(s.select(), nullptr);
}

TEST(RandomPathSearcher, SameSeedSameSequence) {
  std::vector<State> states;
  states.reserve(8);
  for (std::uint64_t i = 0; i < 8; ++i) states.push_back(make_state(i));
  auto drain = [&](std::uint64_t seed) {
    RandomPathSearcher s{Rng(seed)};
    for (auto& st : states) s.add(&st);
    std::vector<State*> order;
    while (State* st = s.select()) order.push_back(st);
    return order;
  };
  EXPECT_EQ(drain(42), drain(42));
  // Sanity: the policy actually permutes (different seeds disagree on at
  // least one of these draws).
  EXPECT_NE(drain(1), drain(2));
}

TEST(CoverageSearcher, ReturnsEveryStateExactlyOnce) {
  CoverageSearcher s(Rng(3));
  std::vector<State> states;
  states.reserve(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    states.push_back(make_state(i, /*func=*/0, static_cast<ir::BlockId>(i)));
  }
  for (auto& st : states) s.add(&st);
  std::set<State*> seen;
  while (State* st = s.select()) seen.insert(st);
  EXPECT_EQ(seen.size(), states.size());
}

TEST(CoverageSearcher, PrefersUnvisitedBlocks) {
  // One state sits on a hammered block, one on fresh code. Across many
  // seeds the fresh-code state must win the first pick far more often —
  // each individual draw is (deterministic) weighted randomness, so the
  // assertion is on the aggregate.
  int fresh_first = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    CoverageSearcher s{Rng(seed)};
    for (int i = 0; i < 50; ++i) s.note_visit(0, 0);
    State hot = make_state(1, 0, 0);
    State fresh = make_state(2, 0, 1);
    s.add(&hot);
    s.add(&fresh);
    if (s.select() == &fresh) ++fresh_first;
  }
  EXPECT_GT(fresh_first, 80);
}

TEST(CoverageSearcher, UniformWhenNothingVisited) {
  // No visit data: selection degrades to uniform choice but still must
  // return each state once.
  CoverageSearcher s(Rng(11));
  State a = make_state(1, 0, 0), b = make_state(2, 0, 1);
  s.add(&a);
  s.add(&b);
  std::set<State*> seen{s.select(), s.select()};
  EXPECT_EQ(seen.count(&a), 1u);
  EXPECT_EQ(seen.count(&b), 1u);
  EXPECT_EQ(s.select(), nullptr);
}

TEST(MakeSearcher, BuildsEveryKindAndNamesThem) {
  for (SearcherKind k :
       {SearcherKind::kDFS, SearcherKind::kBFS, SearcherKind::kRandomPath,
        SearcherKind::kCoverageOptimized}) {
    auto s = make_searcher(k, Rng(1));
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->empty());
    EXPECT_STRNE(searcher_kind_name(k), "?");
  }
  EXPECT_STREQ(searcher_kind_name(SearcherKind::kDFS), "dfs");
  EXPECT_STREQ(searcher_kind_name(SearcherKind::kBFS), "bfs");
  EXPECT_STREQ(searcher_kind_name(SearcherKind::kRandomPath), "random-path");
  EXPECT_STREQ(searcher_kind_name(SearcherKind::kCoverageOptimized),
               "coverage");
}

TEST(MakeSearcher, ParsesTheCommandLineNamesOnly) {
  EXPECT_EQ(parse_searcher_kind("dfs"), SearcherKind::kDFS);
  EXPECT_EQ(parse_searcher_kind("bfs"), SearcherKind::kBFS);
  EXPECT_EQ(parse_searcher_kind("random"), SearcherKind::kRandomPath);
  EXPECT_EQ(parse_searcher_kind("coverage"), SearcherKind::kCoverageOptimized);
  for (const char* bad : {"dfz", "", "DFS", "random-path", "dfs "}) {
    EXPECT_FALSE(parse_searcher_kind(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace statsym::symexec
