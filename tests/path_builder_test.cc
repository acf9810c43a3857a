// Tests for candidate-path construction: skeleton selection, detour
// classification (the three types of §VI-B), joining, and ranking.
#include <gtest/gtest.h>

#include <set>

#include "stats/path_builder.h"

namespace statsym::stats {
namespace {

using monitor::LogRecord;
using monitor::RunLog;
using monitor::VarSample;

// Builds faulty logs realising the given node sequences, with variable
// `sig` at chosen locations separating classes so those locations score.
struct GraphFixture {
  std::vector<RunLog> logs;
  std::int32_t next_id{0};

  void add_faulty(const std::vector<monitor::LocId>& seq) {
    RunLog log;
    log.run_id = next_id++;
    log.faulty = true;
    for (monitor::LocId n : seq) log.records.push_back({n, {}});
    logs.push_back(std::move(log));
  }

  // Gives location `loc` a perfect predicate by adding var samples that
  // separate correct from faulty runs. The logs start at node 0 so they do
  // not fabricate spurious entry candidates.
  void score_location(monitor::LocId loc) {
    for (int i = 0; i < 4; ++i) {
      RunLog c;
      c.run_id = next_id++;
      c.faulty = false;
      VarSample v;
      v.name = "sig" + std::to_string(loc);
      v.kind = monitor::VarKind::kGlobal;
      v.value = 1.0;
      c.records.push_back({0, {}});
      c.records.push_back({loc, {v}});
      logs.push_back(std::move(c));

      RunLog f;
      f.run_id = next_id++;
      f.faulty = true;
      v.value = 100.0;
      f.records.push_back({0, {}});
      f.records.push_back({loc, {v}});
      logs.push_back(std::move(f));
    }
  }
};

TransitionGraphOptions loose_graph() {
  TransitionGraphOptions o;
  o.min_confidence = 0.0;
  o.min_count = 1;
  return o;
}

TEST(PathBuilder, FindsLinearSkeleton) {
  GraphFixture fx;
  for (int i = 0; i < 10; ++i) fx.add_faulty({0, 2, 4, 6});
  TransitionGraph g(loose_graph());
  PredicateManager pm;
  SuffStats s;
  s.ingest(fx.logs);
  pm.build(s);
  g.build(s);
  PathBuilder b(g, pm);
  const auto pc = b.build(6);
  ASSERT_TRUE(pc.has_value());
  EXPECT_EQ(pc->skeleton, (std::vector<monitor::LocId>{0, 2, 4, 6}));
  ASSERT_FALSE(pc->candidates.empty());
  EXPECT_EQ(pc->candidates[0].nodes.back(), 6);
}

TEST(PathBuilder, PrefersHigherScoringPath) {
  GraphFixture fx;
  // Two routes 0->{1|2}->9; location 2 carries the signal.
  for (int i = 0; i < 10; ++i) fx.add_faulty({0, 1, 9});
  for (int i = 0; i < 10; ++i) fx.add_faulty({0, 2, 9});
  fx.score_location(2);
  TransitionGraph g(loose_graph());
  SuffStats s;
  s.ingest(fx.logs);
  PredicateManager pm;
  pm.build(s);
  g.build(s);
  PathBuilder b(g, pm);
  const auto pc = b.build(9);
  ASSERT_TRUE(pc.has_value());
  ASSERT_EQ(pc->skeleton.size(), 3u);
  EXPECT_EQ(pc->skeleton[1], 2);  // the scored node wins
}

TEST(PathBuilder, DetourTypesClassified) {
  Detour d;
  d.start_idx = 1;
  d.end_idx = 3;
  EXPECT_EQ(d.type(), Detour::Type::kForward);
  d.end_idx = 0;
  EXPECT_EQ(d.type(), Detour::Type::kBackward);
  d.end_idx = 1;
  EXPECT_EQ(d.type(), Detour::Type::kLoop);
  EXPECT_STREQ(detour_type_name(Detour::Type::kForward), "forward");
}

TEST(PathBuilder, FindsDetourThroughScoredOffSkeletonNode) {
  GraphFixture fx;
  // Main route 0->2->4->9 dominates; a scored node 5 hangs off 2..4.
  for (int i = 0; i < 20; ++i) fx.add_faulty({0, 2, 4, 9});
  for (int i = 0; i < 4; ++i) fx.add_faulty({0, 2, 5, 4, 9});
  fx.score_location(5);
  TransitionGraph g(loose_graph());
  SuffStats s;
  s.ingest(fx.logs);
  PredicateManager pm;
  pm.build(s);
  g.build(s);
  PathBuilder b(g, pm);
  const auto pc = b.build(9);
  ASSERT_TRUE(pc.has_value());
  // 5 is off the skeleton (skeleton avg prefers the 4-node route or includes
  // 5 directly; both are acceptable as long as some candidate visits 5).
  bool candidate_visits_5 = false;
  for (const auto& c : pc->candidates) {
    for (monitor::LocId n : c.nodes) candidate_visits_5 |= (n == 5);
  }
  EXPECT_TRUE(candidate_visits_5);
}

TEST(PathBuilder, CandidatesRankedByScoreAndDeduplicated) {
  GraphFixture fx;
  for (int i = 0; i < 20; ++i) fx.add_faulty({0, 2, 4, 9});
  for (int i = 0; i < 4; ++i) fx.add_faulty({0, 2, 5, 4, 9});
  fx.score_location(5);
  TransitionGraph g(loose_graph());
  SuffStats s;
  s.ingest(fx.logs);
  PredicateManager pm;
  pm.build(s);
  g.build(s);
  PathBuilder b(g, pm);
  const auto pc = b.build(9);
  ASSERT_TRUE(pc.has_value());
  for (std::size_t i = 1; i < pc->candidates.size(); ++i) {
    EXPECT_GE(pc->candidates[i - 1].avg_score, pc->candidates[i].avg_score);
  }
  std::set<std::vector<monitor::LocId>> unique;
  for (const auto& c : pc->candidates) {
    EXPECT_TRUE(unique.insert(c.nodes).second) << "duplicate candidate";
  }
}

TEST(PathBuilder, UnreachableFailureYieldsDegeneratePath) {
  GraphFixture fx;
  for (int i = 0; i < 5; ++i) fx.add_faulty({0, 1});
  fx.add_faulty({7});  // failure node isolated
  TransitionGraph g(loose_graph());
  SuffStats s;
  s.ingest(fx.logs);
  PredicateManager pm;
  pm.build(s);
  g.build(s);
  PathBuilder b(g, pm);
  const auto pc = b.build(7);
  // Either a degenerate single-node skeleton or no construction; it must
  // not crash and any skeleton must end at the failure point.
  if (pc.has_value() && !pc->skeleton.empty()) {
    EXPECT_EQ(pc->skeleton.back(), 7);
  }
}

TEST(PathBuilder, CandidatePathsEndAtFailurePoint) {
  GraphFixture fx;
  for (int i = 0; i < 10; ++i) fx.add_faulty({0, 2, 4, 6, 8});
  for (int i = 0; i < 3; ++i) fx.add_faulty({0, 2, 3, 4, 6, 8});
  fx.score_location(3);
  TransitionGraph g(loose_graph());
  SuffStats s;
  s.ingest(fx.logs);
  PredicateManager pm;
  pm.build(s);
  g.build(s);
  PathBuilder b(g, pm);
  const auto pc = b.build(8);
  ASSERT_TRUE(pc.has_value());
  for (const auto& c : pc->candidates) {
    ASSERT_FALSE(c.nodes.empty());
    EXPECT_EQ(c.nodes.back(), 8);
  }
}

}  // namespace
}  // namespace statsym::stats
