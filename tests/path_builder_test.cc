// Tests for candidate-path construction: skeleton selection, detour
// classification (the three types of §VI-B), joining, and ranking.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>

#include "fuzz/program_gen.h"
#include "stats/path_builder.h"
#include "statsym/engine.h"

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

// --- Skeleton search against its reference ---------------------------------

// The skeleton search's bounds, as in path_builder.cc.
constexpr std::size_t kMaxSkeletonPaths = 20'000;
constexpr std::size_t kMaxDfsSteps = 2'000'000;
constexpr std::size_t kMaxSkeletonLen = 256;

struct ReferenceSearch {
  std::vector<monitor::LocId> skeleton;
  std::size_t enumerated{0};  // entry→failure paths found
  std::size_t steps{0};       // calls, counting those a spent budget refused
};

// The skeleton search as it was before its dense tables: std::set on-path
// marks, hash-map successor and score lookups, and avg_score summed afresh
// for every found path. It serves only as the reference build() must match.
ReferenceSearch reference_skeleton(const TransitionGraph& g,
                                   const PredicateManager& pm,
                                   monitor::LocId failure) {
  auto avg_score = [&](const std::vector<monitor::LocId>& nodes) {
    double total = 0.0;
    for (monitor::LocId n : nodes) total += pm.loc_score(n);
    return total / static_cast<double>(nodes.size());
  };
  ReferenceSearch r;
  double best_score = -1.0;
  std::vector<monitor::LocId> path;
  std::set<monitor::LocId> on_path;
  auto dfs = [&](auto&& self, monitor::LocId cur) -> void {
    if (r.enumerated >= kMaxSkeletonPaths) return;
    if (++r.steps >= kMaxDfsSteps) return;
    if (path.size() >= kMaxSkeletonLen) return;
    path.push_back(cur);
    on_path.insert(cur);
    if (cur == failure) {
      ++r.enumerated;
      const double s = avg_score(path);
      if (s > best_score ||
          (s == best_score &&
           (r.skeleton.empty() || path.size() < r.skeleton.size()))) {
        best_score = s;
        r.skeleton = path;
      }
    } else {
      for (const Edge& e : g.successors(cur)) {
        if (on_path.contains(e.to)) continue;
        self(self, e.to);
      }
    }
    on_path.erase(cur);
    path.pop_back();
  };
  for (monitor::LocId s : g.entry_candidates()) dfs(dfs, s);
  if (r.skeleton.empty()) {
    for (monitor::LocId s : g.nodes()) {
      if (s != failure) dfs(dfs, s);
    }
  }
  if (r.skeleton.empty() && g.occurrences(failure) > 0) r.skeleton = {failure};
  return r;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Every field of a construction, floats as hexfloat (bit-exact).
std::string fingerprint(const std::optional<PathConstruction>& pc) {
  if (!pc.has_value()) return "none\n";
  std::string out = "skeleton";
  for (auto n : pc->skeleton) out += " " + std::to_string(n);
  out += "\n";
  for (const auto& d : pc->detours) {
    out += "detour " + std::to_string(d.start_idx) + "->" +
           std::to_string(d.end_idx) + " score=" + hex(d.avg_score) + " via";
    for (auto n : d.via) out += " " + std::to_string(n);
    out += "\n";
  }
  for (const auto& c : pc->candidates) {
    out += "cand score=" + hex(c.avg_score) +
           " detours=" + std::to_string(c.num_detours) + " nodes";
    for (auto n : c.nodes) out += " " + std::to_string(n);
    out += "\n";
  }
  return out;
}

// Builds toward `failure` and checks the skeleton against the reference.
// Returns the reference's counters and the construction's fingerprint.
ReferenceSearch expect_reference_skeleton(const TransitionGraph& g,
                                          const PredicateManager& pm,
                                          monitor::LocId failure,
                                          std::string* fp = nullptr) {
  const ReferenceSearch ref = reference_skeleton(g, pm, failure);
  const auto pc = PathBuilder(g, pm).build(failure);
  EXPECT_EQ(pc.has_value(), !ref.skeleton.empty());
  if (pc.has_value()) {
    EXPECT_EQ(pc->skeleton, ref.skeleton);
  }
  if (fp != nullptr) *fp = fingerprint(pc);
  return ref;
}

// The fixture's logs mined as the engine mines them, loose thresholds.
struct Mined {
  SuffStats suff;
  PredicateManager preds;
  TransitionGraph graph{loose_graph()};

  explicit Mined(const GraphFixture& fx) {
    suff.ingest(fx.logs);
    preds.build(suff);
    graph.build(suff);
  }
};

TEST(SkeletonSearch, LayeredDagHitsThePathCap) {
  // 0 → 8 layers of 4 nodes, each fully joined to the next → 99: 4^8 paths.
  // Log (a, b) takes node a on even layers and b on odd ones, so the 16
  // logs realise every edge between adjacent layers.
  GraphFixture fx;
  for (int rep = 0; rep < 2; ++rep) {
    for (monitor::LocId a = 0; a < 4; ++a) {
      for (monitor::LocId b = 0; b < 4; ++b) {
        std::vector<monitor::LocId> seq{0};
        for (monitor::LocId layer = 0; layer < 8; ++layer) {
          seq.push_back(10 * (layer + 1) + (layer % 2 == 0 ? a : b));
        }
        seq.push_back(99);
        fx.add_faulty(seq);
      }
    }
  }
  fx.score_location(31);
  fx.score_location(52);
  const Mined m(fx);
  const ReferenceSearch ref = expect_reference_skeleton(m.graph, m.preds, 99);
  EXPECT_EQ(ref.enumerated, kMaxSkeletonPaths);
}

TEST(SkeletonSearch, CliqueHitsTheVisitCap) {
  // 0 → 1 → 99 is found first; then the 11-node clique behind 0 → 10 has
  // about 9.9M simple paths and none reaches 99, so the visit budget ends
  // the search.
  GraphFixture fx;
  for (int i = 0; i < 30; ++i) fx.add_faulty({0, 1, 99});
  for (int i = 0; i < 2; ++i) fx.add_faulty({0, 10});
  for (monitor::LocId u = 10; u <= 20; ++u) {
    for (monitor::LocId v = 10; v <= 20; ++v) {
      if (u != v) fx.add_faulty({u, v});
    }
  }
  fx.score_location(1);
  const Mined m(fx);
  const ReferenceSearch ref = expect_reference_skeleton(m.graph, m.preds, 99);
  EXPECT_GE(ref.steps, kMaxDfsSteps);
  EXPECT_EQ(ref.skeleton, (std::vector<monitor::LocId>{0, 1, 99}));
}

TEST(SkeletonSearch, EqualScoresPreferTheShorterPath) {
  // No predicate: every path averages 0, so the first shortest one wins.
  GraphFixture fx;
  for (int i = 0; i < 6; ++i) fx.add_faulty({0, 1, 2, 9});
  for (int i = 0; i < 4; ++i) fx.add_faulty({0, 3, 9});
  for (int i = 0; i < 2; ++i) fx.add_faulty({0, 4, 9});
  const Mined m(fx);
  const ReferenceSearch ref = expect_reference_skeleton(m.graph, m.preds, 9);
  EXPECT_EQ(ref.enumerated, 3u);
  EXPECT_EQ(ref.skeleton, (std::vector<monitor::LocId>{0, 3, 9}));
}

TEST(SkeletonSearch, FallsBackToAllNodesWhenNoEntryReachesTheFailure) {
  // Every node then starts a search in turn; all paths average 0, so the
  // shortest found, 8 → 9, wins.
  GraphFixture fx;
  for (int i = 0; i < 8; ++i) fx.add_faulty({0, 2, 4});
  for (int i = 0; i < 3; ++i) fx.add_faulty({5, 6, 8, 9});
  const Mined m(fx);
  ASSERT_EQ(m.graph.entry_candidates(), (std::vector<monitor::LocId>{0}));
  const ReferenceSearch ref = expect_reference_skeleton(m.graph, m.preds, 9);
  EXPECT_EQ(ref.skeleton, (std::vector<monitor::LocId>{8, 9}));
}

TEST(SkeletonSearch, SparseLocationIds) {
  GraphFixture fx;
  for (int i = 0; i < 5; ++i) fx.add_faulty({0, 2, 5000});
  for (int i = 0; i < 2; ++i) fx.add_faulty({0, 5000});
  fx.score_location(2);
  const Mined m(fx);
  const ReferenceSearch ref =
      expect_reference_skeleton(m.graph, m.preds, 5000);
  EXPECT_EQ(ref.skeleton, (std::vector<monitor::LocId>{0, 2, 5000}));
  // A failure point the graph never saw: no construction either way.
  expect_reference_skeleton(m.graph, m.preds, 4999);
  expect_reference_skeleton(m.graph, m.preds, 7000);
}

// Mines 100 generated programs with the paper's logging settings and checks
// each construction's skeleton against the reference; the digest over every
// construction's fingerprint was recorded before the dense tables.
std::uint64_t corpus_digest(const fuzz::GenOptions& gen) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const fuzz::GeneratedProgram prog = fuzz::generate_program(seed, gen);
    core::EngineOptions opts;
    opts.monitor.sampling_rate = 0.3;
    opts.seed = seed;
    core::StatSymEngine engine(prog.app.module, prog.app.sym_spec, opts);
    engine.collect_logs(prog.app.workload, /*keep_logs=*/true);
    SuffStats suff;
    suff.ingest(engine.logs());
    PredicateManager preds;
    preds.build(suff);
    TransitionGraph graph;
    graph.build(suff);
    const monitor::LocId failure =
        TransitionGraph::failure_node(suff, &prog.app.module);
    std::string fp = "no failure\n";
    if (failure != monitor::kNoLoc) {
      SCOPED_TRACE("program " + std::to_string(seed));
      expect_reference_skeleton(graph, preds, failure, &fp);
    }
    for (const unsigned char c : std::to_string(seed) + ": " + fp) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(SkeletonSearch, GeneratedProgramsAtDefaultSettings) {
  EXPECT_EQ(corpus_digest({}), 0x0512b907b69589ebULL);
}

TEST(SkeletonSearch, GeneratedProgramsAtConcolicFleetSettings) {
  fuzz::GenOptions gen;
  gen.max_chain = 8;
  gen.max_segments = 8;
  gen.fault_probability = 1.0;
  EXPECT_EQ(corpus_digest(gen), 0x2dd10ff2eb34028bULL);
}

}  // namespace
}  // namespace statsym::stats
