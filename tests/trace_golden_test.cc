// Golden-trace regression tests: the engine's JSONL event stream must match
// the checked-in goldens under tests/goldens/.
//
// The golden configs deliberately keep the wall-clock budgets from binding
// (small programs, generous budgets): a golden that tripped one would
// flake.
//
// Regenerate after an intentional trace-schema change with:
//   STATSYM_REGOLD=1 ./build/tests/trace_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "fuzz/diff_driver.h"
#include "fuzz/program_gen.h"
#include "statsym/engine.h"
#include "statsym/run_options.h"

namespace statsym::core {
namespace {

namespace fs = std::filesystem;

EngineOptions golden_opts(double sampling) {
  EngineOptions o;
  o.monitor.sampling_rate = sampling;
  // 40 logs per class: the fuzz driver's starvation budget, and small
  // enough that traces stay reviewable.
  o.target_correct_logs = 40;
  o.target_faulty_logs = 40;
  o.candidate_timeout_seconds = 60.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.seed = 424242;
  return o;
}

void run_traced(obs::Tracer& tracer, const apps::AppSpec& app,
                double sampling, const std::vector<EngineKind>& engines) {
  EngineOptions o = golden_opts(sampling);
  o.engines = engines;
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.set_tracer(&tracer);
  engine.collect_logs(app.workload);
  engine.run();
}

std::string trace_for(const apps::AppSpec& app, double sampling,
                      const std::vector<EngineKind>& engines) {
  obs::Tracer tracer;
  run_traced(tracer, app, sampling, engines);
  EXPECT_EQ(tracer.buffer().dropped(), 0u)
      << "golden configs must fit the default ring";
  return tracer.to_jsonl();
}

fs::path golden_path(const std::string& name) {
  return fs::path(STATSYM_GOLDEN_DIR) / (name + ".trace.jsonl");
}

void check_against_golden(const std::string& name, const std::string& jsonl) {
  const fs::path p = golden_path(name);
  if (std::getenv("STATSYM_REGOLD") != nullptr) {
    std::ofstream os(p);
    ASSERT_TRUE(os) << "cannot write " << p;
    os << jsonl;
    return;
  }
  std::ifstream in(p);
  ASSERT_TRUE(in) << "missing golden " << p
                  << " (run with STATSYM_REGOLD=1 to create it)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), jsonl)
      << name << ": trace drifted from the checked-in golden; if the change "
      << "is intentional, regenerate with STATSYM_REGOLD=1";
}

void run_case(const std::string& name, const apps::AppSpec& app,
              double sampling) {
  const std::string jsonl = trace_for(app, sampling, {EngineKind::kGuided});
  ASSERT_FALSE(jsonl.empty());
  check_against_golden(name, jsonl);
}

// --- four hand-written apps ---------------------------------------------

TEST(TraceGolden, Fig2) { run_case("fig2", apps::make_fig2(), 0.5); }

TEST(TraceGolden, Polymorph) {
  // 0.2 sampling produces >= 2 candidates, so the candidate loop (tried
  // candidates only, rank order) is actually on the golden.
  run_case("polymorph", apps::make_polymorph(), 0.2);
}

TEST(TraceGolden, Ctree) { run_case("ctree", apps::make_ctree(), 0.3); }

TEST(TraceGolden, Grep) { run_case("grep", apps::make_grep(), 0.3); }

// --- engine-race cases ---------------------------------------------------
// Every lane that runs is bracketed by engine-lane-begin/-end (the default
// one-lane race above has one pair) and, when the concolic lane runs, emits
// concolic-run events and one solver-query event per negation. Lanes after
// the winner never start and leave no events.

void run_race_case(const std::string& name, const apps::AppSpec& app,
                   double sampling, const std::vector<EngineKind>& engines) {
  const std::string jsonl = trace_for(app, sampling, engines);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_NE(jsonl.find("engine-lane-begin"), std::string::npos);
  check_against_golden(name, jsonl);
}

TEST(TraceGolden, Fig2EngineRace) {
  run_race_case(
      "fig2-engines", apps::make_fig2(), 0.5,
      {EngineKind::kGuided, EngineKind::kPure, EngineKind::kConcolic});
}

TEST(TraceGolden, Fig2ConcolicLaneFirst) {
  // Concolic at priority 0 always runs, so the negation schedule
  // itself is pinned by the golden, not just the lane brackets.
  run_race_case("fig2-concolic-first", apps::make_fig2(), 0.5,
                {EngineKind::kConcolic, EngineKind::kGuided});
}

// --- bounded ring -------------------------------------------------------
// Phase 3 emits straight into the tracer's one ring, so a ring smaller than
// the stream keeps exactly its last N events, whichever lane emitted them,
// and still counts every event.

TEST(TraceRing, SmallRingKeepsTheRaceStreamSuffix) {
  const apps::AppSpec app = apps::make_fig2();
  const std::vector<EngineKind> engines = {
      EngineKind::kConcolic, EngineKind::kGuided, EngineKind::kPure};
  obs::Tracer full;
  run_traced(full, app, 0.5, engines);
  constexpr std::size_t kCap = 40;
  obs::Tracer small(obs::TraceOptions{.capacity = kCap});
  run_traced(small, app, 0.5, engines);

  const std::vector<obs::TraceEvent> all = full.buffer().snapshot();
  const std::vector<obs::TraceEvent> kept = small.buffer().snapshot();
  ASSERT_EQ(full.buffer().dropped(), 0u);
  ASSERT_GT(all.size(), kCap);
  EXPECT_EQ(small.buffer().total(), full.buffer().total());
  EXPECT_EQ(small.buffer().dropped(), small.buffer().total() - kCap);
  ASSERT_EQ(kept.size(), kCap);
  const std::size_t offset = all.size() - kCap;
  bool saw_lane_event = false;
  for (std::size_t i = 0; i < kCap; ++i) {
    SCOPED_TRACE(i);
    const obs::TraceEvent& want = all[offset + i];
    EXPECT_EQ(kept[i].kind, want.kind);
    EXPECT_EQ(kept[i].lane, want.lane);
    EXPECT_EQ(kept[i].a, want.a);
    EXPECT_EQ(kept[i].b, want.b);
    EXPECT_EQ(kept[i].c, want.c);
    EXPECT_EQ(kept[i].name, want.name);
    saw_lane_event |= kept[i].lane != 0;
  }
  EXPECT_TRUE(saw_lane_event) << "the kept suffix should reach into a lane";
  // Absolute sequence numbers survive eviction: the small ring renders as
  // the full rendering's last kCap lines.
  const std::string full_jsonl = full.to_jsonl();
  std::size_t cut = full_jsonl.size();
  for (std::size_t n = 0; n <= kCap; ++n) {
    cut = full_jsonl.rfind('\n', cut - 1);
  }
  EXPECT_EQ(small.to_jsonl(), full_jsonl.substr(cut + 1));
}

// One event per solver query keeps a whole concolic-lane analysis of each
// paper app (`statsym run <app> --seed 7 --engines concolic`) inside the
// default ring, so its trace still opens with the log-collection phase.
TEST(TraceRing, ConcolicAppRunsFitTheDefaultRing) {
  RunOptions run;
  run.seed = 7;
  run.engines = {EngineKind::kConcolic};
  for (const char* name : {"ctree", "grep", "thttpd", "polymorph"}) {
    SCOPED_TRACE(name);
    const apps::AppSpec app = apps::make_app(name);
    obs::Tracer tracer;
    StatSymEngine engine(app.module, app.sym_spec, run.to_engine_options());
    engine.set_tracer(&tracer);
    engine.collect_logs(app.workload);
    engine.run();
    EXPECT_EQ(tracer.buffer().dropped(), 0u);
    const std::vector<obs::TraceEvent> evs = tracer.buffer().snapshot();
    ASSERT_FALSE(evs.empty());
    EXPECT_EQ(evs.front().kind, obs::EventKind::kPhaseBegin);
    EXPECT_EQ(evs.front().name, "collect-logs");
  }
}

// --- three generator-corpus seeds ---------------------------------------

fuzz::CorpusEntry load_corpus(const std::string& file) {
  std::ifstream in(fs::path(STATSYM_CORPUS_DIR) / file);
  EXPECT_TRUE(in) << "cannot open corpus file " << file;
  std::stringstream ss;
  ss << in.rdbuf();
  fuzz::CorpusEntry e;
  EXPECT_TRUE(fuzz::parse_corpus(ss.str(), e)) << "malformed " << file;
  return e;
}

void run_corpus_case(const std::string& name, const std::string& file) {
  const fuzz::CorpusEntry e = load_corpus(file);
  const fuzz::GeneratedProgram prog = fuzz::generate_program(e.seed, e.gen);
  run_case(name, prog.app, 0.3);
}

TEST(TraceGolden, CorpusOobBasic) {
  run_corpus_case("corpus-oob-basic", "oob-basic.corpus");
}

TEST(TraceGolden, CorpusAssertTwoCandidates) {
  run_corpus_case("corpus-assert-two-candidates",
                  "assert-two-candidates.corpus");
}

TEST(TraceGolden, CorpusBenignA) {
  // A fault-free program: the trace ends after the stat phase (no faulty
  // logs → no failure node), pinning the early-return path's events too.
  run_corpus_case("corpus-benign-a", "benign-a.corpus");
}

}  // namespace
}  // namespace statsym::core
