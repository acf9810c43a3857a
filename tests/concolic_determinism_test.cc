// Concolic determinism property tests: the multi-engine race (guided | pure |
// concolic lanes) and the predicate-ranked concolic lane alone must be
// byte-identical from run to run — witness inputs, the concolic negation
// schedule, and the winning candidate included — across three
// generator-corpus seeds, and the fuzz campaign's verdicts must not depend
// on its --jobs. Mirrors parallel_test.cc, which pins the same contract for
// the candidate loop inside the guided lane. (The test names still say
// "across thread counts" from when the engine ran lanes and candidates on
// a worker pool; each analysis now runs on one thread.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/diff_driver.h"
#include "fuzz/program_gen.h"
#include "obs/trace.h"
#include "statsym/engine.h"

namespace statsym::core {
namespace {

namespace fs = std::filesystem;

fuzz::CorpusEntry load_corpus(const std::string& file) {
  std::ifstream in(fs::path(STATSYM_CORPUS_DIR) / file);
  EXPECT_TRUE(in) << "cannot open corpus file " << file;
  std::stringstream ss;
  ss << in.rdbuf();
  fuzz::CorpusEntry e;
  EXPECT_TRUE(fuzz::parse_corpus(ss.str(), e)) << "malformed " << file;
  return e;
}

EngineOptions race_opts() {
  EngineOptions o;
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = 40;
  o.target_faulty_logs = 40;
  o.candidate_timeout_seconds = 60.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.seed = 424242;
  o.engines = {EngineKind::kGuided, EngineKind::kPure, EngineKind::kConcolic};
  return o;
}

struct RaceRun {
  EngineResult res;
  std::string concolic_schedule;  // concolic-run/-negation events, in order
};

// The negation schedule is read off the trace: the exact sequence of
// concolic-run and concolic-negation events the concolic lane emitted (a
// lane after the winner never starts and contributes nothing).
std::string concolic_lines(const std::string& jsonl) {
  std::istringstream is(jsonl);
  std::ostringstream os;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("concolic-") != std::string::npos) os << line << '\n';
  }
  return os.str();
}

RaceRun run_race(const apps::AppSpec& app, const EngineOptions& o) {
  obs::Tracer tracer;
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.set_tracer(&tracer);
  engine.collect_logs(app.workload);
  RaceRun out;
  out.res = engine.run();
  out.concolic_schedule = concolic_lines(tracer.to_jsonl());
  return out;
}

void expect_identical(const RaceRun& a, const RaceRun& b) {
  ASSERT_EQ(a.res.found, b.res.found);
  EXPECT_EQ(a.res.winning_engine, b.res.winning_engine);
  ASSERT_EQ(a.res.lanes.size(), b.res.lanes.size());
  for (std::size_t i = 0; i < a.res.lanes.size(); ++i) {
    const EngineLaneResult& la = a.res.lanes[i];
    const EngineLaneResult& lb = b.res.lanes[i];
    EXPECT_EQ(la.kind, lb.kind) << "lane " << i;
    EXPECT_EQ(la.priority, lb.priority) << "lane " << i;
    EXPECT_EQ(la.found, lb.found) << "lane " << i;
    EXPECT_EQ(la.termination, lb.termination) << "lane " << i;
    EXPECT_EQ(la.paths_explored, lb.paths_explored) << "lane " << i;
    EXPECT_EQ(la.instructions, lb.instructions) << "lane " << i;
    EXPECT_EQ(la.concolic_runs, lb.concolic_runs) << "lane " << i;
    // The shared-cache-hit/solve split depends on cache warmth
    // (parallel_test.cc); the query count does not.
    EXPECT_EQ(la.solver_stats.queries, lb.solver_stats.queries) << "lane "
                                                                << i;
  }
  EXPECT_EQ(a.res.paths_explored, b.res.paths_explored);
  EXPECT_EQ(a.res.instructions, b.res.instructions);
  EXPECT_EQ(a.res.winning_candidate, b.res.winning_candidate);
  EXPECT_EQ(a.concolic_schedule, b.concolic_schedule);
  if (a.res.found) {
    EXPECT_EQ(a.res.vuln->function, b.res.vuln->function);
    EXPECT_EQ(a.res.vuln->input.argv, b.res.vuln->input.argv);
    EXPECT_EQ(a.res.vuln->input.env, b.res.vuln->input.env);
    EXPECT_EQ(a.res.vuln->input.sym_ints, b.res.vuln->input.sym_ints);
    EXPECT_EQ(a.res.vuln->input.sym_bufs, b.res.vuln->input.sym_bufs);
  }
}

void run_corpus_case(const std::string& file) {
  const fuzz::CorpusEntry e = load_corpus(file);
  const fuzz::GeneratedProgram prog = fuzz::generate_program(e.seed, e.gen);
  const RaceRun first = run_race(prog.app, race_opts());
  const RaceRun second = run_race(prog.app, race_opts());
  ASSERT_EQ(first.res.found, e.expect_fault);
  expect_identical(first, second);
}

TEST(ConcolicDeterminism, CorpusOobBasicRaceMatchesAcrossThreadCounts) {
  run_corpus_case("oob-basic.corpus");
}

TEST(ConcolicDeterminism, CorpusAssertTwoCandidatesRaceMatchesAcrossThreads) {
  run_corpus_case("assert-two-candidates.corpus");
}

TEST(ConcolicDeterminism, CorpusOobDeepPathsRaceMatchesAcrossThreadCounts) {
  run_corpus_case("oob-deep-paths.corpus");
}

TEST(ConcolicDeterminism, ConcolicLaneFirstStillDeterministic) {
  // Concolic at priority 0 makes its lane always counted, so the negation
  // schedule itself is on the comparison, not just the lane summary.
  const fuzz::CorpusEntry e = load_corpus("oob-basic.corpus");
  const fuzz::GeneratedProgram prog = fuzz::generate_program(e.seed, e.gen);
  EngineOptions o = race_opts();
  o.engines = {EngineKind::kConcolic, EngineKind::kGuided};
  const RaceRun first = run_race(prog.app, o);
  const RaceRun second = run_race(prog.app, o);
  ASSERT_TRUE(first.res.found);
  ASSERT_FALSE(first.concolic_schedule.empty());
  expect_identical(first, second);
}

TEST(ConcolicDeterminism, RankedConcolicLaneMatchesAtJobs1_4_8) {
  // The concolic lane alone, its frontier ranked by the top candidate
  // path's predicates: the ranked negation schedule, witness and counts
  // must repeat exactly.
  for (const char* file : {"oob-basic.corpus", "assert-two-candidates.corpus",
                           "oob-deep-paths.corpus"}) {
    const fuzz::CorpusEntry e = load_corpus(file);
    const fuzz::GeneratedProgram prog = fuzz::generate_program(e.seed, e.gen);
    EngineOptions o = race_opts();
    o.engines = {EngineKind::kConcolic};
    const RaceRun first = run_race(prog.app, o);
    ASSERT_FALSE(first.res.construction.candidates.empty()) << file;
    ASSERT_FALSE(first.concolic_schedule.empty()) << file;
    SCOPED_TRACE(file);
    expect_identical(first, run_race(prog.app, o));
  }
}

TEST(ConcolicDeterminism, CampaignVerdictsMatchAcrossJobCounts) {
  // The fuzz campaign with all three engines armed: per-program verdicts
  // (including concolic_runs diagnostics) must not depend on --jobs.
  fuzz::DiffOptions opts;
  opts.num_programs = 4;
  opts.seed = 7;
  opts.engines = {EngineKind::kGuided, EngineKind::kPure,
                  EngineKind::kConcolic};
  opts.shrink = false;
  opts.jobs = 1;
  const fuzz::CampaignResult one = fuzz::run_campaign(opts);
  opts.jobs = 4;
  const fuzz::CampaignResult four = fuzz::run_campaign(opts);
  ASSERT_EQ(one.programs.size(), four.programs.size());
  for (std::size_t i = 0; i < one.programs.size(); ++i) {
    EXPECT_EQ(fuzz::format_verdict(one.programs[i]),
              fuzz::format_verdict(four.programs[i]));
  }
  EXPECT_EQ(one.cross_engine_failures, 0u);
  EXPECT_EQ(four.cross_engine_failures, 0u);
  EXPECT_EQ(one.concolic_verified, four.concolic_verified);
}

}  // namespace
}  // namespace statsym::core
