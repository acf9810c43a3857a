// Golden-trace regression tests (ISSUE 5 satellite): the engine's JSONL
// event stream must be byte-identical at --jobs 1 and --jobs 8, and must
// match the checked-in goldens under tests/goldens/.
//
// The golden configs deliberately keep the shared portfolio budget and the
// solver wall-clock deadline from binding (small programs, generous
// budgets) — those are the two documented sources of schedule dependence
// (DESIGN.md §5), and a golden that tripped them would flake.
//
// Regenerate after an intentional trace-schema change with:
//   STATSYM_REGOLD=1 ./build/tests/trace_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/registry.h"
#include "fuzz/diff_driver.h"
#include "fuzz/program_gen.h"
#include "statsym/engine.h"

namespace statsym::core {
namespace {

namespace fs = std::filesystem;

EngineOptions golden_opts(std::size_t threads, double sampling) {
  EngineOptions o;
  o.monitor.sampling_rate = sampling;
  // 40 logs per class: the fuzz driver's starvation budget, and small
  // enough that traces stay reviewable.
  o.target_correct_logs = 40;
  o.target_faulty_logs = 40;
  o.candidate_timeout_seconds = 60.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.num_threads = threads;
  o.candidate_portfolio_width = 4;
  o.seed = 424242;
  return o;
}

std::string trace_for(const apps::AppSpec& app, std::size_t jobs,
                      double sampling) {
  obs::Tracer tracer;
  StatSymEngine engine(app.module, app.sym_spec, golden_opts(jobs, sampling));
  engine.set_tracer(&tracer);
  engine.collect_logs(app.workload);
  engine.run();
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
  const std::string one = trace_for(app, 1, sampling);
  const std::string eight = trace_for(app, 8, sampling);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight) << name << ": trace differs between --jobs 1 and 8";
  check_against_golden(name, one);
}

// --- four hand-written apps ---------------------------------------------

TEST(TraceGolden, Fig2) { run_case("fig2", apps::make_fig2(), 0.5); }

TEST(TraceGolden, Polymorph) {
  // 0.2 sampling produces >= 2 candidates, so the portfolio stitching path
  // (counted candidates only, rank order) is actually on the golden.
  run_case("polymorph", apps::make_polymorph(), 0.2);
}

TEST(TraceGolden, Ctree) { run_case("ctree", apps::make_ctree(), 0.3); }

TEST(TraceGolden, Grep) { run_case("grep", apps::make_grep(), 0.3); }

// --- engine-race cases (ISSUE 7) -----------------------------------------
// The multi-lane race adds engine-lane-begin/-end brackets and, when the
// concolic lane is counted, concolic-run/concolic-negation events. Uncounted
// lanes drop their buffers, so these traces are --jobs independent too.

std::string race_trace_for(const apps::AppSpec& app, std::size_t jobs,
                           double sampling,
                           const std::vector<EngineKind>& engines) {
  obs::Tracer tracer;
  EngineOptions o = golden_opts(jobs, sampling);
  o.engines = engines;
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.set_tracer(&tracer);
  engine.collect_logs(app.workload);
  engine.run();
  EXPECT_EQ(tracer.buffer().dropped(), 0u)
      << "golden configs must fit the default ring";
  return tracer.to_jsonl();
}

void run_race_case(const std::string& name, const apps::AppSpec& app,
                   double sampling, const std::vector<EngineKind>& engines) {
  const std::string one = race_trace_for(app, 1, sampling, engines);
  const std::string eight = race_trace_for(app, 8, sampling, engines);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight) << name << ": trace differs between --jobs 1 and 8";
  EXPECT_NE(one.find("engine-lane-begin"), std::string::npos);
  check_against_golden(name, one);
}

TEST(TraceGolden, Fig2EngineRace) {
  run_race_case(
      "fig2-engines", apps::make_fig2(), 0.5,
      {EngineKind::kGuided, EngineKind::kPure, EngineKind::kConcolic});
}

TEST(TraceGolden, Fig2ConcolicLaneFirst) {
  // Concolic at priority 0 is always counted, so the negation schedule
  // itself is pinned by the golden, not just the lane brackets.
  run_race_case("fig2-concolic-first", apps::make_fig2(), 0.5,
                {EngineKind::kConcolic, EngineKind::kGuided});
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
