// Cross-engine equivalence oracle tests (ISSUE 7 satellite): the oracle
// must pass on healthy programs, and when an engine's witness is
// deliberately corrupted (DiffOptions::inject_witness_corruption), the
// harness must detect the disagreement, shrink the program, and write a
// reproducer naming the broken engine.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/diff_driver.h"
#include "fuzz/program_gen.h"

namespace statsym::fuzz {
namespace {

namespace fs = std::filesystem;

CorpusEntry load_corpus(const std::string& file) {
  std::ifstream in(fs::path(STATSYM_CORPUS_DIR) / file);
  EXPECT_TRUE(in) << "cannot open corpus file " << file;
  std::stringstream ss;
  ss << in.rdbuf();
  CorpusEntry e;
  EXPECT_TRUE(parse_corpus(ss.str(), e)) << "malformed " << file;
  return e;
}

DiffOptions cross_engine_opts() {
  DiffOptions opts;
  opts.engines = {core::EngineKind::kGuided, core::EngineKind::kPure,
                  core::EngineKind::kConcolic};
  opts.shrink = false;
  return opts;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CrossEngine, HealthyPlantedProgramPasses) {
  const CorpusEntry e = load_corpus("oob-basic.corpus");
  DiffOptions opts = cross_engine_opts();
  opts.gen = e.gen;
  const ProgramVerdict v = run_program_seed(0, e.seed, opts);
  EXPECT_TRUE(v.ok()) << v.detail;
  EXPECT_TRUE(v.fault_planted);
  EXPECT_TRUE(v.pipeline_found);
  EXPECT_TRUE(v.pure_found);
  EXPECT_TRUE(v.concolic_found);
  EXPECT_GT(v.concolic_runs, 0u);
}

TEST(CrossEngine, HealthyBenignProgramPasses) {
  const CorpusEntry e = load_corpus("benign-a.corpus");
  DiffOptions opts = cross_engine_opts();
  opts.gen = e.gen;
  const ProgramVerdict v = run_program_seed(0, e.seed, opts);
  EXPECT_TRUE(v.ok()) << v.detail;
  EXPECT_FALSE(v.fault_planted);
  EXPECT_FALSE(v.pipeline_found);
  EXPECT_FALSE(v.pure_found);
  EXPECT_FALSE(v.concolic_found);
}

TEST(CrossEngine, GuidedOnlyEnginesSkipTheOracle) {
  // Default single guided engine: the oracle is skipped, so the campaign
  // makes no standalone pure/concolic runs.
  const CorpusEntry e = load_corpus("oob-basic.corpus");
  DiffOptions opts;
  opts.gen = e.gen;
  opts.shrink = false;
  const ProgramVerdict v = run_program_seed(0, e.seed, opts);
  EXPECT_TRUE(v.ok()) << v.detail;
  EXPECT_FALSE(v.pure_found);
  EXPECT_FALSE(v.concolic_found);
  EXPECT_EQ(v.concolic_runs, 0u);
}

// One injection case per engine: corrupting that engine's witness must trip
// the oracle and name the engine in the failure detail.
void expect_injection_detected(const std::string& engine) {
  const CorpusEntry e = load_corpus("oob-basic.corpus");
  DiffOptions opts = cross_engine_opts();
  opts.gen = e.gen;
  opts.inject_witness_corruption = engine;
  const ProgramVerdict v = run_program_seed(0, e.seed, opts);
  EXPECT_EQ(v.failed, Oracle::kCrossEngine);
  EXPECT_NE(v.detail.find(engine + " witness"), std::string::npos)
      << "detail should name the broken engine: " << v.detail;
}

TEST(CrossEngine, DetectsCorruptedGuidedWitness) {
  expect_injection_detected("guided");
}

TEST(CrossEngine, DetectsCorruptedPureWitness) {
  expect_injection_detected("pure");
}

TEST(CrossEngine, DetectsCorruptedConcolicWitness) {
  expect_injection_detected("concolic");
}

TEST(CrossEngine, DisagreementIsShrunkAndReported) {
  // The full failure path: detect the injected disagreement, shrink the
  // module while the disagreement persists, and write a reproducer that
  // names the oracle and carries the minimised IR.
  const CorpusEntry e = load_corpus("oob-basic.corpus");
  const GeneratedProgram prog = generate_program(e.seed, e.gen);
  const std::size_t full_instrs = [&] {
    std::size_t n = 0;
    for (const auto& fn : prog.app.module.functions()) n += fn.instr_count();
    return n;
  }();

  DiffOptions opts = cross_engine_opts();
  opts.gen = e.gen;
  opts.inject_witness_corruption = "concolic";
  opts.shrink = true;
  opts.max_shrink_checks = 8;  // bound the re-runs; shrinkage is best-effort
  opts.repro_dir =
      (fs::temp_directory_path() / "statsym-cross-engine-test").string();
  fs::remove_all(opts.repro_dir);

  const ProgramVerdict v = run_program_seed(0, e.seed, opts);
  ASSERT_EQ(v.failed, Oracle::kCrossEngine);
  ASSERT_FALSE(v.repro_file.empty());
  EXPECT_NE(v.repro_file.find("cross-engine"), std::string::npos);
  const std::string repro = read_file(v.repro_file);
  EXPECT_NE(repro.find("oracle: cross-engine"), std::string::npos);
  EXPECT_NE(repro.find("concolic witness"), std::string::npos);
  EXPECT_NE(repro.find("minimised module"), std::string::npos);
  // The reproducer records how many instructions survived shrinking; it can
  // never exceed the original module.
  const auto at = repro.find("minimised module (");
  ASSERT_NE(at, std::string::npos);
  const std::size_t shrunk_instrs =
      std::stoul(repro.substr(at + std::string("minimised module (").size()));
  EXPECT_LE(shrunk_instrs, full_instrs);
  fs::remove_all(opts.repro_dir);
}

TEST(CrossEngine, CampaignTalliesCrossEngineFailures) {
  const CorpusEntry e = load_corpus("oob-basic.corpus");
  DiffOptions opts = cross_engine_opts();
  opts.gen = e.gen;
  opts.inject_witness_corruption = "pure";
  opts.num_programs = 2;
  opts.seed = e.seed;
  const CampaignResult cr = run_campaign(opts);
  std::size_t expect_failures = 0;
  for (const auto& v : cr.programs) {
    if (v.failed == Oracle::kCrossEngine) ++expect_failures;
  }
  EXPECT_EQ(cr.cross_engine_failures, expect_failures);
  if (cr.cross_engine_failures > 0) {
    EXPECT_FALSE(cr.passed(opts));
  }
}

}  // namespace
}  // namespace statsym::fuzz
