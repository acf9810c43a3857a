// Replays the checked-in generator corpus (tests/corpus/*.corpus) through
// the three differential-fuzzing oracles, and pins the campaign's
// determinism guarantees. The corpus is the regression net for the program
// generator: every entry records the generator seed + options plus the
// properties (planted kind, candidate count at 30% sampling) the entry was
// selected for.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/facts.h"
#include "fuzz/diff_driver.h"
#include "gtest/gtest.h"
#include "interp/interpreter.h"
#include "ir/verifier.h"

namespace statsym::fuzz {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(STATSYM_CORPUS_DIR)) {
    if (e.path().extension() == ".corpus") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

CorpusEntry load(const fs::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in) << "cannot open " << p;
  std::stringstream ss;
  ss << in.rdbuf();
  CorpusEntry e;
  EXPECT_TRUE(parse_corpus(ss.str(), e)) << "malformed corpus file " << p;
  return e;
}

DiffOptions replay_options() {
  DiffOptions o;
  o.shrink = false;  // corpus programs are expected to pass
  o.diff_inputs = 4;
  return o;
}

TEST(FuzzCorpus, HasEntriesIncludingMultiCandidate) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 10u);
  std::size_t multi = 0;
  for (const auto& f : files) {
    const CorpusEntry e = load(f);
    if (e.min_candidates >= 2) ++multi;
  }
  // At least one checked-in program must exercise the multi-candidate
  // ranking path at the default 30% sampling rate (ROADMAP open item).
  EXPECT_GE(multi, 1u);
}

TEST(FuzzCorpus, GroundTruthMatchesEntry) {
  for (const auto& f : corpus_files()) {
    SCOPED_TRACE(f.string());
    const CorpusEntry e = load(f);
    const GeneratedProgram prog = generate_program(e.seed, e.gen);
    EXPECT_EQ(prog.fault_planted, e.expect_fault);
    if (!e.expect_fault) {
      EXPECT_EQ(e.expect_kind, "none");
      continue;
    }
    EXPECT_EQ(prog.app.vuln_function, "sink");
    const char* kind = e.expect_kind == "assert" ? "assert-fail" : "oob-store";
    EXPECT_STREQ(interp::fault_kind_name(prog.app.vuln_kind), kind);
  }
}

TEST(FuzzCorpus, ReplayPassesAllOracles) {
  const DiffOptions opts = replay_options();
  for (const auto& f : corpus_files()) {
    SCOPED_TRACE(f.string());
    const CorpusEntry e = load(f);
    const ProgramVerdict v = run_program_seed(0, e.seed, opts);
    EXPECT_TRUE(v.ok()) << format_verdict(v);
    EXPECT_EQ(v.fault_planted, e.expect_fault);
    if (e.expect_fault) {
      EXPECT_TRUE(v.pipeline_found) << format_verdict(v);
      EXPECT_GE(v.num_candidates, e.min_candidates) << format_verdict(v);
    }
  }
}

TEST(FuzzCorpus, FormatParseRoundTrip) {
  for (const auto& f : corpus_files()) {
    SCOPED_TRACE(f.string());
    const CorpusEntry e = load(f);
    CorpusEntry back;
    ASSERT_TRUE(parse_corpus(format_corpus(e), back));
    EXPECT_EQ(back.name, e.name);
    EXPECT_EQ(back.seed, e.seed);
    EXPECT_EQ(back.expect_fault, e.expect_fault);
    EXPECT_EQ(back.expect_kind, e.expect_kind);
    EXPECT_EQ(back.min_candidates, e.min_candidates);
    EXPECT_DOUBLE_EQ(back.gen.fault_probability, e.gen.fault_probability);
    EXPECT_EQ(back.gen.max_chain, e.gen.max_chain);
    EXPECT_EQ(back.gen.max_threshold, e.gen.max_threshold);
  }
}

TEST(FuzzCorpus, ParseRejectsMalformed) {
  CorpusEntry e;
  EXPECT_FALSE(parse_corpus("", e));                    // no seed
  EXPECT_FALSE(parse_corpus("name x\n", e));            // still no seed
  EXPECT_FALSE(parse_corpus("seed 1\nbogus_key 2\n", e));
  EXPECT_FALSE(parse_corpus("seed notanumber\n", e));
  EXPECT_TRUE(parse_corpus("seed 7\n# comment\n\n", e));
  EXPECT_EQ(e.seed, 7u);
}

// Values parse strictly: std::stoull took "-3" as 2^64 - 3, and the stoX
// family skipped leading whitespace and ignored trailing junk.
TEST(FuzzCorpus, ParseRejectsLenientValues) {
  for (const char* bad :
       {"seed -3\n", "seed  7\n", "seed 7 \n",
        "seed 7\nfault_probability 0.5x\n", "seed 7\nfault_probability  0.5\n",
        "seed 7\nmin_threshold  5\n", "seed 7\nmax_chain -1\n",
        "seed 7\nallow_loops yes\n"}) {
    CorpusEntry e;
    EXPECT_FALSE(parse_corpus(bad, e)) << bad;
  }
  CorpusEntry e;
  ASSERT_TRUE(parse_corpus(
      "seed 7\nfault_probability 0.5\nmin_threshold -5\nallow_loops 0\n", e));
  EXPECT_EQ(e.seed, 7u);
  EXPECT_DOUBLE_EQ(e.gen.fault_probability, 0.5);
  EXPECT_EQ(e.gen.min_threshold, -5);
  EXPECT_FALSE(e.gen.allow_loops);
}

// The campaign contract: per-program verdicts are a pure function of
// (campaign seed, index) — the worker count must not leak into any field.
TEST(FuzzCampaign, DeterministicAcrossJobs) {
  DiffOptions opts = replay_options();
  opts.num_programs = 12;
  opts.seed = 99;
  opts.jobs = 1;
  const CampaignResult a = run_campaign(opts);
  opts.jobs = 2;
  const CampaignResult b = run_campaign(opts);
  ASSERT_EQ(a.programs.size(), b.programs.size());
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    EXPECT_EQ(format_verdict(a.programs[i]), format_verdict(b.programs[i]));
  }
  EXPECT_EQ(a.planted, b.planted);
  EXPECT_EQ(a.pipeline_verified, b.pipeline_verified);
  EXPECT_EQ(a.divergences, b.divergences);
}

TEST(FuzzCampaign, BenignProgramsProduceNoFinding) {
  DiffOptions opts = replay_options();
  opts.gen.fault_probability = 0.0;  // force every program benign
  opts.num_programs = 4;
  opts.seed = 5;
  const CampaignResult cr = run_campaign(opts);
  EXPECT_EQ(cr.planted, 0u);
  EXPECT_DOUBLE_EQ(cr.pipeline_rate(), 1.0);
  for (const auto& v : cr.programs) {
    EXPECT_TRUE(v.ok()) << format_verdict(v);
    EXPECT_FALSE(v.pipeline_found);
  }
}

TEST(FuzzGenerator, EveryGeneratedModulePassesTheVerifier) {
  // Generator self-check: the extended verifier (reachability + may-direction
  // use-before-def, ir/verifier.h) must accept everything the generator
  // emits, in both the normal and the force_definite_bug configurations.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    GenOptions gen;
    const GeneratedProgram p = generate_program(seed, gen);
    EXPECT_EQ(ir::verify(p.app.module), "") << "seed " << seed;

    GenOptions definite = gen;
    definite.force_definite_bug = true;
    const GeneratedProgram d = generate_program(seed, definite);
    EXPECT_EQ(ir::verify(d.app.module), "") << "definite seed " << seed;
    EXPECT_TRUE(d.fault_planted);
    EXPECT_TRUE(d.definite_bug);
  }
}

TEST(FuzzGenerator, DefiniteBugVariantLintsAndReplays) {
  // The force_definite_bug sibling of any seed must carry a static finding
  // in the planted function — the ground-truth half of fuzz oracle (e).
  GenOptions gen;
  gen.force_definite_bug = true;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const GeneratedProgram p = generate_program(seed, gen);
    const analysis::ProgramFacts facts = analysis::analyze(p.app.module);
    const ir::FuncId vuln = p.app.module.find_function(p.app.vuln_function);
    ASSERT_NE(vuln, ir::kNoFunc);
    bool matched = false;
    for (const auto& f : facts.findings()) matched |= (f.func == vuln);
    EXPECT_TRUE(matched) << "seed " << seed << ": no finding in "
                         << p.app.vuln_function;
  }
}

}  // namespace
}  // namespace statsym::fuzz
