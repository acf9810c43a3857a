// Cross-engine differential fuzzing driver.
//
// For every generated program (fuzz/program_gen.h) the driver runs three
// oracles (DESIGN.md §8):
//
//   (a) Differential agreement — on a battery of concrete workload inputs
//       (plus the len = T-1 / len = T boundary pair), the concrete
//       interpreter and the fully-concretised symbolic executor must agree
//       on the outcome: same fault function and kind, or same clean
//       termination with exactly one explored path. For fault-free programs
//       this also proves the generator's chaff-safety invariant (no
//       unplanted fault ever fires).
//
//   (b) Pipeline completeness — the full StatSym pipeline (sampled log
//       collection → predicate ranking → candidate construction → guided
//       search) must rank a candidate reaching the planted fault, verify it
//       within budget, and produce a crashing input that replays in the
//       planted function. For fault-free programs the pipeline must come
//       back empty-handed.
//
//   (c) Guided-search soundness — any vulnerability the guided mode verifies
//       must also be reachable by pure (unguided) symbolic execution on the
//       same program: guidance may only prune the search, never invent
//       findings.
//
//   (d) Cross-engine equivalence (DESIGN.md §11) — active when more than one
//       engine is selected: the guided pipeline, the pure baseline, and the
//       concolic generational search each hunt the program independently. On
//       planted programs every selected engine must find the fault; on
//       benign ones none may. Every witness input an engine produces is
//       replayed through the other execution engines (concrete interpreter,
//       concretised symbolic executor, follow-mode concolic executor) and
//       all must agree on the fault function and kind. Disagreements are
//       shrunk and dumped as reproducers like any other oracle failure.
//
//   (e) Static-facts soundness (src/analysis/) — the whole-program abstract
//       interpretation's claims are checked against concrete execution: no
//       run may enter a block the analysis proved unreachable, no concrete
//       branch may go against a statically-decided direction, a program
//       whose only fault is input-conditional may carry no definite-bug
//       finding, the seed's force_definite_bug sibling must lint with the
//       planted finding and replay it concretely, and the full pipeline
//       must return the identical verdict with the analysis on and off
//       (pruning is work-skipping, never answer-changing).
//
// Campaigns fan programs out over a worker pool; every program derives its
// RNG streams from (campaign seed, program index) via derive_seed, so
// per-program verdicts are bit-identical for any --jobs value. A failing
// program is shrunk by dropping whole functions and stubbing blocks
// (ir/rewrite.h) while its oracle failure persists, and the minimised
// reproducer (seed + IR text) is written to the repro directory.
#pragma once

#include <string>
#include <vector>

#include "fuzz/program_gen.h"
#include "statsym/engine.h"

namespace statsym::fuzz {

enum class Oracle : std::uint8_t {
  kNone,             // all oracles agreed
  kDifferential,     // (a) cross-engine divergence / unplanted fault
  kPipeline,         // (b) pipeline missed the planted fault (or hallucinated)
  kGuidedSoundness,  // (c) guided found a vuln pure execution cannot reach
  kCrossEngine,      // (d) engine disagreement / unconfirmed witness
  kStaticFacts,      // (e) static-analysis claim contradicted at runtime
};

const char* oracle_name(Oracle o);

struct DiffOptions {
  GenOptions gen{};
  std::size_t num_programs{100};
  std::uint64_t seed{1};
  std::size_t jobs{1};  // worker threads (0 = all hardware threads)

  // Oracle (a): concrete inputs checked per program (boundary pair extra).
  std::size_t diff_inputs{8};

  // Oracle (b) budget (the campaign "default budget").
  double sampling_rate{0.3};
  std::size_t target_logs{40};  // per class
  std::size_t max_workload_runs{800};
  std::uint64_t engine_max_instructions{5'000'000};
  double engine_max_seconds{5.0};

  // Oracle (c) budget (pure execution gets more instructions: it is the one
  // doing the unpruned search).
  std::uint64_t pure_max_instructions{50'000'000};
  double pure_max_seconds{30.0};

  bool check_pipeline{true};
  bool check_soundness{true};
  // Oracle (e): static-facts soundness (`--no-static-facts` to disable).
  // The pipeline-equivalence half additionally requires check_pipeline.
  bool check_static_facts{true};

  // Oracle (d): the engines under comparison (`--engines` in the CLI). The
  // list also becomes the Phase-3 lane race inside the pipeline run. With
  // the default single guided engine the oracle is skipped: the campaign
  // makes no standalone pure or concolic runs.
  std::vector<core::EngineKind> engines{core::EngineKind::kGuided};
  bool check_cross_engine{true};
  // Test-only failure injection: corrupt the named engine's witness
  // ("guided" | "pure" | "concolic") before the equivalence replay, so
  // tests can prove the oracle detects, shrinks, and reports disagreements.
  std::string inject_witness_corruption;

  // Campaign pass bar: fraction of fault-planted programs the pipeline must
  // verify. Divergences and soundness failures always fail the campaign.
  double min_pipeline_rate{0.9};

  bool shrink{true};
  std::size_t max_shrink_checks{128};  // oracle re-evaluations while shrinking
  std::string repro_dir;               // empty: do not write reproducers
};

struct ProgramVerdict {
  std::size_t index{0};
  std::uint64_t seed{0};
  bool fault_planted{false};
  Oracle failed{Oracle::kNone};
  std::string detail;  // human-readable failure description

  // Diagnostics (deterministic across jobs; no wall-clock in here).
  std::size_t num_candidates{0};      // ranked candidate paths at this rate
  std::size_t winning_candidate{0};   // 1-based, 0 = none
  bool pipeline_found{false};
  std::uint64_t guided_paths{0};
  std::uint64_t pure_paths{0};
  bool pure_found{false};        // oracle (d) standalone pure run
  bool concolic_found{false};    // oracle (d) standalone concolic run
  std::uint64_t concolic_runs{0};
  std::string repro_file;  // written on failure when repro_dir is set

  bool ok() const { return failed == Oracle::kNone; }
};

struct CampaignResult {
  std::vector<ProgramVerdict> programs;
  std::size_t divergences{0};
  std::size_t pipeline_misses{0};
  std::size_t soundness_failures{0};
  std::size_t cross_engine_failures{0};
  std::size_t static_facts_failures{0};
  std::size_t planted{0};
  std::size_t pipeline_verified{0};
  std::size_t concolic_verified{0};  // planted faults the concolic lane found

  double pipeline_rate() const {
    return planted == 0
               ? 1.0
               : static_cast<double>(pipeline_verified) /
                     static_cast<double>(planted);
  }
  double concolic_rate() const {
    return planted == 0
               ? 1.0
               : static_cast<double>(concolic_verified) /
                     static_cast<double>(planted);
  }
  bool passed(const DiffOptions& opts) const {
    return divergences == 0 && soundness_failures == 0 &&
           cross_engine_failures == 0 && static_facts_failures == 0 &&
           pipeline_rate() >= opts.min_pipeline_rate;
  }
};

// Runs all three oracles on the program generated from
// derive_seed(opts.seed, index); shrinks and writes a reproducer on failure.
ProgramVerdict run_program(std::size_t index, const DiffOptions& opts);

// Same, but on the program generated directly from `program_seed` — corpus
// replay and `statsym_fuzz show`. `index` only labels the verdict.
ProgramVerdict run_program_seed(std::size_t index, std::uint64_t program_seed,
                                const DiffOptions& opts);

// Runs the full campaign (parallel across programs when opts.jobs != 1).
CampaignResult run_campaign(const DiffOptions& opts);

// One-line rendering of a verdict for logs/CLI output.
std::string format_verdict(const ProgramVerdict& v);

// --- corpus entries (tests/corpus/*.corpus) -------------------------------
// A checked-in reproducible program: generator seed + the GenOptions fields
// it was produced with + the properties the regression test asserts.
struct CorpusEntry {
  std::string name;
  std::uint64_t seed{0};
  GenOptions gen{};
  bool expect_fault{false};
  std::string expect_kind;         // "oob" | "assert" | "none"
  std::size_t min_candidates{0};   // candidate paths at gen sampling rate
  std::string note;
};

std::string format_corpus(const CorpusEntry& e);
// Parses the key/value format of format_corpus; false on malformed input.
bool parse_corpus(const std::string& text, CorpusEntry& out);

}  // namespace statsym::fuzz
