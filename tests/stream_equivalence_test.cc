// The one-statistics-path contract (DESIGN.md §10): the engine folds every
// admitted log into per-cluster sufficient statistics and drops it, and the
// fit from those statistics — predicate set, raw scores, score_lcb,
// candidate ranking — must not depend on how the logs arrived. Checked
// here: collection with and without keeping the raw logs, and collect_logs
// vs use_logs of the same logs in reverse order. The fits themselves are pinned against
// digests recorded before the rewrite in stats_digest_test.
//
// Fingerprints render every float with %a (hexfloat), so the comparison is
// bit-exact, not epsilon-close.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "concolic/concolic.h"
#include "fuzz/program_gen.h"
#include "statsym/engine.h"

namespace statsym::core {
namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Renders everything the statistical module feeds into guidance: admitted-log
// accounting, the ranked predicate list with all scoring fields, and the
// candidate-path construction.
std::string fingerprint(const EngineResult& r) {
  std::string out;
  out += "logs c=" + std::to_string(r.num_correct_logs) +
         " f=" + std::to_string(r.num_faulty_logs) +
         " bytes=" + std::to_string(r.log_bytes) + "\n";
  for (const auto& p : r.predicates) {
    out += "pred loc=" + std::to_string(p.loc) + " " + p.display() +
           " thr=" + hex(p.threshold) + " score=" + hex(p.score) +
           " lcb=" + hex(p.score_lcb) + " err=" + std::to_string(p.error) +
           " pc=" + hex(p.p_correct) + "/" + std::to_string(p.n_correct) +
           " pf=" + hex(p.p_faulty) + "/" + std::to_string(p.n_faulty) + "\n";
  }
  out += "failure=" + std::to_string(r.construction.failure) + "\nskeleton";
  for (auto n : r.construction.skeleton) out += " " + std::to_string(n);
  out += "\n";
  for (const auto& c : r.construction.candidates) {
    out += "cand score=" + hex(c.avg_score) +
           " detours=" + std::to_string(c.num_detours) + " nodes";
    for (auto n : c.nodes) out += " " + std::to_string(n);
    out += "\n";
  }
  return out;
}

EngineOptions base_options() {
  EngineOptions o;
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = 30;
  o.target_faulty_logs = 30;
  o.max_workload_runs = 2'000;
  // Equivalence is a statistical-module property; skip symbolic execution
  // so the sweep stays affordable.
  o.max_candidates_tried = 0;
  o.seed = 20260807;
  return o;
}

// Collects with or without keeping the raw logs; returns the fit's
// fingerprint.
std::string collected_fit(const apps::AppSpec& app, bool keep_logs) {
  StatSymEngine engine(app.module, app.sym_spec, base_options());
  engine.collect_logs(app.workload, keep_logs);
  EXPECT_EQ(engine.logs().size(), keep_logs ? engine.num_logs_collected() : 0);
  EXPECT_GT(engine.num_logs_collected(), 0u);
  return fingerprint(engine.run());
}

void expect_keep_logs_invariant(const apps::AppSpec& app,
                                const std::string& label,
                                std::size_t* with_predicates = nullptr) {
  SCOPED_TRACE(label);
  const std::string dropped = collected_fit(app, false);
  EXPECT_EQ(collected_fit(app, true), dropped);
  if (with_predicates != nullptr &&
      dropped.find("pred ") != std::string::npos) {
    ++*with_predicates;
  }
}

TEST(StreamEquivalence, FuzzCorpusAnyJobs) {
  constexpr std::size_t kPrograms = 24;
  std::size_t with_predicates = 0;
  for (std::size_t seed = 0; seed < kPrograms; ++seed) {
    expect_keep_logs_invariant(fuzz::generate_program(seed).app,
                               "fuzz:" + std::to_string(seed),
                               &with_predicates);
  }
  // The sweep must exercise real fits, not 0-predicate degenerate programs.
  EXPECT_GT(with_predicates, kPrograms / 2);
}

TEST(StreamEquivalence, EvaluationApps) {
  for (const std::string& name : apps::app_names()) {
    expect_keep_logs_invariant(apps::make_app(name), name);
  }
}

// A second engine fed the kept logs through use_logs, newest first.
StatSymEngine replayed(const apps::AppSpec& app, const EngineOptions& o,
                       const std::vector<monitor::RunLog>& logs) {
  StatSymEngine replay(app.module, app.sym_spec, o);
  replay.use_logs({logs.rbegin(), logs.rend()});
  EXPECT_EQ(replay.num_logs_collected(), logs.size());
  EXPECT_TRUE(replay.logs().empty());
  return replay;
}

TEST(StreamEquivalence, UseLogsInReverseOrderMatchesCollect) {
  // The fold is a sum, so the order the logs arrive in cannot matter.
  const fuzz::GeneratedProgram prog = fuzz::generate_program(3);
  const EngineOptions o = base_options();
  StatSymEngine collected(prog.app.module, prog.app.sym_spec, o);
  collected.collect_logs(prog.app.workload, /*keep_logs=*/true);
  ASSERT_EQ(collected.logs().size(), collected.num_logs_collected());
  const std::string want = fingerprint(collected.run());
  EXPECT_NE(want.find("pred "), std::string::npos);

  EXPECT_EQ(fingerprint(replayed(prog.app, o, collected.logs()).run()), want);
}

TEST(StreamEquivalence, RunAllFromUseLogsMatchesCollect) {
  // Multi-vulnerability splitting reads the per-cluster statistics; clusters
  // built from reordered logs must verify the same vulns with the same
  // witnesses.
  const apps::AppSpec app = apps::make_app("polymorph-multibug");
  EngineOptions o = base_options();
  o.target_correct_logs = 80;
  o.target_faulty_logs = 80;
  o.max_candidates_tried = 16;
  o.candidate_timeout_seconds = 600.0;
  o.exec.max_instructions = 2'000'000;
  auto render = [](const std::vector<EngineResult>& results) {
    std::string out;
    for (const EngineResult& r : results) {
      out += fingerprint(r);
      if (r.vuln.has_value()) {
        out += r.vuln->function + " " + concolic::input_key(r.vuln->input) +
               "\n";
      }
    }
    return out;
  };
  StatSymEngine collected(app.module, app.sym_spec, o);
  collected.collect_logs(app.workload, /*keep_logs=*/true);
  const std::vector<EngineResult> want = collected.run_all();
  EXPECT_EQ(want.size(), 2u);

  StatSymEngine replay = replayed(app, o, collected.logs());
  EXPECT_EQ(render(replay.run_all()), render(want));
}

}  // namespace
}  // namespace statsym::core
