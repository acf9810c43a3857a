// Ablation study over StatSym's design choices (DESIGN.md §5):
//   1. hop threshold τ (paper default 10),
//   2. intra-function predicate injection on/off,
//   3. guided scheduler vs plain DFS under the same guidance,
// measured on polymorph and ctree at 30% sampling.
#include "bench_common.h"
#include "statsym/guidance.h"
#include "statsym/guided_searcher.h"
#include "stats/suff_stats.h"

using namespace statsym;

namespace {

struct AblationResult {
  bool found{false};
  std::uint64_t paths{0};
  double seconds{0.0};
};

AblationResult run_variant(const apps::AppSpec& app,
                           const std::vector<monitor::RunLog>& logs,
                           core::GuidanceOptions gopts, bool guided_sched) {
  stats::SuffStats suff;
  suff.ingest(logs);
  stats::PredicateManager preds;
  preds.build(suff);
  stats::TransitionGraph graph;
  graph.build(suff);
  stats::PathBuilder builder(graph, preds);
  const auto pc = builder.build(
      stats::TransitionGraph::failure_node(suff, &app.module));
  AblationResult out;
  if (!pc.has_value() || pc->candidates.empty()) return out;

  Stopwatch sw;
  for (std::size_t ci = 0; ci < pc->candidates.size() && !out.found; ++ci) {
    core::CandidateGuidance guidance(app.module, pc->candidates[ci],
                                     preds.ranked(), gopts);
    symexec::ExecOptions eo;
    eo.wake_suspended = false;
    eo.max_seconds = 60.0;
    eo.max_memory_bytes = 256ull << 20;
    symexec::SymExecutor ex(app.module, app.sym_spec, eo);
    ex.set_guidance(&guidance);
    if (guided_sched) {
      ex.set_searcher(std::make_unique<core::GuidedSearcher>());
    }
    const auto r = ex.run();
    out.paths += r.stats.paths_explored;
    if (r.termination == symexec::Termination::kFoundFault) out.found = true;
  }
  out.seconds = sw.elapsed_seconds();
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: hop threshold tau, predicate injection, guided scheduler",
      "design-choice study; no direct paper counterpart (paper fixes tau=10 "
      "and always injects)");

  for (const std::string& name : {std::string("polymorph"),
                                  std::string("ctree")}) {
    const apps::AppSpec app = apps::make_app(name);
    core::StatSymEngine collector(app.module, app.sym_spec,
                                  bench::engine_options(0.3));
    collector.collect_logs(app.workload, /*keep_logs=*/true);
    const auto& logs = collector.logs();

    std::printf("-- %s --\n", name.c_str());
    TextTable t({"variant", "found", "paths", "time(s)"});

    for (const int tau : {0, 2, 10, 50}) {
      core::GuidanceOptions g;
      g.tau = tau;
      const auto r = run_variant(app, logs, g, /*guided_sched=*/true);
      t.add_row({"tau=" + std::to_string(tau), r.found ? "yes" : "NO",
                 std::to_string(r.paths), bench::seconds(r.seconds)});
    }
    {
      core::GuidanceOptions g;
      g.inject_predicates = false;
      const auto r = run_variant(app, logs, g, /*guided_sched=*/true);
      t.add_row({"no predicate injection", r.found ? "yes" : "NO",
                 std::to_string(r.paths), bench::seconds(r.seconds)});
    }
    {
      const auto r = run_variant(app, logs, {}, /*guided_sched=*/false);
      t.add_row({"DFS instead of guided scheduler", r.found ? "yes" : "NO",
                 std::to_string(r.paths), bench::seconds(r.seconds)});
    }
    std::printf("%s\n", t.render().c_str());
  }
  return 0;
}
