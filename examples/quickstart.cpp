// Quickstart: the full StatSym pipeline on the paper's Fig. 2a example.
//
//   1. run the program on random inputs under the sampling monitor,
//   2. construct and rank predicates from the logs,
//   3. build candidate vulnerable paths,
//   4. drive the symbolic executor along them,
//   5. compare against pure (unguided) symbolic execution.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>

#include "apps/registry.h"
#include "statsym/engine.h"
#include "statsym/report.h"

using namespace statsym;

int main() {
  apps::AppSpec app = apps::make_fig2();
  std::printf("== StatSym quickstart: %s ==\n", app.name.c_str());

  // --- Phase 1: sampled runtime logs (30%% sampling, 100+100 runs) -------
  core::EngineOptions opts;
  opts.monitor.sampling_rate = 0.3;
  opts.target_correct_logs = 100;
  opts.target_faulty_logs = 100;
  opts.exec.searcher = symexec::SearcherKind::kDFS;
  opts.exec.wake_suspended = false;  // iterate candidates instead
  opts.seed = 7;

  core::StatSymEngine engine(app.module, app.sym_spec, opts);
  engine.collect_logs(app.workload);
  std::printf("collected %zu logs\n", engine.num_logs_collected());

  // --- Phases 2-3: statistics + guided symbolic execution ----------------
  core::EngineResult res = engine.run();

  std::printf("\nTop predicates:\n%s\n",
              core::format_predicates(app.module, res.predicates, 5).c_str());
  std::printf("%s\n", core::format_candidates(app.module, res.construction).c_str());

  if (res.found) {
    std::printf("%s", core::format_vuln(app.module, *res.vuln).c_str());
    std::printf("guided: %llu paths explored, %.3fs stat + %.3fs symexec\n",
                static_cast<unsigned long long>(res.paths_explored),
                res.stat_seconds, res.symexec_seconds);
  } else {
    std::printf("vulnerable path NOT found by StatSym\n");
  }

  // --- Baseline: pure symbolic execution ---------------------------------
  symexec::ExecOptions pure;
  pure.searcher = symexec::SearcherKind::kDFS;
  symexec::ExecResult pr = core::run_pure_symbolic(app.module, app.sym_spec, pure);
  std::printf("pure:   %s, %llu paths explored, %.3fs\n",
              symexec::termination_name(pr.termination),
              static_cast<unsigned long long>(pr.stats.paths_explored),
              pr.stats.seconds);

  return res.found ? 0 : 1;
}
