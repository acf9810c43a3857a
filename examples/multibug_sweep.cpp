// multibug_sweep: the paper's §III-C scenario — a program with more than
// one vulnerability. Faulty logs are clustered by their fault function and
// StatSym hunts the clusters one-by-one (StatSymEngine::run_all); while
// hunting one bug the executor passes through the other without stopping
// (ExecOptions::target_function).
//
// Run: ./build/examples/multibug_sweep
#include <cstdio>

#include "apps/registry.h"
#include "statsym/engine.h"
#include "statsym/report.h"

using namespace statsym;

int main() {
  apps::AppSpec app = apps::make_polymorph_multibug();
  std::printf("== multi-vulnerability sweep on %s ==\n", app.name.c_str());
  std::printf("bug 1: '-o <dir>' smashes the 64-byte outdir global "
              "(set_outdir)\n");
  std::printf("bug 2: '-f <name>' overflows the 512-byte stack buffer "
              "(convert_fileName)\n\n");

  core::EngineOptions opts;
  opts.monitor.sampling_rate = 0.3;
  opts.candidate_timeout_seconds = 60.0;
  opts.seed = 7;

  core::StatSymEngine engine(app.module, app.sym_spec, opts);
  engine.collect_logs(app.workload, /*keep_logs=*/true);

  std::size_t faulty = 0;
  for (const auto& log : engine.logs()) faulty += log.faulty ? 1 : 0;
  std::printf("collected %zu logs (%zu faulty, clustered by fault tag)\n\n",
              engine.logs().size(), faulty);

  const auto results = engine.run_all();
  std::printf("vulnerabilities found: %zu\n\n", results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& res = results[i];
    std::printf("-- #%zu --\n%s", i + 1,
                core::format_vuln(app.module, *res.vuln).c_str());

    interp::Interpreter replay(app.module, res.vuln->input);
    const auto rr = replay.run();
    std::printf("   replay: %s\n\n",
                rr.outcome == interp::RunOutcome::kFault
                    ? ("CONFIRMED in " + rr.fault.function + "()").c_str()
                    : "not reproduced");
  }
  return results.size() == 2 ? 0 : 1;
}
