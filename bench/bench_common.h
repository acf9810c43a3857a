// Shared helpers for the experiment harness. Each bench binary regenerates
// one table or figure from the paper's evaluation (§VII) and prints the
// paper's reported values alongside for shape comparison.
#pragma once

#include <cstdio>
#include <string>

#include "apps/registry.h"
#include "statsym/engine.h"
#include "support/stopwatch.h"
#include "support/strings.h"
#include "support/table.h"

namespace statsym::bench {

// The paper's evaluation configuration (§VII-A), scaled to the simulator:
// 100 + 100 logs, 30% or 100% sampling, τ = 10, per-candidate timeout.
inline core::EngineOptions engine_options(double sampling_rate,
                                          std::uint64_t seed = 424242) {
  core::EngineOptions o;
  o.monitor.sampling_rate = sampling_rate;
  o.target_correct_logs = 100;
  o.target_faulty_logs = 100;
  o.guidance.tau = 10;
  o.candidate_timeout_seconds = 120.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.exec.max_instructions = 400'000'000;
  o.seed = seed;
  return o;
}

// Pure-KLEE baseline configuration: the random-path searcher (KLEE's
// default flavour) bounded by the modelled memory budget — the analogue of
// the paper's 12 GB testbed limit.
inline symexec::ExecOptions pure_options() {
  symexec::ExecOptions o;
  o.searcher = symexec::SearcherKind::kRandomPath;
  o.max_memory_bytes = 256ull << 20;
  o.max_seconds = 300.0;
  o.max_instructions = 400'000'000;
  o.seed = 1;
  return o;
}

struct StatSymRun {
  core::EngineResult result;
  apps::AppSpec app;
};

inline StatSymRun run_statsym(const std::string& name, double sampling,
                              std::uint64_t seed = 424242) {
  StatSymRun out{.result = {}, .app = apps::make_app(name)};
  core::StatSymEngine engine(out.app.module, out.app.sym_spec,
                             engine_options(sampling, seed));
  engine.collect_logs(out.app.workload);
  out.result = engine.run();
  return out;
}

inline std::string seconds(double s) { return fmt_double(s, 3); }

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("(paper reference: %s)\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace statsym::bench
