// Table IV: paths explored and time to find the bug — StatSym (guided KLEE)
// versus pure symbolic execution, at 30% sampling. The paper's shape:
// StatSym succeeds on all four targets with far fewer paths; pure symbolic
// execution succeeds only on polymorph (15x slower) and fails on
// CTree/Grep/thttpd by exhausting memory.
//
//   bench_table4_statsym_vs_pure [--engines-json FILE]
//
// --engines-json races all three engines (guided | pure | concolic) per app
// and writes per-lane timings (the BENCH_concolic.json baseline): which lane
// won, each lane's wall-clock, paths, instructions, and for the concolic
// lane its concrete-run count.
#include <cstring>
#include <fstream>

#include "bench_common.h"

using namespace statsym;

namespace {

// --- engine race: per-lane timings (BENCH_concolic.json) ------------------

core::EngineResult run_engine_race(const apps::AppSpec& app) {
  core::EngineOptions o = bench::engine_options(0.3);
  o.engines = {core::EngineKind::kGuided, core::EngineKind::kPure,
               core::EngineKind::kConcolic};
  core::StatSymEngine engine(app.module, app.sym_spec, o);
  engine.collect_logs(app.workload);
  return engine.run();
}

void write_engines_json(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  TextTable t({"Benchmark", "winner", "lane", "outcome", "time(s)", "#paths",
               "instrs", "concolic runs"});
  os << "{\n  \"bench\": \"table4_engine_race\",\n  \"apps\": [\n";
  const auto names = apps::app_names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    const apps::AppSpec app = apps::make_app(names[a]);
    const core::EngineResult res = run_engine_race(app);
    const char* winner =
        res.found ? core::engine_kind_name(res.winning_engine) : "none";
    os << "    {\"app\": \"" << names[a] << "\", \"found\": "
       << (res.found ? "true" : "false") << ", \"winner\": \"" << winner
       << "\", \"lanes\": [\n";
    for (std::size_t l = 0; l < res.lanes.size(); ++l) {
      const core::EngineLaneResult& lane = res.lanes[l];
      os << "      {\"engine\": \"" << core::engine_kind_name(lane.kind)
         << "\", \"priority\": " << lane.priority
         << ", \"found\": " << (lane.found ? "true" : "false")
         << ", \"termination\": \""
         << symexec::termination_name(lane.termination)
         << "\", \"seconds\": " << fmt_double(lane.seconds, 4)
         << ", \"paths_explored\": " << lane.paths_explored
         << ", \"instructions\": " << lane.instructions
         << ", \"concolic_runs\": " << lane.concolic_runs
         << ", \"solver_queries\": " << lane.solver_stats.queries << "}"
         << (l + 1 < res.lanes.size() ? "," : "") << "\n";
      t.add_row({names[a], winner, core::engine_kind_name(lane.kind),
                 symexec::termination_name(lane.termination),
                 bench::seconds(lane.seconds),
                 std::to_string(lane.paths_explored),
                 std::to_string(lane.instructions),
                 std::to_string(lane.concolic_runs)});
    }
    os << "    ]}" << (a + 1 < names.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("Engine race: per-lane timings (lanes after the winner report zero)\n");
  std::printf("%s\n", t.render().c_str());
  std::printf("wrote engine-race JSON to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string engines_json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--engines-json") == 0 && i + 1 < argc) {
      engines_json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--engines-json FILE]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "Table IV: StatSym vs pure symbolic execution (30% sampling)",
      "polymorph 63/214.6s vs 8368/3252s — CTree 112/45.6s vs 17575/Failed — "
      "thttpd 5168/1691s vs 17882/Failed — Grep 11462/563s vs 38708/Failed");

  TextTable t({"Benchmark", "StatSym #paths", "StatSym time(s)", "found",
               "Pure #paths", "Pure time(s)", "pure outcome"});
  for (const std::string& name : apps::app_names()) {
    const bench::StatSymRun g = bench::run_statsym(name, 0.3);
    const double g_time =
        g.result.stat_seconds + g.result.symexec_seconds;

    const auto pure = core::run_pure_symbolic(g.app.module, g.app.sym_spec,
                                              bench::pure_options());
    const bool pure_found =
        pure.termination == symexec::Termination::kFoundFault;
    t.add_row({name, std::to_string(g.result.paths_explored),
               bench::seconds(g_time), g.result.found ? "yes" : "NO",
               std::to_string(pure.stats.paths_explored),
               pure_found ? bench::seconds(pure.stats.seconds) : "-",
               pure_found ? "found" : std::string("Failed (") +
                                          symexec::termination_name(
                                              pure.termination) +
                                          ")"});
    if (g.result.found && pure_found) {
      std::printf("  %s speedup: %.1fx time, %.1fx fewer paths\n",
                  name.c_str(), pure.stats.seconds / std::max(g_time, 1e-9),
                  static_cast<double>(pure.stats.paths_explored) /
                      std::max<double>(g.result.paths_explored, 1));
    }
    std::printf("  %s solver fast-path: %.0f%% of %llu slices\n", name.c_str(),
                100.0 * g.result.solver_stats.fast_path_rate(),
                static_cast<unsigned long long>(g.result.solver_stats.slices));
  }
  std::printf("%s\n", t.render().c_str());

  if (!engines_json_path.empty()) write_engines_json(engines_json_path);
  return 0;
}
