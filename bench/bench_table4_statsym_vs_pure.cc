// Table IV: paths explored and time to find the bug — StatSym (guided KLEE)
// versus pure symbolic execution, at 30% sampling. The paper's shape:
// StatSym succeeds on all four targets with far fewer paths; pure symbolic
// execution succeeds only on polymorph (15x slower) and fails on
// CTree/Grep/thttpd by exhausting memory.
//
//   bench_table4_statsym_vs_pure [--jobs N[,N...]] [--json FILE]
//                                [--engines-json FILE]
//
// With a --jobs list (e.g. --jobs 1,2,4,8) the StatSym pipeline additionally
// runs once per worker count and the per-app wall-clock speedup over the
// first count is printed; --json writes the sweep as JSON for the bench
// trajectory. Results are identical at every worker count — only the clock
// moves.
//
// --engines-json races all three engines (guided | pure | concolic) per app
// and writes per-lane timings (the BENCH_concolic.json baseline): which lane
// won, each counted lane's wall-clock, paths, instructions, and for the
// concolic lane its concrete-run count.
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.h"
#include "support/stopwatch.h"

using namespace statsym;

namespace {

struct SweepRun {
  std::size_t jobs{0};
  double wall_seconds{0.0};
  core::EngineResult result;
};

struct AppSweep {
  std::string app;
  std::vector<SweepRun> runs;
};

void write_json(const std::vector<AppSweep>& sweeps, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"bench\": \"table4_jobs_sweep\",\n  \"apps\": [\n";
  for (std::size_t a = 0; a < sweeps.size(); ++a) {
    os << "    {\"app\": \"" << sweeps[a].app << "\", \"runs\": [\n";
    for (std::size_t r = 0; r < sweeps[a].runs.size(); ++r) {
      const SweepRun& run = sweeps[a].runs[r];
      // Per-phase wall times come from the pipeline metrics registry — the
      // same gauges --metrics-out serialises — so the bench rows and the
      // observability layer cannot drift apart.
      const obs::MetricsRegistry& m = run.result.metrics;
      os << "      {\"jobs\": " << run.jobs
         << ", \"wall_seconds\": " << fmt_double(run.wall_seconds, 4)
         << ", \"log_seconds\": "
         << fmt_double(m.gauge("phase.log.seconds"), 4)
         << ", \"stat_seconds\": "
         << fmt_double(m.gauge("phase.stat.seconds"), 4)
         << ", \"symexec_seconds\": "
         << fmt_double(m.gauge("phase.symexec.seconds"), 4)
         << ", \"pipeline_seconds\": "
         << fmt_double(m.gauge("phase.total.seconds"), 4)
         << ", \"solve_seconds\": "
         << fmt_double(m.gauge("solver.solve.seconds"), 4)
         << ", \"found\": " << (run.result.found ? "true" : "false")
         << ", \"winning_candidate\": " << run.result.winning_candidate
         << ", \"paths_explored\": " << run.result.paths_explored
         << ", \"solver_queries\": " << run.result.solver_stats.queries
         << ", \"solver_slices\": " << run.result.solver_stats.slices
         << ", \"solver_cache_hits\": " << run.result.solver_stats.cache_hits
         << ", \"solver_shared_cache_hits\": "
         << run.result.solver_stats.shared_cache_hits
         << ", \"solver_solves\": " << run.result.solver_stats.solves
         << ", \"solver_fast_path_rate\": "
         << fmt_double(run.result.solver_stats.fast_path_rate(), 4) << "}"
         << (r + 1 < sweeps[a].runs.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (a + 1 < sweeps.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("wrote sweep JSON to %s\n", path.c_str());
}

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
  std::printf("Engine race: per-lane timings (cancelled lanes report zero)\n");
  std::printf("%s\n", t.render().c_str());
  std::printf("wrote engine-race JSON to %s\n", path.c_str());
}

std::vector<std::size_t> parse_jobs_list(const char* s) {
  std::vector<std::size_t> jobs;
  for (const std::string& part : split(s, ',')) {
    if (!part.empty()) jobs.push_back(std::strtoull(part.c_str(), nullptr, 10));
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> jobs_sweep;
  std::string json_path;
  std::string engines_json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs_sweep = parse_jobs_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--engines-json") == 0 && i + 1 < argc) {
      engines_json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N[,N...]] [--json FILE] "
                   "[--engines-json FILE]\n",
                   argv[0]);
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

  if (jobs_sweep.empty()) return 0;

  // --- --jobs sweep: the same pipeline, wall-clock per worker count -------
  std::printf("StatSym --jobs sweep (full pipeline wall-clock per app)\n");
  std::vector<AppSweep> sweeps;
  TextTable sweep_table({"Benchmark", "jobs", "wall(s)", "log(s)", "stat(s)",
                         "exec(s)", "speedup", "found", "cand"});
  for (const std::string& name : apps::app_names()) {
    AppSweep sweep{.app = name, .runs = {}};
    for (const std::size_t jobs : jobs_sweep) {
      Stopwatch sw;
      const bench::StatSymRun g = bench::run_statsym(name, 0.3, 424242, jobs);
      SweepRun run{.jobs = jobs, .wall_seconds = sw.elapsed_seconds(),
                   .result = g.result};
      const double base = sweep.runs.empty() ? run.wall_seconds
                                             : sweep.runs[0].wall_seconds;
      sweep_table.add_row(
          {name, std::to_string(jobs), bench::seconds(run.wall_seconds),
           bench::seconds(run.result.log_seconds),
           bench::seconds(run.result.stat_seconds),
           bench::seconds(run.result.symexec_seconds),
           fmt_double(base / std::max(run.wall_seconds, 1e-9), 2) + "x",
           run.result.found ? "yes" : "NO",
           std::to_string(run.result.winning_candidate)});
      sweep.runs.push_back(std::move(run));
    }
    sweeps.push_back(std::move(sweep));
  }
  std::printf("%s\n", sweep_table.render().c_str());
  if (!json_path.empty()) write_json(sweeps, json_path);
  return 0;
}
