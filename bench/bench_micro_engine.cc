// Microbenchmarks (google-benchmark) for the engine substrates: expression
// construction, interval propagation, solver queries (including the
// propagation-only and slicing ablations), concrete interpretation and
// symbolic execution throughput, and monitor logging overhead at different
// sampling rates.
//
// On top of the google-benchmark suite, a custom main runs a fork-heavy
// solver workload in two configurations — independence slicing vs. the
// monolithic baseline (neither has a query cache, so this measures slicing
// alone) — checks their verdicts agree query-by-query, and writes the
// comparison to a machine-readable JSON file (CI's bench-smoke gate):
//
//   bench_micro_engine --quick                 # solver suite only
//   bench_micro_engine --json out.json         # default BENCH_solver.json
//   bench_micro_engine --min-speedup 1.0       # exit 1 below this ratio
//
// Any other flags fall through to google-benchmark (skipped under --quick).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "fuzz/program_gen.h"
#include "monitor/monitor.h"
#include "solver/solver.h"
#include "statsym/engine.h"
#include "support/stopwatch.h"

using namespace statsym;

namespace {

void BM_ExprConstruction(benchmark::State& state) {
  for (auto _ : state) {
    solver::ExprPool pool;
    const auto x = pool.var_expr(pool.new_var("x", 0, 255));
    solver::ExprId e = pool.constant(0);
    for (int i = 0; i < 64; ++i) {
      e = pool.add(e, pool.eq(x, pool.constant(i)));
    }
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_ExprConstruction);

void BM_HashConsingHitPath(benchmark::State& state) {
  solver::ExprPool pool;
  const auto x = pool.var_expr(pool.new_var("x", 0, 255));
  for (auto _ : state) {
    // All constructions after the first are intern-table hits.
    benchmark::DoNotOptimize(pool.lt(x, pool.constant(57)));
  }
}
BENCHMARK(BM_HashConsingHitPath);

void BM_Propagation(benchmark::State& state) {
  solver::ExprPool pool;
  std::vector<solver::ExprId> cs;
  for (int i = 0; i < state.range(0); ++i) {
    const auto v = pool.new_var("b" + std::to_string(i), 0, 255);
    cs.push_back(pool.ne(pool.var_expr(v), pool.constant(0)));
  }
  for (auto _ : state) {
    solver::DomainMap d;
    bool ok = true;
    for (auto c : cs) ok = ok && solver::propagate(pool, c, true, d);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Propagation)->Arg(64)->Arg(512);

void BM_SolverQuery(benchmark::State& state) {
  const bool propagation_only = state.range(0) == 1;
  solver::ExprPool pool;
  solver::SolverOptions opts;
  opts.propagation_only = propagation_only;
  solver::Solver solver(pool, opts);
  const auto x = pool.var_expr(pool.new_var("x", 0, 255));
  const auto y = pool.var_expr(pool.new_var("y", 0, 255));
  const std::vector<solver::ExprId> cs{
      pool.lt(x, y), pool.eq(pool.add(x, y), pool.constant(300)),
      pool.ne(x, pool.constant(100))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.check(cs).sat);
  }
}
BENCHMARK(BM_SolverQuery)->Arg(0)->Arg(1);

void BM_SolverSlicing(benchmark::State& state) {
  // Many independent variable groups in one conjunction: slicing decides
  // each small group on its own; the monolithic baseline re-solves the full
  // 3G-variable query. Arg: 1 = slicing, 0 = baseline.
  const bool optimized = state.range(0) == 1;
  solver::ExprPool pool;
  solver::SolverOptions opts;
  opts.enable_slicing = optimized;
  solver::Solver solver(pool, opts);
  std::vector<solver::ExprId> cs;
  std::vector<solver::ExprId> knobs;
  for (int g = 0; g < 8; ++g) {
    const auto a = pool.var_expr(pool.new_var("a" + std::to_string(g), 0, 255));
    const auto b = pool.var_expr(pool.new_var("b" + std::to_string(g), 0, 255));
    const auto c = pool.var_expr(pool.new_var("c" + std::to_string(g), 0, 255));
    cs.push_back(pool.lt(a, b));
    cs.push_back(pool.eq(pool.add(pool.add(a, b), c), pool.constant(300 + g)));
    knobs.push_back(c);
  }
  int i = 0;
  for (auto _ : state) {
    // Each iteration perturbs one group, like a fork appending a branch
    // condition; the other seven groups are unchanged.
    std::vector<solver::ExprId> q = cs;
    q.push_back(pool.ne(knobs[i % 8], pool.constant(i % 97)));
    ++i;
    benchmark::DoNotOptimize(solver.check(q).sat);
  }
}
BENCHMARK(BM_SolverSlicing)->Arg(0)->Arg(1);

void BM_SolverCountingRepair(benchmark::State& state) {
  solver::ExprPool pool;
  solver::Solver solver(pool, {});
  solver::ExprId sum = pool.constant(0);
  for (int i = 0; i < 64; ++i) {
    const auto v = pool.new_var("b" + std::to_string(i), 1, 255);
    sum = pool.add(sum, pool.eq(pool.var_expr(v), pool.constant(46)));
  }
  const std::vector<solver::ExprId> cs{pool.le(pool.constant(20), sum)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.check(cs).sat);
  }
}
BENCHMARK(BM_SolverCountingRepair);

// Arg 0 = polymorph, 1 = thttpd, 2 = a generated fault-free program (the
// serve-fleet case that runs all 10,000 collection attempts).
apps::AppSpec concrete_app(std::int64_t which) {
  if (which == 2) {
    fuzz::GenOptions g;
    g.fault_probability = 0.0;
    return fuzz::generate_program(11, g).app;
  }
  return apps::make_app(which == 0 ? "polymorph" : "thttpd");
}

// Both run benchmarks share one decoded program across iterations, as log
// collection does across attempts.
void BM_ConcreteRun(benchmark::State& state) {
  const apps::AppSpec app = concrete_app(state.range(0));
  const interp::Program program(app.module);
  Rng rng(7);
  for (auto _ : state) {
    Rng r = rng.split();
    interp::Interpreter it(program, app.workload(r));
    benchmark::DoNotOptimize(it.run().steps);
  }
}
BENCHMARK(BM_ConcreteRun)->Arg(0)->Arg(1)->Arg(2);

void BM_MonitoredRun(benchmark::State& state) {
  const apps::AppSpec app = apps::make_polymorph();
  const interp::Program program(app.module);
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(7);
  for (auto _ : state) {
    Rng r = rng.split();
    auto run = monitor::run_monitored(program, app.workload(r),
                                      {.sampling_rate = rate}, rng.split(), 0);
    benchmark::DoNotOptimize(run.log.records.size());
  }
}
BENCHMARK(BM_MonitoredRun)->Arg(0)->Arg(30)->Arg(100);

void BM_CollectVars(benchmark::State& state) {
  // Variable collection runs on every solver query (slicing + canonical
  // orderings); the small-buffer fast path must keep shallow expressions —
  // the overwhelmingly common case — allocation-free past the output vector.
  solver::ExprPool pool;
  const auto x = pool.var_expr(pool.new_var("x", 0, 255));
  const auto y = pool.var_expr(pool.new_var("y", 0, 255));
  solver::ExprId deep = pool.constant(0);
  for (int i = 0; i < 48; ++i) {
    deep = pool.add(deep, pool.mul(x, pool.add(y, pool.constant(i))));
  }
  std::vector<solver::VarId> out;
  for (auto _ : state) {
    out.clear();
    pool.collect_vars(deep, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CollectVars);

void BM_CowForkState(benchmark::State& state) {
  // Cost of one copy-on-write fork (clone_state's substrate): freeze the
  // parent's tails, share every prefix, account the shallow/eager byte gap.
  // The eager_clone_bytes term deliberately includes approx_bytes() — the
  // accounting walk is part of the real per-fork cost being tracked.
  solver::ExprPool pool;
  symexec::State parent;
  const auto obj = parent.mem.alloc(512, "buf");
  for (std::int64_t i = 0; i < 511; ++i) {
    const auto v = pool.new_var("buf[" + std::to_string(i) + "]", 0, 255);
    parent.mem.write(obj, i, symexec::SymByte::symbolic(pool.var_expr(v)));
    if (i < 64) {
      parent.pc.add(pool, pool.ne(pool.var_expr(v), pool.constant(0)));
    }
  }
  parent.stack.emplace_back();
  parent.stack.back().regs.assign(16, symexec::SymValue::concrete_int(0));
  for (auto _ : state) {
    symexec::State child;
    parent.fork_into(child);
    benchmark::DoNotOptimize(parent.approx_bytes());
    benchmark::DoNotOptimize(child.shallow_clone_bytes());
  }
}
BENCHMARK(BM_CowForkState);

void BM_SymbolicThroughput(benchmark::State& state) {
  // Instructions per second through the symbolic executor on the fig2
  // program (bounded exploration).
  const apps::AppSpec app = apps::make_fig2();
  for (auto _ : state) {
    symexec::ExecOptions opts;
    opts.stop_at_first_fault = true;
    symexec::SymExecutor ex(app.module, app.sym_spec, opts);
    const auto r = ex.run();
    benchmark::DoNotOptimize(r.stats.instructions);
  }
}
BENCHMARK(BM_SymbolicThroughput);

void BM_GuidedPolymorphEndToEnd(benchmark::State& state) {
  // Full pipeline cost on the flagship target (log collection + statistics
  // + guided search).
  const apps::AppSpec app = apps::make_polymorph();
  for (auto _ : state) {
    core::EngineOptions o;
    o.monitor.sampling_rate = 0.3;
    o.candidate_timeout_seconds = 60.0;
    o.seed = 5;
    core::StatSymEngine engine(app.module, app.sym_spec, o);
    engine.collect_logs(app.workload);
    benchmark::DoNotOptimize(engine.run().found);
  }
}
BENCHMARK(BM_GuidedPolymorphEndToEnd)->Unit(benchmark::kMillisecond);

// --- fork-heavy solver comparison (BENCH_solver.json) ----------------------

struct SuiteRun {
  double seconds{0.0};
  solver::SolverStats stats;
  std::vector<solver::Sat> verdicts;
};

// A fork-heavy path-constraint workload: G independent variable groups form
// the standing path condition; every "fork" appends one fresh branch
// condition on a single group and re-queries the full conjunction — the
// access pattern symbolic execution produces at every branch. The optimized
// configuration slices the query so only the touched group is re-decided;
// the baseline re-solves the whole 3G-variable conjunction every time.
SuiteRun run_fork_suite(bool optimized, std::size_t forks) {
  constexpr int kGroups = 8;
  solver::ExprPool pool;
  solver::SolverOptions opts;
  opts.enable_slicing = optimized;
  solver::Solver solver(pool, opts);

  std::vector<solver::ExprId> base;
  std::vector<solver::ExprId> knobs;  // per-group perturbation variable
  for (int g = 0; g < kGroups; ++g) {
    const auto a = pool.var_expr(pool.new_var("a" + std::to_string(g), 0, 255));
    const auto b = pool.var_expr(pool.new_var("b" + std::to_string(g), 0, 255));
    const auto c = pool.var_expr(pool.new_var("c" + std::to_string(g), 0, 255));
    base.push_back(pool.lt(a, b));
    base.push_back(
        pool.eq(pool.add(pool.add(a, b), c), pool.constant(300 + g)));
    knobs.push_back(c);
  }

  SuiteRun run;
  run.verdicts.reserve(forks);
  Stopwatch sw;
  for (std::size_t i = 0; i < forks; ++i) {
    std::vector<solver::ExprId> q = base;
    const int g = static_cast<int>(i % kGroups);
    // Cycle through 97 distinct branch conditions per group so the whole
    // query rarely repeats verbatim (defeating whole-query caching), while
    // the untouched groups repeat on every fork (rewarding slicing).
    q.push_back(pool.ne(knobs[g], pool.constant(static_cast<int>(i % 97))));
    run.verdicts.push_back(solver.check(q).sat);
  }
  run.seconds = sw.elapsed_seconds();
  run.stats = solver.stats();
  return run;
}

void write_json(const std::string& path, std::size_t forks,
                const SuiteRun& opt, const SuiteRun& base, double speedup) {
  auto config = [](std::ostream& os, const char* name, const SuiteRun& r,
                   std::size_t forks) {
    const double qps =
        r.seconds > 0.0 ? static_cast<double>(forks) / r.seconds : 0.0;
    os << "    \"" << name << "\": {\n"
       << "      \"seconds\": " << r.seconds << ",\n"
       << "      \"queries_per_second\": " << qps << ",\n"
       << "      \"slices\": " << r.stats.slices << ",\n"
       << "      \"cache_hits\": " << r.stats.cache_hits << ",\n"
       << "      \"shared_cache_hits\": " << r.stats.shared_cache_hits
       << ",\n"
       << "      \"solves\": " << r.stats.solves << ",\n"
       << "      \"fast_path_rate\": " << r.stats.fast_path_rate() << "\n"
       << "    }";
  };
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"solver_fork_heavy\",\n"
     << "  \"queries\": " << forks << ",\n"
     << "  \"configs\": {\n";
  config(os, "optimized", opt, forks);
  os << ",\n";
  config(os, "baseline", base, forks);
  os << "\n  },\n"
     << "  \"speedup\": " << speedup << "\n"
     << "}\n";
}

int run_solver_comparison(const std::string& json_path, bool quick,
                          double min_speedup) {
  const std::size_t forks = quick ? 400 : 2000;
  // Baseline first so its (slower) run cannot benefit from a warmed CPU.
  const SuiteRun base = run_fork_suite(/*optimized=*/false, forks);
  const SuiteRun opt = run_fork_suite(/*optimized=*/true, forks);

  // The optimization layer must be invisible in the answers.
  if (opt.verdicts != base.verdicts) {
    std::fprintf(stderr,
                 "FAIL: sliced and monolithic verdicts diverge on the "
                 "fork-heavy suite\n");
    return 2;
  }

  const double speedup =
      opt.seconds > 0.0 ? base.seconds / opt.seconds : 0.0;
  std::printf("solver fork-heavy suite: %zu queries\n", forks);
  std::printf("  baseline : %.3fs (%llu solves)\n", base.seconds,
              static_cast<unsigned long long>(base.stats.solves));
  std::printf("  optimized: %.3fs (%llu solves over %llu slices)\n",
              opt.seconds,
              static_cast<unsigned long long>(opt.stats.solves),
              static_cast<unsigned long long>(opt.stats.slices));
  std::printf("  speedup  : %.2fx (gate: %.2fx)\n", speedup, min_speedup);

  write_json(json_path, forks, opt, base, speedup);
  std::printf("  wrote %s\n", json_path.c_str());
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below --min-speedup %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_solver.json";
  double min_speedup = 0.0;
  std::vector<char*> bench_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }

  const int rc = run_solver_comparison(json_path, quick, min_speedup);
  if (rc != 0 || quick) return rc;

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
