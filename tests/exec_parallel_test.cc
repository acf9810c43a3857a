// The symbolic executor's exploration loop and its copy-on-write forks.
//
// The executor runs one scheduling slice at a time (executor.h): its output
// is a function of the program and options alone. These tests pin that on
// a real app — repeatable, and unchanged when the executor builds into a
// caller-owned expression pool that already holds another run's
// expressions — and check that the copy-on-write fork layer copies less
// than an eager deep clone would.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/registry.h"
#include "obs/trace.h"
#include "statsym/engine.h"
#include "symexec/executor.h"

namespace statsym::core {
namespace {

struct RunOutput {
  symexec::ExecResult result;
  std::string trace_jsonl;
};

symexec::ExecOptions exec_opts(symexec::SearcherKind searcher,
                               std::uint64_t max_instructions) {
  symexec::ExecOptions opts;
  opts.searcher = searcher;
  // Keep the wall clock from binding even under TSan's ~15x slowdown, so
  // the instruction cap is the real bound.
  opts.max_seconds = 900.0;
  opts.max_instructions = max_instructions;
  opts.max_memory_bytes = 256ull << 20;
  return opts;
}

RunOutput run_app(const apps::AppSpec& app, symexec::SearcherKind searcher,
                  std::uint64_t max_instructions) {
  obs::Tracer tracer;
  RunOutput out;
  out.result = run_pure_symbolic(app.module, app.sym_spec,
                                 exec_opts(searcher, max_instructions),
                                 &tracer.buffer());
  EXPECT_EQ(tracer.buffer().dropped(), 0u);
  out.trace_jsonl = tracer.to_jsonl();
  return out;
}

// Every deterministic surface of two runs must agree exactly.
void expect_identical(const RunOutput& a, const RunOutput& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.result.termination, b.result.termination);
  const symexec::ExecStats& sa = a.result.stats;
  const symexec::ExecStats& sb = b.result.stats;
  EXPECT_EQ(sa.instructions, sb.instructions);
  EXPECT_EQ(sa.forks, sb.forks);
  EXPECT_EQ(sa.paths_completed, sb.paths_completed);
  EXPECT_EQ(sa.paths_ok, sb.paths_ok);
  EXPECT_EQ(sa.paths_infeasible, sb.paths_infeasible);
  EXPECT_EQ(sa.faults_found, sb.faults_found);
  EXPECT_EQ(sa.suspensions, sb.suspensions);
  EXPECT_EQ(sa.wakes, sb.wakes);
  EXPECT_EQ(sa.paths_explored, sb.paths_explored);
  EXPECT_EQ(sa.peak_live_states, sb.peak_live_states);
  EXPECT_EQ(sa.clone_bytes, sb.clone_bytes);
  EXPECT_EQ(sa.eager_clone_bytes, sb.eager_clone_bytes);

  const solver::SolverStats& qa = a.result.solver_stats;
  const solver::SolverStats& qb = b.result.solver_stats;
  EXPECT_EQ(qa.queries, qb.queries);
  EXPECT_EQ(qa.sat, qb.sat);
  EXPECT_EQ(qa.unsat, qb.unsat);
  EXPECT_EQ(qa.unknown, qb.unknown);
  EXPECT_EQ(qa.slices, qb.slices);
  EXPECT_EQ(qa.static_prunes, qb.static_prunes);
  EXPECT_EQ(qa.cache_hits, qb.cache_hits);
  EXPECT_EQ(qa.model_reuse_hits, qb.model_reuse_hits);
  EXPECT_EQ(qa.shared_cache_hits, qb.shared_cache_hits);
  EXPECT_EQ(qa.solves, qb.solves);

  ASSERT_EQ(a.result.vuln.has_value(), b.result.vuln.has_value());
  if (a.result.vuln.has_value()) {
    const symexec::VulnPath& va = *a.result.vuln;
    const symexec::VulnPath& vb = *b.result.vuln;
    EXPECT_EQ(va.kind, vb.kind);
    EXPECT_EQ(va.function, vb.function);
    EXPECT_EQ(va.detail, vb.detail);
    EXPECT_EQ(va.trace, vb.trace);
    EXPECT_EQ(va.model_valid, vb.model_valid);
    EXPECT_EQ(va.input.argv, vb.input.argv);
    EXPECT_EQ(va.input.env, vb.input.env);
    EXPECT_EQ(va.input.sym_ints, vb.input.sym_ints);
    EXPECT_EQ(va.input.sym_bufs, vb.input.sym_bufs);
  }

  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl) << what << ": trace drifted";
}

TEST(ExecParallel, CowForkCopiesStrictlyLessThanEagerClone) {
  // The point of the copy-on-write state layer: per-fork copied bytes must
  // be strictly below what eagerly deep-copying the parent would cost.
  for (const char* name : {"fig2", "polymorph"}) {
    const apps::AppSpec app = apps::make_app(name);
    const RunOutput r = run_app(app, symexec::SearcherKind::kDFS, 1'500'000);
    SCOPED_TRACE(name);
    ASSERT_GT(r.result.stats.forks, 0u);
    EXPECT_GT(r.result.stats.clone_bytes, 0u);
    EXPECT_LT(r.result.stats.clone_bytes, r.result.stats.eager_clone_bytes);
  }
}

TEST(ExecParallel, BatchOneMatchesClassicSequentialExploration) {
  // The exploration loop is the classic one-state-per-slice loop: a second
  // run repeats the first exactly, and so does a run that builds into a
  // caller-owned pool already holding another program's expressions (pool
  // ids shift; nothing observable may).
  const apps::AppSpec app = apps::make_fig2();
  const RunOutput first =
      run_app(app, symexec::SearcherKind::kDFS, 400'000'000);
  EXPECT_EQ(first.result.termination, symexec::Termination::kFoundFault);
  expect_identical(first,
                   run_app(app, symexec::SearcherKind::kDFS, 400'000'000),
                   "fig2 dfs, second run");

  solver::ExprPool pool;
  const apps::AppSpec other = apps::make_polymorph();
  symexec::SymExecutor warm(other.module, other.sym_spec,
                            exec_opts(symexec::SearcherKind::kDFS, 200'000),
                            &pool);
  warm.run();
  ASSERT_GT(pool.num_nodes(), 2u);

  obs::Tracer tracer;
  tracer.buffer().emit(obs::EventKind::kExecBegin, 0);
  symexec::SymExecutor ex(app.module, app.sym_spec,
                          exec_opts(symexec::SearcherKind::kDFS, 400'000'000),
                          &pool);
  ex.set_trace(&tracer.buffer());
  RunOutput shared;
  shared.result = ex.run();
  shared.trace_jsonl = tracer.to_jsonl();
  expect_identical(first, shared, "fig2 dfs on a pre-populated pool");
}

}  // namespace
}  // namespace statsym::core
