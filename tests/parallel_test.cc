// Tests for the parallel pipeline: the engine's output must be identical at
// every worker count (per-task derived seeds + merge-in-task-order + cancel
// only candidates ranked after the winner), and portfolio cancellation must
// propagate to candidates that lost the race.
#include <gtest/gtest.h>

#include <string>

#include "apps/registry.h"
#include "monitor/serialize.h"
#include "statsym/engine.h"
#include "support/stopwatch.h"

namespace statsym::core {
namespace {

struct PipelineRun {
  std::string logs_text;  // serialized Phase-1a logs, order included
  EngineResult res;
};

// Sampling 0.2 makes polymorph's statistics noisy enough to produce a
// detour and therefore >= 2 candidate paths, so the portfolio race is
// actually exercised (at 0.3 every app collapses to a single candidate).
EngineOptions pipeline_opts(std::size_t threads, double sampling) {
  EngineOptions o;
  o.monitor.sampling_rate = sampling;
  o.target_correct_logs = 60;
  o.target_faulty_logs = 60;
  o.candidate_timeout_seconds = 60.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.num_threads = threads;
  o.candidate_portfolio_width = 4;
  o.seed = 424242;
  return o;
}

PipelineRun run_pipeline(const std::string& app_name, const EngineOptions& o) {
  const apps::AppSpec app = apps::make_app(app_name);
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.collect_logs(app.workload, /*keep_logs=*/true);
  PipelineRun out;
  out.logs_text = monitor::serialize(engine.logs());
  out.res = engine.run();
  return out;
}

// Everything observable about a run except wall-clock must match.
void expect_identical(const PipelineRun& a, const PipelineRun& b) {
  EXPECT_EQ(a.logs_text, b.logs_text);
  ASSERT_EQ(a.res.found, b.res.found);
  EXPECT_EQ(a.res.num_correct_logs, b.res.num_correct_logs);
  EXPECT_EQ(a.res.num_faulty_logs, b.res.num_faulty_logs);
  ASSERT_EQ(a.res.predicates.size(), b.res.predicates.size());
  for (std::size_t i = 0; i < a.res.predicates.size(); ++i) {
    EXPECT_EQ(a.res.predicates[i].loc, b.res.predicates[i].loc);
    EXPECT_DOUBLE_EQ(a.res.predicates[i].threshold,
                     b.res.predicates[i].threshold);
    EXPECT_DOUBLE_EQ(a.res.predicates[i].score, b.res.predicates[i].score);
  }
  ASSERT_EQ(a.res.construction.candidates.size(),
            b.res.construction.candidates.size());
  for (std::size_t i = 0; i < a.res.construction.candidates.size(); ++i) {
    EXPECT_EQ(a.res.construction.candidates[i].nodes,
              b.res.construction.candidates[i].nodes);
  }
  EXPECT_EQ(a.res.winning_candidate, b.res.winning_candidate);
  EXPECT_EQ(a.res.candidates_tried, b.res.candidates_tried);
  EXPECT_EQ(a.res.candidates_cancelled, b.res.candidates_cancelled);
  EXPECT_EQ(a.res.paths_explored, b.res.paths_explored);
  EXPECT_EQ(a.res.instructions, b.res.instructions);
  // Solver-layer accounting. Which fast path answers a slice can shift with
  // worker timing (a shared-cache hit in one schedule is a canonical solve
  // in another — same answer either way), so only the schedule-independent
  // counters and the hit+solve total are compared; both sides of every
  // trade-off are counted, so the sum is invariant.
  EXPECT_EQ(a.res.solver_stats.queries, b.res.solver_stats.queries);
  EXPECT_EQ(a.res.solver_stats.slices, b.res.solver_stats.slices);
  EXPECT_EQ(a.res.solver_stats.multi_slice_queries,
            b.res.solver_stats.multi_slice_queries);
  EXPECT_EQ(a.res.solver_stats.cache_hits, b.res.solver_stats.cache_hits);
  EXPECT_EQ(
      a.res.solver_stats.shared_cache_hits + a.res.solver_stats.solves,
      b.res.solver_stats.shared_cache_hits + b.res.solver_stats.solves);
  if (a.res.found) {
    EXPECT_EQ(a.res.vuln->function, b.res.vuln->function);
    EXPECT_EQ(a.res.vuln->input.argv, b.res.vuln->input.argv);
    EXPECT_EQ(a.res.vuln->input.env, b.res.vuln->input.env);
    EXPECT_EQ(a.res.vuln->input.sym_ints, b.res.vuln->input.sym_ints);
    EXPECT_EQ(a.res.vuln->input.sym_bufs, b.res.vuln->input.sym_bufs);
  }
}

TEST(ParallelEngine, PolymorphDeterministicAcrossThreadCounts) {
  const PipelineRun one = run_pipeline("polymorph", pipeline_opts(1, 0.2));
  const PipelineRun eight = run_pipeline("polymorph", pipeline_opts(8, 0.2));
  ASSERT_TRUE(one.res.found);
  // The multi-candidate case: the race between >= 2 portfolio workers must
  // not change which candidate is reported.
  ASSERT_GE(one.res.construction.candidates.size(), 2u);
  expect_identical(one, eight);
}

TEST(ParallelEngine, Fig2DeterministicAcrossThreadCounts) {
  const PipelineRun one = run_pipeline("fig2", pipeline_opts(1, 0.5));
  const PipelineRun eight = run_pipeline("fig2", pipeline_opts(8, 0.5));
  ASSERT_TRUE(one.res.found);
  expect_identical(one, eight);
}

TEST(ParallelEngine, SharedSolverCacheInvisibleInResults) {
  // The cross-worker query cache may only change wall-clock: the cached
  // parallel run vs. the single-threaded run must report identical results
  // (including the crashing input).
  const EngineOptions par = pipeline_opts(4, 0.2);
  EngineOptions seq = par;
  seq.num_threads = 1;

  const PipelineRun run_par = run_pipeline("polymorph", par);
  const PipelineRun run_seq = run_pipeline("polymorph", seq);
  ASSERT_TRUE(run_par.res.found);
  expect_identical(run_par, run_seq);
}

TEST(ParallelEngine, ThreadCountDoesNotChangeLogAdmission) {
  // Log collection overshoots under parallel waves; the admission filter
  // must keep exactly the runs the sequential loop would have kept.
  const apps::AppSpec app = apps::make_fig2();
  EngineOptions o = pipeline_opts(1, 0.5);
  StatSymEngine seq(app.module, app.sym_spec, o);
  seq.collect_logs(app.workload, /*keep_logs=*/true);
  o.num_threads = 8;
  StatSymEngine par(app.module, app.sym_spec, o);
  par.collect_logs(app.workload, /*keep_logs=*/true);
  ASSERT_EQ(seq.logs().size(), par.logs().size());
  EXPECT_EQ(monitor::serialize(seq.logs()), monitor::serialize(par.logs()));
  // run_ids are stamped at admission and stay dense.
  for (std::size_t i = 0; i < par.logs().size(); ++i) {
    EXPECT_EQ(par.logs()[i].run_id, i);
  }
}

TEST(ParallelEngine, LosingCandidatesAreCancelledNotCounted) {
  // With >= 2 candidates and the winner ranked first, every later candidate
  // is cancelled, and its stats must not leak into the accounting (that is
  // what keeps paths_explored/instructions thread-count independent).
  const PipelineRun run = run_pipeline("polymorph", pipeline_opts(4, 0.2));
  ASSERT_TRUE(run.res.found);
  ASSERT_GE(run.res.construction.candidates.size(), 2u);
  EXPECT_EQ(run.res.winning_candidate, run.res.candidates_tried);
  EXPECT_GE(run.res.candidates_cancelled, 1u);
  EXPECT_EQ(run.res.candidates_tried + run.res.candidates_cancelled,
            std::min(run.res.construction.candidates.size(),
                     pipeline_opts(4, 0.2).max_candidates_tried));
}

TEST(ParallelEngine, CancelledSlowLoserDoesNotStallTheRun) {
  // The losing candidate gets a deliberately huge budget; if cancellation
  // failed to stop it, run() would block on the worker until the 60 s
  // per-candidate timeout. (The executor-level guarantee that a stop flag
  // halts a long run mid-flight is covered in symexec_test.cc.)
  EngineOptions o = pipeline_opts(4, 0.2);
  o.exec.max_instructions = ~0ull >> 8;
  o.exec.max_seconds = 60.0;
  const apps::AppSpec app = apps::make_app("polymorph");
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.collect_logs(app.workload);
  Stopwatch sw;
  const EngineResult res = engine.run();
  EXPECT_TRUE(res.found);
  EXPECT_GE(res.candidates_cancelled, 1u);
  EXPECT_LT(sw.elapsed_seconds(), 30.0);
}

}  // namespace
}  // namespace statsym::core
