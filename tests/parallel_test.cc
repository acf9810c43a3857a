// Tests for the engine's determinism and its first-win candidate loop: the
// output repeats exactly from run to run (per-attempt and per-candidate
// derived seeds, candidates tried in rank order), a warm solver cache
// changes no result, and candidates ranked after the winner never run.
// (Several test names still say "thread count" from when collection and the
// candidates ran on a worker pool; each analysis now runs on one thread.)
#include <gtest/gtest.h>

#include <string>

#include "apps/registry.h"
#include "monitor/serialize.h"
#include "solver/cache.h"
#include "statsym/engine.h"
#include "support/stopwatch.h"

namespace statsym::core {
namespace {

struct PipelineRun {
  std::string logs_text;  // serialized Phase-1a logs, order included
  EngineResult res;
};

// Sampling 0.2 makes polymorph's statistics noisy enough to produce a
// detour and therefore >= 2 candidate paths, so the first-win loop is
// actually exercised (at 0.3 every app collapses to a single candidate).
EngineOptions pipeline_opts(double sampling) {
  EngineOptions o;
  o.monitor.sampling_rate = sampling;
  o.target_correct_logs = 60;
  o.target_faulty_logs = 60;
  o.candidate_timeout_seconds = 60.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.seed = 424242;
  return o;
}

PipelineRun run_pipeline(const std::string& app_name, const EngineOptions& o,
                         solver::SharedQueryCache* cache = nullptr) {
  const apps::AppSpec app = apps::make_app(app_name);
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.set_shared_solver_cache(cache);
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
  // Solver-layer accounting. Which fast path answers a slice shifts with
  // cache warmth (a shared-cache hit on a warm cache is a canonical solve
  // on a cold one — same answer either way), so only the warmth-independent
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
  const PipelineRun first = run_pipeline("polymorph", pipeline_opts(0.2));
  const PipelineRun second = run_pipeline("polymorph", pipeline_opts(0.2));
  ASSERT_TRUE(first.res.found);
  // The multi-candidate case: the reported candidate must repeat.
  ASSERT_GE(first.res.construction.candidates.size(), 2u);
  expect_identical(first, second);
}

TEST(ParallelEngine, Fig2DeterministicAcrossThreadCounts) {
  const PipelineRun first = run_pipeline("fig2", pipeline_opts(0.5));
  const PipelineRun second = run_pipeline("fig2", pipeline_opts(0.5));
  ASSERT_TRUE(first.res.found);
  expect_identical(first, second);
}

TEST(ParallelEngine, SharedSolverCacheInvisibleInResults) {
  // A query cache that outlives the run (as a serve session keeps one) may
  // only change wall-clock: the run that fills it and the run that reads
  // it warm must report identical results (including the crashing input).
  solver::SharedQueryCache cache;
  const PipelineRun cold = run_pipeline("polymorph", pipeline_opts(0.2),
                                        &cache);
  const PipelineRun warm = run_pipeline("polymorph", pipeline_opts(0.2),
                                        &cache);
  ASSERT_TRUE(cold.res.found);
  EXPECT_GT(warm.res.solver_stats.shared_cache_hits,
            cold.res.solver_stats.shared_cache_hits);
  expect_identical(cold, warm);
}

TEST(ParallelEngine, ThreadCountDoesNotChangeLogAdmission) {
  // Collection admits the same runs every time, in attempt order.
  const apps::AppSpec app = apps::make_fig2();
  const EngineOptions o = pipeline_opts(0.5);
  StatSymEngine first(app.module, app.sym_spec, o);
  first.collect_logs(app.workload, /*keep_logs=*/true);
  StatSymEngine second(app.module, app.sym_spec, o);
  second.collect_logs(app.workload, /*keep_logs=*/true);
  ASSERT_EQ(first.logs().size(), o.target_correct_logs + o.target_faulty_logs);
  EXPECT_EQ(monitor::serialize(first.logs()),
            monitor::serialize(second.logs()));
  // run_ids are stamped at admission and stay dense.
  for (std::size_t i = 0; i < first.logs().size(); ++i) {
    EXPECT_EQ(first.logs()[i].run_id, i);
  }
}

TEST(ParallelEngine, LosingCandidatesAreCancelledNotCounted) {
  // With >= 2 candidates and the winner ranked first, every later candidate
  // is reported as cancelled and adds nothing to the accounting.
  const PipelineRun run = run_pipeline("polymorph", pipeline_opts(0.2));
  ASSERT_TRUE(run.res.found);
  ASSERT_GE(run.res.construction.candidates.size(), 2u);
  EXPECT_EQ(run.res.winning_candidate, run.res.candidates_tried);
  EXPECT_GE(run.res.candidates_cancelled, 1u);
  EXPECT_EQ(run.res.candidates_tried + run.res.candidates_cancelled,
            std::min(run.res.construction.candidates.size(),
                     pipeline_opts(0.2).max_candidates_tried));
}

TEST(ParallelEngine, CancelledSlowLoserDoesNotStallTheRun) {
  // The candidates after the winner get a deliberately huge budget; if the
  // loop went on to run them, run() would take until the 60 s
  // per-candidate timeout.
  EngineOptions o = pipeline_opts(0.2);
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
