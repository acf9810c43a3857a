// Property tests over fuzz-generated programs (ISSUE 5 satellite): the
// trace's state-accounting events and the metrics registry must agree with
// the executor's and solver's own counters on every program, and the
// metrics counters must repeat exactly from run to run.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fuzz/program_gen.h"
#include "statsym/engine.h"
#include "symexec/executor.h"

namespace statsym::core {
namespace {

std::map<obs::EventKind, std::uint64_t> count_events(
    const obs::TraceBuffer& b) {
  std::map<obs::EventKind, std::uint64_t> n;
  for (const auto& ev : b.snapshot()) ++n[ev.kind];
  return n;
}

// State-lifecycle and solver-counter identities on one pure symbolic run:
//   forks + 1            == terminated + live-at-end
//   suspends - wakes     == suspended-at-end
//   solver-query events  == SolverStats.queries
//   per-level slice events == the matching SolverStats counters
TEST(MetricsProperty, PureExecutionTraceMatchesStats) {
  fuzz::GenOptions gopts;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    const fuzz::GeneratedProgram prog = fuzz::generate_program(seed, gopts);

    symexec::ExecOptions opts;
    opts.max_instructions = 50'000;
    opts.max_seconds = 30.0;
    opts.max_memory_bytes = 128ull << 20;

    obs::Tracer tracer;
    const symexec::ExecResult r = run_pure_symbolic(
        prog.app.module, prog.app.sym_spec, opts, &tracer.buffer());
    ASSERT_EQ(tracer.buffer().dropped(), 0u);
    auto n = count_events(tracer.buffer());

    EXPECT_EQ(n[obs::EventKind::kExecBegin], 1u);
    ASSERT_EQ(n[obs::EventKind::kExecEnd], 1u);
    EXPECT_EQ(n[obs::EventKind::kStateFork], r.stats.forks);
    EXPECT_EQ(n[obs::EventKind::kStateTerminate], r.stats.paths_completed);
    EXPECT_EQ(n[obs::EventKind::kStateSuspend], r.stats.suspensions);
    EXPECT_EQ(n[obs::EventKind::kStateWake], r.stats.wakes);

    // The kExecEnd payload closes the books: every state created (initial +
    // forks) either terminated or is still live, and the suspended set is
    // exactly the unwoken suspensions.
    const auto evs = tracer.buffer().snapshot();
    const auto& end = evs.back();
    ASSERT_EQ(end.kind, obs::EventKind::kExecEnd);
    EXPECT_EQ(r.stats.forks + 1,
              r.stats.paths_completed + static_cast<std::uint64_t>(end.b));
    EXPECT_EQ(r.stats.suspensions - r.stats.wakes,
              static_cast<std::uint64_t>(end.c));
    EXPECT_EQ(r.stats.paths_explored,
              r.stats.paths_completed + static_cast<std::uint64_t>(end.b));

    EXPECT_EQ(n[obs::EventKind::kSolverQuery], r.solver_stats.queries);
    // One event per decided slice; level 1 (model reuse) is retired.
    EXPECT_EQ(n[obs::EventKind::kSolverSlice], r.solver_stats.slices);
    std::uint64_t level0 = 0;
    std::uint64_t level1 = 0;
    std::uint64_t level2 = 0;
    for (const auto& ev : evs) {
      if (ev.kind != obs::EventKind::kSolverSlice) continue;
      if (ev.a == 0) ++level0;
      if (ev.a == 1) ++level1;
      if (ev.a == 2) ++level2;
    }
    EXPECT_EQ(level1, 0u);
    EXPECT_EQ(level0, r.solver_stats.cache_hits);
    EXPECT_EQ(level2,
              r.solver_stats.shared_cache_hits + r.solver_stats.solves);
  }
}

EngineOptions engine_opts() {
  EngineOptions o;
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = 40;
  o.target_faulty_logs = 40;
  o.candidate_timeout_seconds = 60.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.seed = 424242;
  return o;
}

// The engine's metrics registry must agree with the EngineResult fields and
// with the trace's own event counts, program by program.
TEST(MetricsProperty, EngineMetricsMatchResultAndTrace) {
  fuzz::GenOptions gopts;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    const fuzz::GeneratedProgram prog = fuzz::generate_program(seed, gopts);

    obs::Tracer tracer;
    StatSymEngine engine(prog.app.module, prog.app.sym_spec, engine_opts());
    engine.set_tracer(&tracer);
    engine.collect_logs(prog.app.workload);
    const EngineResult res = engine.run();
    auto n = count_events(tracer.buffer());

    const obs::MetricsRegistry& m = res.metrics;
    EXPECT_EQ(m.counter("log.correct"), res.num_correct_logs);
    EXPECT_EQ(m.counter("log.faulty"), res.num_faulty_logs);
    EXPECT_EQ(n[obs::EventKind::kLogAdmitted],
              res.num_correct_logs + res.num_faulty_logs);
    EXPECT_EQ(m.counter("stat.predicates"), res.predicates.size());
    EXPECT_EQ(n[obs::EventKind::kPredicateFit], res.predicates.size());
    EXPECT_EQ(m.counter("stat.candidates"),
              res.construction.candidates.size());
    EXPECT_EQ(n[obs::EventKind::kCandidateRanked],
              res.construction.candidates.size());
    EXPECT_EQ(m.counter("symexec.candidates_tried"), res.candidates_tried);
    EXPECT_EQ(n[obs::EventKind::kExecBegin], res.candidates_tried);
    EXPECT_EQ(n[obs::EventKind::kExecEnd], res.candidates_tried);
    EXPECT_EQ(m.counter("symexec.paths_explored"), res.paths_explored);
    EXPECT_EQ(m.counter("symexec.instructions"), res.instructions);
    EXPECT_EQ(m.counter("symexec.found"), res.found ? 1u : 0u);

    const solver::SolverStats& ss = res.solver_stats;
    EXPECT_EQ(m.counter("solver.queries"), ss.queries);
    EXPECT_EQ(n[obs::EventKind::kSolverQuery], ss.queries);
    EXPECT_EQ(m.counter("solver.slices"), ss.slices);
    EXPECT_EQ(m.counter("solver.local_cache_hits"), ss.cache_hits);
    EXPECT_EQ(m.counter("solver.canonical"),
              ss.shared_cache_hits + ss.solves);
    EXPECT_EQ(m.counter("solver.slices"),
              m.counter("solver.local_cache_hits") +
                  m.counter("solver.canonical"));

    // Phase wall times exist and sum consistently.
    EXPECT_TRUE(m.has_gauge("phase.total.seconds"));
    EXPECT_NEAR(m.gauge("phase.total.seconds"),
                m.gauge("phase.log.seconds") + m.gauge("phase.stat.seconds") +
                    m.gauge("phase.symexec.seconds"),
                1e-9);
    // Histograms cover exactly the ranked sets.
    const obs::Histogram* hs = m.histogram("stat.predicate_score");
    if (!res.predicates.empty()) {
      ASSERT_NE(hs, nullptr);
      EXPECT_EQ(hs->count, res.predicates.size());
    }
  }
}

// Counters and histograms — everything except the `*.seconds` gauges — must
// be identical from run to run, and attaching a tracer must not move them.
TEST(MetricsProperty, MetricsScheduleInvariant) {
  fuzz::GenOptions gopts;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    const fuzz::GeneratedProgram prog = fuzz::generate_program(seed, gopts);
    EngineResult results[2];
    for (int i = 0; i < 2; ++i) {
      obs::Tracer tracer;
      StatSymEngine engine(prog.app.module, prog.app.sym_spec, engine_opts());
      if (i == 1) engine.set_tracer(&tracer);
      engine.collect_logs(prog.app.workload);
      results[i] = engine.run();
    }
    EXPECT_EQ(results[0].metrics.counters(), results[1].metrics.counters());
    ASSERT_EQ(results[0].metrics.histograms().size(),
              results[1].metrics.histograms().size());
    for (const auto& [name, h] : results[0].metrics.histograms()) {
      const obs::Histogram* other = results[1].metrics.histogram(name);
      ASSERT_NE(other, nullptr) << name;
      EXPECT_EQ(h.count, other->count) << name;
      EXPECT_DOUBLE_EQ(h.sum, other->sum) << name;
    }
  }
}

}  // namespace
}  // namespace statsym::core
