// Tests for the StatSym engine pipeline on the fast fig2 target: log
// collection, statistical outputs, candidate iteration, robustness to
// degenerate/corrupted inputs, and determinism.
#include <gtest/gtest.h>

#include <set>

#include "apps/registry.h"
#include "monitor/serialize.h"
#include "statsym/engine.h"

namespace statsym::core {
namespace {

EngineOptions fast_opts() {
  EngineOptions o;
  o.monitor.sampling_rate = 0.5;
  o.target_correct_logs = 60;
  o.target_faulty_logs = 60;
  o.candidate_timeout_seconds = 30.0;
  o.exec.max_memory_bytes = 128ull << 20;
  o.seed = 11;
  return o;
}

TEST(Engine, CollectLogsHitsTargets) {
  const apps::AppSpec app = apps::make_fig2();
  StatSymEngine engine(app.module, app.sym_spec, fast_opts());
  engine.collect_logs(app.workload, /*keep_logs=*/true);
  EXPECT_EQ(engine.num_logs_collected(), 120u);
  std::size_t faulty = 0;
  for (const auto& l : engine.logs()) faulty += l.faulty ? 1 : 0;
  EXPECT_EQ(engine.logs().size(), 120u);
  EXPECT_EQ(faulty, 60u);
}

TEST(Engine, EndToEndFindsFig2Assertion) {
  const apps::AppSpec app = apps::make_fig2();
  StatSymEngine engine(app.module, app.sym_spec, fast_opts());
  engine.collect_logs(app.workload);
  const EngineResult res = engine.run();
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.vuln->function, "vul_func");
  EXPECT_GE(res.winning_candidate, 1u);
  EXPECT_FALSE(res.predicates.empty());
  EXPECT_FALSE(res.construction.candidates.empty());
  // The generated input reproduces (m must land in the faulting window).
  const std::int64_t m = res.vuln->input.sym_ints.at("sym_m");
  EXPECT_GE(m, 4);
  EXPECT_LT(m, 1000);
}

TEST(Engine, TopPredicateMatchesPaperExample) {
  // Fig. 2's discussion: the statistics infer a lower bound on x at the
  // f1() boundary (our workload crashes iff 4 <= m < 1000, so the learned
  // threshold sits just below 4).
  const apps::AppSpec app = apps::make_fig2();
  StatSymEngine engine(app.module, app.sym_spec, fast_opts());
  engine.collect_logs(app.workload);
  const EngineResult res = engine.run();
  ASSERT_FALSE(res.predicates.empty());
  const auto& top = res.predicates.front();
  EXPECT_EQ(top.pk, stats::PredKind::kGt);
  // The learned lower bound sits between the largest observed correct value
  // and the smallest observed faulty one; sampling noise moves the exact
  // cut, but it must stay between the safe region (<= 3) and the deep end.
  EXPECT_GE(top.threshold, 2.0);
  EXPECT_LE(top.threshold, 16.0);
  EXPECT_DOUBLE_EQ(top.score, 1.0);
}

TEST(Engine, NoFaultyLogsIsGracefullyEmpty) {
  const apps::AppSpec app = apps::make_fig2();
  StatSymEngine engine(app.module, app.sym_spec, fast_opts());
  // Only correct runs: m pinned to a safe value.
  engine.collect_logs([](Rng&) {
    interp::RuntimeInput in;
    in.sym_ints["sym_m"] = 1;
    return in;
  });
  const EngineResult res = engine.run();
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.num_faulty_logs, 0u);
  EXPECT_EQ(res.candidates_tried, 0u);
}

TEST(Engine, EmptyLogsHandled) {
  const apps::AppSpec app = apps::make_fig2();
  StatSymEngine engine(app.module, app.sym_spec, fast_opts());
  engine.use_logs({});
  const EngineResult res = engine.run();
  EXPECT_FALSE(res.found);
}

TEST(Engine, LogsRoundTripThroughSerialisation) {
  // The engine consumes logs that went through the file format unchanged —
  // the decoupling the paper's log-file pipeline implies.
  const apps::AppSpec app = apps::make_fig2();
  StatSymEngine collector(app.module, app.sym_spec, fast_opts());
  collector.collect_logs(app.workload, /*keep_logs=*/true);
  const std::string text = monitor::serialize(collector.logs());
  std::vector<monitor::RunLog> back;
  ASSERT_TRUE(monitor::deserialize(text, back));

  StatSymEngine engine(app.module, app.sym_spec, fast_opts());
  engine.use_logs(std::move(back));
  EXPECT_TRUE(engine.run().found);
}

TEST(Engine, DeterministicForSameSeed) {
  const apps::AppSpec app = apps::make_fig2();
  auto run_once = [&] {
    StatSymEngine engine(app.module, app.sym_spec, fast_opts());
    engine.collect_logs(app.workload);
    return engine.run();
  };
  const EngineResult a = run_once();
  const EngineResult b = run_once();
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.paths_explored, b.paths_explored);
  EXPECT_EQ(a.predicates.size(), b.predicates.size());
  EXPECT_EQ(a.construction.skeleton, b.construction.skeleton);
}

TEST(Engine, SamplingRateAffectsLogVolume) {
  const apps::AppSpec app = apps::make_fig2();
  auto bytes_at = [&](double rate) {
    EngineOptions o = fast_opts();
    o.monitor.sampling_rate = rate;
    StatSymEngine engine(app.module, app.sym_spec, o);
    engine.collect_logs(app.workload, /*keep_logs=*/true);
    return monitor::serialize(engine.logs()).size();
  };
  EXPECT_LT(bytes_at(0.2), bytes_at(1.0));
}

TEST(Engine, LowSamplingStillFinds) {
  // The paper's headline sensitivity claim: effective even at 20% sampling.
  // Success at that rate is probabilistic in the sampled logs (Fig. 10), so
  // assert the success *rate* over several seeds rather than one seed's luck.
  const apps::AppSpec app = apps::make_fig2();
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EngineOptions o = fast_opts();
    o.monitor.sampling_rate = 0.2;
    o.seed = seed;
    StatSymEngine engine(app.module, app.sym_spec, o);
    engine.collect_logs(app.workload);
    found += engine.run().found ? 1 : 0;
  }
  EXPECT_GE(found, 6);
}

// A guided lane that verifies no candidate reports why its search stopped:
// here a one-instruction cap ends every candidate after its first slice, so
// the lane reads instr-limit, as a pure lane under the same cap does, not
// exhausted.
TEST(Engine, GuidedLaneReportsTheBudgetStopOfItsCandidates) {
  const apps::AppSpec app = apps::make_fig2();
  EngineOptions o = fast_opts();
  o.exec.max_instructions = 1;
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.collect_logs(app.workload);
  const EngineResult res = engine.run();
  EXPECT_FALSE(res.found);
  ASSERT_GE(res.candidates_tried, 1u);
  ASSERT_EQ(res.lanes.size(), 1u);
  EXPECT_EQ(res.lanes[0].termination, symexec::Termination::kInstrLimit);
}

// Only the guided and pure lanes read the static analysis's facts, so a
// race of the concolic lane alone computes none and reports no analysis.*
// counter; any race holding a reader reports all four.
TEST(Engine, ConcolicOnlyRunSkipsTheStaticAnalysis) {
  const apps::AppSpec app = apps::make_fig2();
  const std::vector<std::string> kCounters = {
      "analysis.unreachable_blocks", "analysis.decided_branches",
      "analysis.findings", "analysis.candidates_pruned"};
  const std::vector<std::pair<const char*, std::size_t>> cases = {
      {"concolic", 0}, {"guided", 4}, {"guided,pure,concolic", 4}};
  for (const auto& [engines, expected] : cases) {
    EngineOptions o = fast_opts();
    o.engines = *parse_engines(engines);
    StatSymEngine engine(app.module, app.sym_spec, o);
    engine.collect_logs(app.workload);
    const EngineResult res = engine.run();
    ASSERT_FALSE(res.lanes.empty()) << engines;
    std::size_t analysis = 0;
    for (const auto& [name, v] : res.metrics.counters()) {
      if (name.starts_with("analysis.")) ++analysis;
    }
    EXPECT_EQ(analysis, expected) << engines;
    for (const std::string& name : kCounters) {
      EXPECT_EQ(res.metrics.counters().contains(name), expected > 0)
          << engines << " " << name;
    }
  }
}

TEST(Engine, PureBaselineAlsoFindsFig2) {
  const apps::AppSpec app = apps::make_fig2();
  symexec::ExecOptions opts;
  const auto r = run_pure_symbolic(app.module, app.sym_spec, opts);
  EXPECT_EQ(r.termination, symexec::Termination::kFoundFault);
}

// §III-C: multiple vulnerabilities, identified one-by-one from clustered
// logs (run_all on the two-bug polymorph variant).
TEST(EngineMultiVuln, FindsBothBugsOneByOne) {
  const apps::AppSpec app = apps::make_polymorph_multibug();
  EngineOptions o = fast_opts();
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = 80;
  o.target_faulty_logs = 80;
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.collect_logs(app.workload);

  const std::vector<EngineResult> all = engine.run_all();
  ASSERT_EQ(all.size(), 2u);
  std::set<std::string> functions;
  for (const auto& res : all) {
    ASSERT_TRUE(res.vuln.has_value());
    functions.insert(res.vuln->function);
    // Every finding replays concretely to the reported fault point.
    interp::Interpreter replay(app.module, res.vuln->input);
    const auto rr = replay.run();
    ASSERT_EQ(rr.outcome, interp::RunOutcome::kFault);
    EXPECT_EQ(rr.fault.function, res.vuln->function);
  }
  EXPECT_TRUE(functions.contains("set_outdir"));
  EXPECT_TRUE(functions.contains("convert_fileName"));
}

TEST(EngineMultiVuln, TargetFunctionSkipsOtherFaults) {
  // Hunt the deeper bug directly: the executor must pass through the
  // parse-time set_outdir overflow (ending those paths quietly) and still
  // reach convert_fileName.
  const apps::AppSpec app = apps::make_polymorph_multibug();
  EngineOptions o = fast_opts();
  o.exec.target_function = "convert_fileName";
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.collect_logs(app.workload, /*keep_logs=*/true);
  // Keep only the convert_fileName fault cluster plus correct runs, as
  // run_all would.
  std::vector<monitor::RunLog> subset;
  for (const auto& log : engine.logs()) {
    if (!log.faulty || log.fault_function == "convert_fileName") {
      subset.push_back(log);
    }
  }
  StatSymEngine hunter(app.module, app.sym_spec, o);
  hunter.use_logs(std::move(subset));
  const EngineResult res = hunter.run();
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.vuln->function, "convert_fileName");
}

TEST(EngineMultiVuln, RunAllOnSingleBugAppFindsExactlyOne) {
  const apps::AppSpec app = apps::make_fig2();
  StatSymEngine engine(app.module, app.sym_spec, fast_opts());
  engine.collect_logs(app.workload);
  const auto all = engine.run_all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].vuln->function, "vul_func");
}

}  // namespace
}  // namespace statsym::core
