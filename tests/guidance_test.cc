// Tests for statistics-guided search: candidate-path matching, hop-diversion
// suspension (τ), benign revisits, predicate injection (including the
// per-byte lowering of string-length predicates), conflict suspension, the
// guided scheduler's priorities, the worst-case fallback to pure symbolic
// execution, and the concolic frontier ranker's gap vectors.
#include <gtest/gtest.h>

#include <limits>

#include "apps/registry.h"
#include "apps/stdlib.h"
#include "fuzz/program_gen.h"
#include "ir/builder.h"
#include "statsym/engine.h"
#include "statsym/guidance.h"
#include "statsym/guided_searcher.h"
#include "statsym/report.h"
#include "symexec/executor.h"

namespace statsym::core {
namespace {

using ir::ModuleBuilder;
using ir::Reg;
using symexec::ExecOptions;
using symexec::SymExecutor;
using symexec::SymInputSpec;
using symexec::SymStr;

// main -> a -> b -> vuln(x): assert fails when first byte of argv[1] is 'X'.
ir::Module chain_module() {
  ModuleBuilder mb("chain");
  apps::emit_stdlib(mb);
  {
    auto f = mb.func("vuln", {"s"});
    const Reg c = f.load(f.param(0), f.ci(0));
    const auto bad = f.block();
    const auto ok = f.block();
    f.br(f.eqi(c, 'X'), bad, ok);
    f.at(bad);
    f.assert_true(f.ci(0));
    f.ret();
    f.at(ok);
    f.ret();
  }
  {
    auto f = mb.func("b", {"s"});
    f.call_void("vuln", {f.param(0)});
    f.ret();
  }
  {
    auto f = mb.func("a", {"s"});
    f.call_void("b", {f.param(0)});
    f.ret();
  }
  // A decoy subtree off the main chain.
  {
    auto f = mb.func("decoy3", {});
    f.ret();
  }
  {
    auto f = mb.func("decoy2", {});
    f.call_void("decoy3", {});
    f.ret();
  }
  {
    auto f = mb.func("decoy", {});
    f.call_void("decoy2", {});
    f.call_void("decoy2", {});
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("decoy", {});
    f.call_void("a", {f.arg(f.ci(1))});
    f.ret(f.ci(0));
  }
  return mb.build();
}

monitor::LocId enter(const ir::Module& m, const std::string& fn) {
  return monitor::enter_loc(m.find_function(fn));
}
monitor::LocId leave(const ir::Module& m, const std::string& fn) {
  return monitor::leave_loc(m.find_function(fn));
}

stats::CandidatePath path_of(std::vector<monitor::LocId> nodes) {
  stats::CandidatePath cp;
  cp.nodes = std::move(nodes);
  return cp;
}

SymInputSpec spec_one_sym_arg() {
  SymInputSpec spec;
  spec.argv = {SymStr::fixed("p"), SymStr::sym("s", 8)};
  return spec;
}

TEST(Guidance, FollowsCandidatePathToFault) {
  const ir::Module m = chain_module();
  stats::CandidatePath cp = path_of(
      {enter(m, "main"), enter(m, "a"), enter(m, "b"), enter(m, "vuln")});
  CandidateGuidance g(m, cp, {}, {});
  ExecOptions opts;
  opts.wake_suspended = false;
  SymExecutor ex(m, spec_one_sym_arg(), opts);
  ex.set_guidance(&g);
  ex.set_searcher(std::make_unique<GuidedSearcher>());
  const auto r = ex.run();
  ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(r.vuln->function, "vuln");
  EXPECT_EQ(g.max_matched(), 4);
}

TEST(Guidance, TightTauSuspendsDivergentStates) {
  const ir::Module m = chain_module();
  // The candidate path skips the decoy subtree; with tau = 0 any decoy
  // event suspends. The path itself stays feasible because decoy events
  // happen before `a` — so use a candidate that expects `a` immediately and
  // verify the decoy detour exhausts the hop budget.
  stats::CandidatePath cp = path_of(
      {enter(m, "main"), enter(m, "a"), enter(m, "b"), enter(m, "vuln")});
  GuidanceOptions gopts;
  gopts.tau = 0;
  CandidateGuidance g(m, cp, {}, gopts);
  ExecOptions opts;
  opts.wake_suspended = false;
  SymExecutor ex(m, spec_one_sym_arg(), opts);
  ex.set_guidance(&g);
  ex.set_searcher(std::make_unique<GuidedSearcher>());
  const auto r = ex.run();
  EXPECT_NE(r.termination, symexec::Termination::kFoundFault);
  EXPECT_GE(g.diverted_suspensions(), 1u);
}

TEST(Guidance, GenerousTauToleratesDetours) {
  const ir::Module m = chain_module();
  stats::CandidatePath cp = path_of(
      {enter(m, "main"), enter(m, "a"), enter(m, "b"), enter(m, "vuln")});
  GuidanceOptions gopts;
  gopts.tau = 10;  // paper default; decoy subtree is 6 events deep
  CandidateGuidance g(m, cp, {}, gopts);
  ExecOptions opts;
  opts.wake_suspended = false;
  SymExecutor ex(m, spec_one_sym_arg(), opts);
  ex.set_guidance(&g);
  ex.set_searcher(std::make_unique<GuidedSearcher>());
  EXPECT_EQ(ex.run().termination, symexec::Termination::kFoundFault);
}

TEST(Guidance, InfeasibleCandidateSuspendsEverything) {
  const ir::Module m = chain_module();
  // A path demanding vuln before a — impossible in real execution order
  // once tau is small.
  stats::CandidatePath cp =
      path_of({enter(m, "vuln"), enter(m, "a"), enter(m, "b")});
  GuidanceOptions gopts;
  gopts.tau = 1;
  CandidateGuidance g(m, cp, {}, gopts);
  ExecOptions opts;
  opts.wake_suspended = false;
  SymExecutor ex(m, spec_one_sym_arg(), opts);
  ex.set_guidance(&g);
  ex.set_searcher(std::make_unique<GuidedSearcher>());
  const auto r = ex.run();
  EXPECT_EQ(r.termination, symexec::Termination::kExhausted);
  EXPECT_EQ(r.stats.faults_found, 0u);
  EXPECT_GT(r.stats.suspensions, 0u);
}

TEST(Guidance, WakeFallbackEqualsPureSearch) {
  // Same bogus candidate path, but with wake_suspended on: the executor
  // falls back to pure symbolic execution and still finds the bug — the
  // paper's worst-case guarantee (§III-A footnote).
  const ir::Module m = chain_module();
  stats::CandidatePath cp =
      path_of({enter(m, "vuln"), enter(m, "a"), enter(m, "b")});
  GuidanceOptions gopts;
  gopts.tau = 1;
  CandidateGuidance g(m, cp, {}, gopts);
  ExecOptions opts;
  opts.wake_suspended = true;
  SymExecutor ex(m, spec_one_sym_arg(), opts);
  ex.set_guidance(&g);
  ex.set_searcher(std::make_unique<GuidedSearcher>());
  const auto r = ex.run();
  EXPECT_EQ(r.termination, symexec::Termination::kFoundFault);
  EXPECT_GE(r.stats.wakes, 1u);
}

TEST(Guidance, LibraryFunctionsInvisible) {
  ModuleBuilder mb("lib");
  apps::emit_stdlib(mb);
  {
    auto f = mb.func("user", {"s"});
    // Calls several library routines between candidate nodes.
    f.call_void("__strlen", {f.param(0)});
    f.call_void("__strlen", {f.param(0)});
    f.call_void("__strlen", {f.param(0)});
    const Reg c = f.load(f.param(0), f.ci(0));
    const auto bad = f.block();
    const auto ok = f.block();
    f.br(f.eqi(c, 'Q'), bad, ok);
    f.at(bad);
    f.assert_true(f.ci(0));
    f.ret();
    f.at(ok);
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("user", {f.arg(f.ci(1))});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  stats::CandidatePath cp = path_of({enter(m, "main"), enter(m, "user")});
  GuidanceOptions gopts;
  gopts.tau = 0;  // library events would instantly suspend if visible
  CandidateGuidance g(m, cp, {}, gopts);
  ExecOptions opts;
  opts.wake_suspended = false;
  SymExecutor ex(m, spec_one_sym_arg(), opts);
  ex.set_guidance(&g);
  ex.set_searcher(std::make_unique<GuidedSearcher>());
  EXPECT_EQ(ex.run().termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(g.diverted_suspensions(), 0u);
}

// Injection: a length predicate on the parameter must prune short-string
// paths (their termination forks become infeasible).
TEST(Guidance, LengthPredicateInjectionPrunesShortStrings) {
  ModuleBuilder mb("len");
  apps::emit_stdlib(mb);
  {
    auto f = mb.func("scan", {"s"});
    f.ret(f.call("__strlen", {f.param(0)}));
  }
  {
    auto f = mb.func("sink", {"s", "n"});
    const auto bad = f.block();
    const auto ok = f.block();
    f.br(f.gei(f.param(1), 6), bad, ok);
    f.at(bad);
    f.assert_true(f.ci(0));
    f.ret();
    f.at(ok);
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    const Reg s = f.arg(f.ci(1));
    const Reg n = f.call("scan", {s});
    f.call_void("sink", {s, n});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();

  stats::Predicate p;
  p.loc = enter(m, "scan");
  p.var = "len(s FUNCPARAM)";
  p.kind = monitor::VarKind::kParam;
  p.is_len = true;
  p.pk = stats::PredKind::kGt;
  p.threshold = 5.5;
  p.score = 1.0;
  p.score_lcb = 1.0;

  stats::CandidatePath cp = path_of(
      {enter(m, "main"), enter(m, "scan"), leave(m, "scan"),
       enter(m, "sink")});

  SymInputSpec spec;
  spec.argv = {SymStr::fixed("p"), SymStr::sym("s", 16)};

  // Without injection: strlen forks once per length -> many paths.
  std::uint64_t paths_without = 0;
  {
    GuidanceOptions gopts;
    gopts.inject_predicates = false;
    CandidateGuidance g(m, cp, {p}, gopts);
    ExecOptions opts;
    opts.wake_suspended = false;
    SymExecutor ex(m, spec, opts);
    ex.set_guidance(&g);
    ex.set_searcher(std::make_unique<GuidedSearcher>());
    const auto r = ex.run();
    EXPECT_EQ(r.termination, symexec::Termination::kFoundFault);
    paths_without = r.stats.paths_explored;
  }
  // With injection: bytes 0..5 pinned non-NUL at scan entry -> the short
  // lengths never fork.
  {
    CandidateGuidance g(m, cp, {p}, {});
    ExecOptions opts;
    opts.wake_suspended = false;
    SymExecutor ex(m, spec, opts);
    ex.set_guidance(&g);
    ex.set_searcher(std::make_unique<GuidedSearcher>());
    const auto r = ex.run();
    ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
    EXPECT_LT(r.stats.paths_explored, paths_without);
    // The generated input respects the predicate.
    EXPECT_GE(r.vuln->input.argv[1].size(), 6u);
  }
}

TEST(Guidance, ConflictingPredicateSuspends) {
  const ir::Module m = chain_module();
  stats::Predicate p;
  p.loc = enter(m, "a");
  p.var = "len(s FUNCPARAM)";
  p.kind = monitor::VarKind::kParam;
  p.is_len = true;
  p.pk = stats::PredKind::kGt;
  p.threshold = 100.0;  // impossible: the buffer is 8 bytes
  p.score = 1.0;
  p.score_lcb = 1.0;
  stats::CandidatePath cp = path_of({enter(m, "main"), enter(m, "a")});
  CandidateGuidance g(m, cp, {p}, {});
  ExecOptions opts;
  opts.wake_suspended = false;
  SymExecutor ex(m, spec_one_sym_arg(), opts);
  ex.set_guidance(&g);
  ex.set_searcher(std::make_unique<GuidedSearcher>());
  const auto r = ex.run();
  EXPECT_EQ(r.stats.faults_found, 0u);
  EXPECT_GE(g.conflict_suspensions(), 1u);
}

TEST(Guidance, UnreachedPredicatesAreNotInjected) {
  const ir::Module m = chain_module();
  stats::Predicate p;
  p.loc = enter(m, "a");
  p.var = "len(s FUNCPARAM)";
  p.kind = monitor::VarKind::kParam;
  p.is_len = true;
  p.pk = stats::PredKind::kUnreached;
  p.score = 1.0;
  p.score_lcb = 1.0;
  stats::CandidatePath cp = path_of(
      {enter(m, "main"), enter(m, "a"), enter(m, "b"), enter(m, "vuln")});
  CandidateGuidance g(m, cp, {p}, {});
  ExecOptions opts;
  opts.wake_suspended = false;
  SymExecutor ex(m, spec_one_sym_arg(), opts);
  ex.set_guidance(&g);
  ex.set_searcher(std::make_unique<GuidedSearcher>());
  EXPECT_EQ(ex.run().termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(g.conflict_suspensions(), 0u);
}

TEST(GuidedSearcher, PrefersMoreMatchedThenFewerDiverted) {
  GuidedSearcher s;
  symexec::State deep_but_diverted;
  deep_but_diverted.guide.diverted = 5;
  deep_but_diverted.guide.matched = 10;
  symexec::State shallow;
  shallow.guide.diverted = 0;
  shallow.guide.matched = 2;
  symexec::State mid;
  mid.guide.diverted = 0;
  mid.guide.matched = 7;
  s.add(&deep_but_diverted);
  s.add(&shallow);
  s.add(&mid);
  // Progress along the candidate path dominates; τ handles over-divergence.
  EXPECT_EQ(s.select(), &deep_but_diverted);
  EXPECT_EQ(s.select(), &mid);
  EXPECT_EQ(s.select(), &shallow);
  EXPECT_TRUE(s.empty());
}

TEST(GuidedSearcher, DivertedBreaksTiesAmongEquallyMatched) {
  GuidedSearcher s;
  symexec::State on_path;
  on_path.guide.diverted = 0;
  on_path.guide.matched = 4;
  symexec::State drifting;
  drifting.guide.diverted = 6;
  drifting.guide.matched = 4;
  s.add(&drifting);
  s.add(&on_path);
  EXPECT_EQ(s.select(), &on_path);
  EXPECT_EQ(s.select(), &drifting);
}

TEST(GuidedSearcher, WokenStatesRankLast) {
  GuidedSearcher s;
  symexec::State woken;
  woken.guide.diverted = -1;  // free-run marker
  woken.guide.matched = 100;
  symexec::State guided;
  guided.guide.diverted = 9;
  guided.guide.matched = 0;
  s.add(&woken);
  s.add(&guided);
  EXPECT_EQ(s.select(), &guided);
  EXPECT_EQ(s.select(), &woken);
}

// ---------------------------------------------------------------------------
// The concolic frontier ranker.

// main calls f(a) and f(a + 5); `never` is on the candidate path but is
// never called.
ir::Module ranker_module() {
  ModuleBuilder mb("ranker");
  {
    auto f = mb.func("f", {"a"});
    f.ret();
  }
  {
    auto f = mb.func("never", {"b"});
    f.ret();
  }
  auto f = mb.func("main", {});
  const Reg a = f.reg();
  f.make_sym_int(a, "a", 0, 100);
  f.call_void("f", {a});
  f.call_void("f", {f.addi(a, 5)});
  f.ret(f.ci(0));
  return mb.build();
}

stats::Predicate param_pred(monitor::LocId loc, const std::string& name,
                            stats::PredKind pk, double threshold, double lcb,
                            double score) {
  stats::Predicate p;
  p.loc = loc;
  p.var = name + " FUNCPARAM";
  p.kind = monitor::VarKind::kParam;
  p.pk = pk;
  p.threshold = threshold;
  p.score_lcb = lcb;
  p.score = score;
  return p;
}

TEST(FrontierRanker, GapsPerPredicateInScoreOrder) {
  const ir::Module m = ranker_module();
  using stats::PredKind;
  const std::vector<stats::Predicate> preds = {
      // Near miss: a < 3.5 against observations 12 and 17.
      param_pred(enter(m, "f"), "a", PredKind::kLt, 3.5, 0.8, 0.85),
      // Unreached: never() is not called.
      param_pred(enter(m, "never"), "b", PredKind::kGt, 0.5, 0.7, 0.7),
      // Satisfied by the second call (17 > 15.5).
      param_pred(enter(m, "f"), "a", PredKind::kGt, 15.5, 0.9, 0.9),
      // Same score_lcb as the near miss, higher score: ranks before it.
      param_pred(enter(m, "f"), "a", PredKind::kGt, 30.5, 0.8, 0.95),
      // Gated out: below the score_lcb floor, negative evidence, off path.
      param_pred(enter(m, "f"), "a", PredKind::kGt, 1.5, 0.3, 0.9),
      param_pred(enter(m, "f"), "a", PredKind::kUnreached, 0, 0.9, 0.9),
      param_pred(monitor::leave_loc(m.find_function("f")), "a", PredKind::kGt,
                 1.5, 0.9, 0.9),
  };
  const FrontierRanker ranker(
      m, {.nodes = {enter(m, "main"), enter(m, "f"), enter(m, "never")}},
      preds, {});
  ASSERT_EQ(ranker.predicates().size(), 4u);
  EXPECT_EQ(ranker.predicates()[0].threshold, 15.5);
  EXPECT_EQ(ranker.predicates()[1].threshold, 30.5);
  EXPECT_EQ(ranker.predicates()[2].threshold, 3.5);
  EXPECT_EQ(ranker.predicates()[3].threshold, 0.5);

  interp::RuntimeInput in;
  in.sym_ints["a"] = 12;
  const std::vector<double> gaps = ranker.gaps(in);
  ASSERT_EQ(gaps.size(), 4u);
  EXPECT_EQ(gaps[0], 0.0);                  // 17 > 15.5 holds
  EXPECT_EQ(gaps[1], 1.0 + (30.5 - 17.0));  // closest observation wins
  EXPECT_EQ(gaps[2], 1.0 + (12.0 - 3.5));
  EXPECT_EQ(gaps[3], std::numeric_limits<double>::infinity());
}

// The gaps as the ranker computed them before it sampled its probes
// directly: a replay under the monitor at sampling rate 1, whose whole log
// is then searched for samples of each predicate's variable by name.
std::vector<double> monitored_gaps(const ir::Module& m,
                                   const std::vector<stats::Predicate>& preds,
                                   const interp::RuntimeInput& in) {
  std::vector<double> out(preds.size(),
                          std::numeric_limits<double>::infinity());
  if (preds.empty()) return out;
  const monitor::RunLog log =
      monitor::run_monitored(m, in, {.sampling_rate = 1.0}, Rng(0), 0).log;
  for (const monitor::LogRecord& rec : log.records) {
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const stats::Predicate& p = preds[i];
      const auto name = monitor::var_key_name(p.var, p.kind, p.is_len);
      if (p.loc != rec.loc || out[i] == 0.0 || !name) continue;
      for (const monitor::VarSample& v : rec.vars) {
        if (v.kind != p.kind || v.is_len != p.is_len || v.name != *name) {
          continue;
        }
        out[i] = p.holds(v.value)
                     ? 0.0
                     : std::min(out[i], 1.0 + std::abs(v.value - p.threshold));
      }
    }
  }
  return out;
}

// Ranks with a FrontierRanker and checks every input it is asked about
// against monitored_gaps.
class CheckedRanker final : public concolic::FrontierRanker {
 public:
  CheckedRanker(const ir::Module& m, const core::FrontierRanker& ranker)
      : m_(m), ranker_(ranker) {}

  std::vector<double> gaps(const interp::RuntimeInput& in) const override {
    std::vector<double> got = ranker_.gaps(in);
    EXPECT_EQ(got, monitored_gaps(m_, ranker_.predicates(), in))
        << concolic::input_key(in);
    ++checked_;
    return got;
  }
  std::size_t checked() const { return checked_; }

 private:
  const ir::Module& m_;
  const core::FrontierRanker& ranker_;
  mutable std::size_t checked_{0};
};

// Runs `app`'s concolic lane as the engine's one-lane concolic race does,
// its frontier ordered through a CheckedRanker; returns the inputs checked.
std::size_t check_concolic_lane(const apps::AppSpec& app, EngineOptions o) {
  o.engines = {};  // statistics and candidates only
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.collect_logs(app.workload);
  const EngineResult res = engine.run();
  if (res.construction.candidates.empty()) return 0;
  const FrontierRanker ranker(app.module, res.construction.candidates[0],
                              res.predicates, o.guidance);
  const CheckedRanker checked(app.module, ranker);
  concolic::ConcolicOptions co;
  co.exec = o.exec;
  co.exec.max_seconds = o.candidate_timeout_seconds;
  co.exec.target_function =
      app.module.function(monitor::loc_function(res.construction.failure))
          .name;
  co.seed = derive_seed(o.exec.seed, 2000);
  symexec::SharedBudget budget;
  budget.max_instructions = o.exec.max_instructions;
  solver::SharedQueryCache queries;
  concolic::ConcolicExecutor ce(app.module, app.sym_spec, co);
  ce.set_ranker(&checked);
  ce.set_shared_budget(&budget);
  ce.set_shared_solver_cache(&queries);
  ce.run();
  return checked.checked();
}

// The concolic-fleet benchmark's settings: 100 + 100 logs at 30% sampling.
EngineOptions fleet_options(std::uint64_t seed) {
  EngineOptions o;
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = 100;
  o.target_faulty_logs = 100;
  o.candidate_timeout_seconds = 60.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.exec.max_instructions = 400'000'000;
  o.seed = seed;
  return o;
}

TEST(FrontierRanker, GapsEqualTheMonitoredReplayOnEveryDerivedInput) {
  fuzz::GenOptions g;
  g.max_chain = 8;
  g.max_segments = 8;
  g.fault_probability = 1.0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const std::uint64_t s = derive_seed(0xfa57, i);
    const fuzz::GeneratedProgram p = fuzz::generate_program(s, g);
    checked += check_concolic_lane(p.app, fleet_options(derive_seed(s, 1)));
  }
  for (const char* name : {"fig2", "ctree"}) {
    checked += check_concolic_lane(apps::make_app(name), fleet_options(7));
  }
  EXPECT_GT(checked, 500u);
}

// main calls f(a) and f(a + 5), then g(a, 40) with both parameters named x.
ir::Module repeated_param_module() {
  ModuleBuilder mb("repeated");
  {
    auto f = mb.func("f", {"a"});
    f.ret();
  }
  {
    auto f = mb.func("g", {"x", "x"});
    f.ret(f.ci(1));
  }
  auto f = mb.func("main", {});
  const Reg a = f.reg();
  f.make_sym_int(a, "a", 0, 100);
  f.call_void("f", {a});
  f.call_void("f", {f.addi(a, 5)});
  f.call("g", {a, f.ci(40)});
  f.ret(f.ci(0));
  return mb.build();
}

TEST(FrontierRanker, GapsEqualTheMonitoredReplayWhenTheRunStopsEarly) {
  const ir::Module m = repeated_param_module();
  using stats::PredKind;
  const monitor::LocId f_enter = enter(m, "f");
  // Both hold at the first call of f, so the replay stops there.
  const std::vector<stats::Predicate> preds = {
      param_pred(f_enter, "a", PredKind::kGt, 10.5, 0.9, 0.9),
      param_pred(f_enter, "a", PredKind::kLt, 50.5, 0.8, 0.8)};
  const FrontierRanker ranker(m, {.nodes = {f_enter}}, preds, {});
  interp::RuntimeInput in;
  in.sym_ints["a"] = 12;
  EXPECT_EQ(ranker.gaps(in), (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(ranker.gaps(in), monitored_gaps(m, ranker.predicates(), in));
  in.sym_ints["a"] = 3;  // the first holds only at the second call of f
  EXPECT_EQ(ranker.gaps(in), monitored_gaps(m, ranker.predicates(), in));
}

TEST(FrontierRanker, GapsEqualTheMonitoredReplayOverARepeatedParamName) {
  const ir::Module m = repeated_param_module();
  using stats::PredKind;
  const monitor::LocId g_enter = enter(m, "g");
  const monitor::LocId g_leave = monitor::leave_loc(m.find_function("g"));
  std::vector<stats::Predicate> preds = {
      param_pred(g_enter, "x", PredKind::kGt, 30.5, 0.9, 0.9),
      param_pred(g_enter, "x", PredKind::kLt, 2.5, 0.8, 0.8),
      param_pred(g_leave, "x", PredKind::kLt, 1.5, 0.7, 0.7)};
  stats::Predicate ret = param_pred(g_leave, "ret", PredKind::kGt, 4.5, 0.6,
                                    0.6);
  ret.var = "ret RETURN";
  ret.kind = monitor::VarKind::kReturn;
  preds.push_back(ret);
  const FrontierRanker ranker(m, {.nodes = {g_enter, g_leave}}, preds, {});
  interp::RuntimeInput in;
  in.sym_ints["a"] = 3;
  const std::vector<double> gaps = ranker.gaps(in);
  // x > 30.5 holds for the second x (40); x < 2.5 is closest at the first.
  EXPECT_EQ(gaps, (std::vector<double>{0.0, 1.5, 2.5, 4.5}));
  EXPECT_EQ(gaps, monitored_gaps(m, ranker.predicates(), in));
}

TEST(FrontierRanker, NoPredicatesWithoutInjection) {
  const ir::Module m = ranker_module();
  GuidanceOptions opts;
  opts.inject_predicates = false;
  const FrontierRanker ranker(
      m, {.nodes = {enter(m, "f")}},
      {param_pred(enter(m, "f"), "a", stats::PredKind::kGt, 1.5, 0.9, 0.9)},
      opts);
  EXPECT_TRUE(ranker.predicates().empty());
  EXPECT_TRUE(ranker.gaps({}).empty());
}

}  // namespace
}  // namespace statsym::core

namespace statsym::core {
namespace {

// Reports render the paper-style artifacts without crashing on edge cases.
TEST(Report, FormatsPredicatesAndCandidates) {
  const ir::Module m = chain_module();
  stats::Predicate p;
  p.loc = enter(m, "vuln");
  p.var = "len(s FUNCPARAM)";
  p.pk = stats::PredKind::kGt;
  p.threshold = 536.5;
  p.score = 1.0;
  p.score_lcb = 1.0;
  const std::string preds = format_predicates(m, {p}, 10);
  EXPECT_NE(preds.find("len(s FUNCPARAM) > 536.5"), std::string::npos);
  EXPECT_NE(preds.find("vuln():enter"), std::string::npos);

  stats::PathConstruction pc;
  pc.failure = enter(m, "vuln");
  pc.skeleton = {enter(m, "main"), enter(m, "vuln")};
  stats::CandidatePath cand;
  cand.nodes = pc.skeleton;
  cand.avg_score = 0.5;
  pc.candidates.push_back(cand);
  const std::string cands = format_candidates(m, pc);
  EXPECT_NE(cands.find("Failure point: vuln():enter"), std::string::npos);
  EXPECT_NE(cands.find("Skeleton (2 nodes)"), std::string::npos);

  const std::string locs = format_locations(m);
  EXPECT_NE(locs.find("main():enter"), std::string::npos);
}

TEST(Report, FormatsVulnWithLongInputTruncated) {
  const ir::Module m = chain_module();
  symexec::VulnPath v;
  v.kind = interp::FaultKind::kOobStore;
  v.function = "vuln";
  v.input.argv = {"prog", std::string(600, 'A')};
  const std::string out = format_vuln(m, v);
  EXPECT_NE(out.find("oob-store in vuln()"), std::string::npos);
  EXPECT_NE(out.find("len 600"), std::string::npos);
  EXPECT_LT(out.size(), 700u);  // long args are elided, not dumped
}

TEST(Report, FormatsVulnEnvInputs) {
  const ir::Module m = chain_module();
  symexec::VulnPath v;
  v.kind = interp::FaultKind::kOobStore;
  v.function = "vuln";
  v.input.argv = {"prog"};
  v.input.env["STONESOUP_STACK_BUFFER_64"] = std::string(80, 'B');
  const std::string out = format_vuln(m, v);
  EXPECT_NE(out.find("env STONESOUP_STACK_BUFFER_64 len 80"),
            std::string::npos);
}

TEST(Report, FormatsDetours) {
  const ir::Module m = chain_module();
  stats::PathConstruction pc;
  pc.failure = enter(m, "vuln");
  pc.skeleton = {enter(m, "main"), enter(m, "a"), enter(m, "vuln")};
  stats::Detour d;
  d.start_idx = 0;
  d.end_idx = 1;
  d.via = {enter(m, "b")};
  d.avg_score = 0.75;
  pc.detours.push_back(d);
  const std::string out = format_candidates(m, pc);
  EXPECT_NE(out.find("Detours: 1"), std::string::npos);
  EXPECT_NE(out.find("forward 0->1 score 0.75"), std::string::npos);
  EXPECT_NE(out.find("via b():enter"), std::string::npos);
}

TEST(Report, FormatsSolverStats) {
  solver::SolverStats s;
  s.queries = 10;
  s.sat = 6;
  s.unsat = 4;
  s.slices = 20;
  s.multi_slice_queries = 3;
  s.cache_hits = 8;
  s.shared_cache_hits = 4;
  s.solves = 6;
  s.solve_seconds = 0.5;
  const std::string out = format_solver_stats(s);
  EXPECT_NE(out.find("10 queries (6 sat, 4 unsat, 0 unknown)"),
            std::string::npos);
  EXPECT_NE(out.find("20 slices (3 queries split)"), std::string::npos);
  EXPECT_NE(out.find("local cache: 8 hits (40.0% of slices)"),
            std::string::npos);
  // Shared hits and solves print as their schedule-invariant sum.
  EXPECT_NE(out.find("10 decided"), std::string::npos);

  // Degenerate: no slices means a 0% fast-path rate, not a division crash.
  const std::string empty = format_solver_stats(solver::SolverStats{});
  EXPECT_NE(empty.find("(0.0% of slices)"), std::string::npos);
}

TEST(Report, FormatsMetricsTable) {
  obs::MetricsRegistry reg;
  reg.add("engine.states_forked", 42);
  reg.set_gauge("engine.exec_wall_s", 1.25);
  reg.observe("solver.query_s", 0.5);
  reg.observe("solver.query_s", 1.5);
  const std::string out = format_metrics(reg);
  EXPECT_NE(out.find("engine.states_forked"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("1.25"), std::string::npos);
  EXPECT_NE(out.find("2 obs, min 0.500, mean 1.000, max 1.500"),
            std::string::npos);
}

}  // namespace
}  // namespace statsym::core
