// Tests for the whole-program static analysis layer (src/analysis/):
// CFG construction, dominators and def-use chains; the interval abstract
// interpreter (widening on loops, branch decisions, definite-bug findings);
// golden ProgramFacts dumps for the four evaluation apps; and the two
// engine-side consumers — symbolic-branch pruning in the executor and
// candidate pre-filtering against statically-unreachable functions.
//
// Regenerate the facts goldens after an intentional analysis change with:
//   STATSYM_REGOLD=1 ./build/tests/analysis_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/cfg.h"
#include "analysis/facts.h"
#include "apps/registry.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "statsym/engine.h"
#include "symexec/executor.h"

namespace statsym::analysis {
namespace {

namespace fs = std::filesystem;

using ir::BinOp;
using ir::ModuleBuilder;
using ir::Reg;

// main with a diamond: b0 -> {b1, b2} -> b3.
ir::Module diamond() {
  ModuleBuilder mb("diamond");
  auto f = mb.func("main", {});
  const Reg x = f.reg();
  f.make_sym_int(x, "x", 0, 15);
  const auto then_b = f.block();
  const auto else_b = f.block();
  const auto join = f.block();
  f.br(f.gei(x, 8), then_b, else_b);
  f.at(then_b);
  f.jmp(join);
  f.at(else_b);
  f.jmp(join);
  f.at(join);
  f.ret(x);
  return mb.build();
}

// main with a counted loop: i = 0; while (i < 10) ++i; return i.
ir::Module counted_loop() {
  ModuleBuilder mb("loop");
  auto f = mb.func("main", {});
  const Reg i = f.reg();
  f.assign(i, f.ci(0));
  const auto head = f.block();
  const auto body = f.block();
  const auto exit = f.block();
  f.jmp(head);
  f.at(head);
  f.br(f.lti(i, 10), body, exit);
  f.at(body);
  f.assign(i, f.addi(i, 1));
  f.jmp(head);
  f.at(exit);
  f.ret(i);
  return mb.build();
}

// --- CFG -----------------------------------------------------------------

TEST(Cfg, DiamondEdgesAndReachability) {
  const ir::Module m = diamond();
  const Cfg cfg = build_cfg(m.function(m.entry()));
  ASSERT_EQ(cfg.num_blocks(), 4u);
  EXPECT_EQ(cfg.succs[0], (std::vector<ir::BlockId>{1, 2}));
  EXPECT_EQ(cfg.succs[1], (std::vector<ir::BlockId>{3}));
  EXPECT_EQ(cfg.succs[2], (std::vector<ir::BlockId>{3}));
  EXPECT_TRUE(cfg.succs[3].empty());
  EXPECT_EQ(cfg.preds[3], (std::vector<ir::BlockId>{1, 2}));
  for (std::size_t b = 0; b < 4; ++b) EXPECT_TRUE(cfg.reachable[b]);
  // RPO starts at the entry and visits every reachable block once.
  ASSERT_EQ(cfg.rpo.size(), 4u);
  EXPECT_EQ(cfg.rpo.front(), 0);
  EXPECT_EQ(cfg.rpo_index[0], 0);
}

TEST(Cfg, DiamondDominators) {
  const ir::Module m = diamond();
  const Cfg cfg = build_cfg(m.function(m.entry()));
  // Entry dominates everything; neither arm dominates the join.
  for (ir::BlockId b = 0; b < 4; ++b) EXPECT_TRUE(cfg.dominates(0, b));
  EXPECT_FALSE(cfg.dominates(1, 3));
  EXPECT_FALSE(cfg.dominates(2, 3));
  EXPECT_TRUE(cfg.dominates(3, 3));
  EXPECT_EQ(cfg.idom[1], 0);
  EXPECT_EQ(cfg.idom[2], 0);
  EXPECT_EQ(cfg.idom[3], 0);
}

TEST(Cfg, LoopEdgeIsTheBackEdge) {
  const ir::Module m = counted_loop();
  const Cfg cfg = build_cfg(m.function(m.entry()));
  // body -> head is the retreating edge; all forward edges are not.
  EXPECT_TRUE(cfg.is_loop_edge(2, 1));
  EXPECT_FALSE(cfg.is_loop_edge(0, 1));
  EXPECT_FALSE(cfg.is_loop_edge(1, 2));
  EXPECT_FALSE(cfg.is_loop_edge(1, 3));
  // The loop head dominates both the body and the exit.
  EXPECT_TRUE(cfg.dominates(1, 2));
  EXPECT_TRUE(cfg.dominates(1, 3));
}

// --- def-use chains ------------------------------------------------------

TEST(DefUse, ChainsInProgramOrder) {
  const ir::Module m = counted_loop();
  const ir::Function& fn = m.function(m.entry());
  const DefUse du = build_def_use(fn);
  // r0 is i: defined at the initial assign and the loop increment, used by
  // the loop condition, the increment and the final ret.
  ASSERT_GT(du.defs.size(), 0u);
  const auto& defs = du.defs[0];
  const auto& uses = du.uses[0];
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].block, 0);
  EXPECT_EQ(defs[1].block, 2);
  ASSERT_EQ(uses.size(), 3u);
  EXPECT_EQ(uses[0].block, 1);  // i < 10
  EXPECT_EQ(uses[1].block, 2);  // i + 1
  EXPECT_EQ(uses[2].block, 3);  // ret i
  // Sites are in (block, index) program order.
  for (std::size_t k = 1; k < uses.size(); ++k) {
    EXPECT_TRUE(uses[k - 1].block < uses[k].block ||
                (uses[k - 1].block == uses[k].block &&
                 uses[k - 1].index < uses[k].index));
  }
}

TEST(DefUse, ParametersAreImplicitlyDefined) {
  ModuleBuilder mb("p");
  {
    auto f = mb.func("id", {"x"});
    f.ret(f.param(0));
  }
  {
    auto f = mb.func("main", {});
    f.call("id", {f.ci(3)});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  const DefUse du = build_def_use(m.function(0));
  EXPECT_TRUE(du.defs[0].empty());  // no explicit def site for the param
  ASSERT_EQ(du.uses[0].size(), 1u);
  EXPECT_EQ(du.uses[0][0].block, 0);
}

// --- abstract interpretation ---------------------------------------------

TEST(Facts, WideningOnCountedLoopStaysSoundAndTerminates) {
  const ir::Module m = counted_loop();
  const ProgramFacts facts = analyze(m);
  const ir::FuncId f = m.entry();
  // Soundness at the loop head: every concrete value of i (0..10) must be
  // inside the entry interval.
  const solver::Interval head = facts.reg_interval(f, 1, 0);
  for (std::int64_t v = 0; v <= 10; ++v) EXPECT_TRUE(head.contains(v));
  // The exit edge refines i: the loop leaves with i >= 10.
  const solver::Interval exit = facts.reg_interval(f, 3, 0);
  EXPECT_GE(exit.lo, 10);
  EXPECT_TRUE(exit.contains(10));
  // Nothing about this module is a definite bug.
  EXPECT_TRUE(facts.findings().empty());
  EXPECT_EQ(facts.num_unreachable_blocks(), 0u);
}

TEST(Facts, SymbolicDomainDecidesBranch) {
  // x in [0, 15] compared against 100: statically always-false, and the
  // then-block is semantically unreachable even though the structural
  // verifier (which ignores value flow) accepts the module.
  ModuleBuilder mb("decided");
  auto f = mb.func("main", {});
  const Reg x = f.reg();
  f.make_sym_int(x, "x", 0, 15);
  const auto dead = f.block();
  const auto live = f.block();
  f.br(f.gei(x, 100), dead, live);
  f.at(dead);
  f.ret(f.ci(1));
  f.at(live);
  f.ret(x);
  const ir::Module m = mb.build();
  const ProgramFacts facts = analyze(m);
  EXPECT_EQ(facts.branch(m.entry(), 0), BranchFact::kAlwaysFalse);
  EXPECT_EQ(facts.num_decided_branches(), 1u);
  EXPECT_FALSE(facts.block_reachable(m.entry(), 1));
  EXPECT_TRUE(facts.block_reachable(m.entry(), 2));
  EXPECT_EQ(facts.num_unreachable_blocks(), 1u);
}

TEST(Facts, DefiniteDivByZeroAndOobStoreAreFound) {
  // The two definite bugs sit on separate arms of an undecided branch: a
  // second bug *after* a definitely-faulting instruction would itself be
  // unreachable (execution never gets past the first fault).
  ModuleBuilder mb("definite");
  auto f = mb.func("main", {});
  const Reg x = f.reg();
  f.make_sym_int(x, "x", 1, 9);
  const auto left = f.block();
  const auto right = f.block();
  f.br(f.gei(x, 5), left, right);
  f.at(left);
  const Reg buf = f.alloca_buf(4);
  f.store(buf, f.ci(7), x);              // index 7 outside [0, 4)
  f.ret(f.ci(0));
  f.at(right);
  f.bin(BinOp::kDiv, x, f.ci(0));        // divisor pinned to zero
  f.ret(f.ci(0));
  const ir::Module m = mb.build();
  const ProgramFacts facts = analyze(m);
  ASSERT_EQ(facts.findings().size(), 2u);
  EXPECT_EQ(facts.findings()[0].kind, FindingKind::kOobStore);
  EXPECT_EQ(facts.findings()[1].kind, FindingKind::kDivByZero);
  // Every finding names a reachable site in the entry function.
  for (const Finding& fi : facts.findings()) {
    EXPECT_EQ(fi.func, m.entry());
    EXPECT_TRUE(facts.block_reachable(fi.func, fi.site.block));
  }
}

TEST(Facts, ConditionalFaultIsNotDefinite) {
  // Faults only when x == 7: a sound analysis must not claim a definite bug.
  ModuleBuilder mb("conditional");
  auto f = mb.func("main", {});
  const Reg x = f.reg();
  f.make_sym_int(x, "x", 0, 15);
  const auto bad = f.block();
  const auto ok = f.block();
  f.br(f.eqi(x, 7), bad, ok);
  f.at(bad);
  f.assert_true(f.ci(0));
  f.ret();
  f.at(ok);
  f.ret(f.ci(0));
  const ir::Module m = mb.build();
  const ProgramFacts facts = analyze(m);
  // The assert IS definite at its site (condition pinned to 0) — but only
  // because the site is genuinely reachable (x == 7 happens). What the
  // analysis may never do is mark the guarded block unreachable.
  EXPECT_TRUE(facts.block_reachable(m.entry(), 1));
  EXPECT_EQ(facts.branch(m.entry(), 0), BranchFact::kUndecided);
}

TEST(Facts, UncalledFunctionIsUnreachable) {
  ModuleBuilder mb("deadfn");
  {
    auto f = mb.func("never", {"x"});
    f.ret(f.addi(f.param(0), 1));
  }
  {
    auto f = mb.func("main", {});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  const ProgramFacts facts = analyze(m);
  EXPECT_FALSE(facts.function_reachable(0));
  EXPECT_TRUE(facts.function_reachable(m.entry()));
  EXPECT_FALSE(facts.block_reachable(0, 0));
}

// --- golden ProgramFacts dumps -------------------------------------------

fs::path facts_golden_path(const std::string& name) {
  return fs::path(STATSYM_GOLDEN_DIR) / (name + ".facts.txt");
}

void check_facts_golden(const std::string& name, const apps::AppSpec& app) {
  const std::string dump = analyze(app.module).to_string(app.module);
  const fs::path p = facts_golden_path(name);
  if (std::getenv("STATSYM_REGOLD") != nullptr) {
    std::ofstream os(p);
    ASSERT_TRUE(os) << "cannot write " << p;
    os << dump;
    return;
  }
  std::ifstream in(p);
  ASSERT_TRUE(in) << "missing golden " << p
                  << " (run with STATSYM_REGOLD=1 to create it)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), dump)
      << name << ": ProgramFacts drifted from the checked-in golden; if "
      << "the change is intentional, regenerate with STATSYM_REGOLD=1";
}

TEST(FactsGolden, Fig2) { check_facts_golden("fig2", apps::make_fig2()); }
TEST(FactsGolden, Polymorph) {
  check_facts_golden("polymorph", apps::make_polymorph());
}
TEST(FactsGolden, Ctree) { check_facts_golden("ctree", apps::make_ctree()); }
TEST(FactsGolden, Grep) { check_facts_golden("grep", apps::make_grep()); }

// --- consumer 1: executor branch pruning ---------------------------------

// Needle search on x behind redundant bound checks on a *different*
// symbolic value g (a sanity-checked config knob): g in [0, 15] re-checked
// against 100 at every layer. The checks are statically always-false, and
// because g is independent of x their negations form a separate slice in
// every canonical solve — pruning them shrinks the witness solve itself.
ir::Module redundant_guards() {
  ModuleBuilder mb("guards");
  auto f = mb.func("main", {});
  const Reg g = f.reg();
  const Reg x = f.reg();
  f.make_sym_int(g, "g", 0, 15);
  f.make_sym_int(x, "x", 0, 15);
  ir::BlockId cur = f.current_block();
  for (int layer = 0; layer < 4; ++layer) {
    const auto oob = f.block();
    const auto next = f.block();
    f.at(cur);
    f.br(f.gei(g, 100), oob, next);  // statically always-false
    f.at(oob);
    f.ret(f.ci(1));
    cur = next;
  }
  f.at(cur);
  const auto bad = f.block();
  const auto ok = f.block();
  f.br(f.eqi(x, 7), bad, ok);
  f.at(bad);
  f.assert_true(f.ci(0));
  f.ret();
  f.at(ok);
  f.ret(f.ci(0));
  return mb.build();
}

TEST(ExecutorPrune, StaticallyDecidedBranchesSkipTheSolver) {
  const ir::Module m = redundant_guards();
  const ProgramFacts facts = analyze(m);
  ASSERT_EQ(facts.num_decided_branches(), 4u);

  symexec::SymExecutor plain(m, {}, {});
  const auto base = plain.run();
  ASSERT_EQ(base.termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(base.solver_stats.static_prunes, 0u);

  symexec::SymExecutor pruned(m, {}, {});
  pruned.set_facts(&facts);
  const auto fast = pruned.run();
  // Same verdict, same witness, fewer solver interactions.
  ASSERT_EQ(fast.termination, symexec::Termination::kFoundFault);
  ASSERT_TRUE(fast.vuln.has_value() && base.vuln.has_value());
  EXPECT_EQ(fast.vuln->input.sym_ints.at("x"),
            base.vuln->input.sym_ints.at("x"));
  EXPECT_EQ(fast.stats.paths_explored, base.stats.paths_explored);
  EXPECT_GT(fast.solver_stats.static_prunes, 0u);
  // The pruned constraints are implied, so they stay out of the canonical
  // constraint list: the witness solve decides strictly fewer slices.
  EXPECT_LT(fast.solver_stats.slices, base.solver_stats.slices);
  EXPECT_LE(fast.solver_stats.solves, base.solver_stats.solves);
}

TEST(ExecutorPrune, PrunedRunStillReplaysConcretely) {
  const ir::Module m = redundant_guards();
  const ProgramFacts facts = analyze(m);
  symexec::SymExecutor ex(m, {}, {});
  ex.set_facts(&facts);
  const auto r = ex.run();
  ASSERT_TRUE(r.vuln.has_value());
  interp::Interpreter replay(m, r.vuln->input);
  EXPECT_EQ(replay.run().outcome, interp::RunOutcome::kFault);
}

// --- consumer 2: candidate pre-filter ------------------------------------

// Two builds with an identical function table. In the "old" build main
// routes through mid() to reach vul(); in the "new" one it calls vul()
// directly and mid() is statically unreachable. Logs collected against the
// old build are exactly the stale-log scenario the pre-filter handles:
// ranked candidates transit mid(), which the analysis proves dead.
ir::Module routed_module(bool through_mid) {
  ModuleBuilder mb(through_mid ? "routed-old" : "routed-new");
  {
    auto f = mb.func("vul", {"x"});
    const auto bad = f.block();
    const auto ok = f.block();
    f.br(f.gei(f.param(0), 12), bad, ok);
    f.at(bad);
    f.assert_true(f.ci(0));
    f.ret();
    f.at(ok);
    f.ret(f.ci(0));
  }
  {
    auto f = mb.func("mid", {"x"});
    f.call("vul", {f.param(0)});
    f.ret(f.ci(0));
  }
  {
    auto f = mb.func("main", {});
    const Reg x = f.reg();
    f.make_sym_int(x, "x", 0, 15);
    if (through_mid) {
      f.call("mid", {x});
    } else {
      f.call("vul", {x});
    }
    f.ret(f.ci(0));
  }
  return mb.build();
}

core::EngineOptions prune_opts(std::size_t threads) {
  core::EngineOptions o;
  o.monitor.sampling_rate = 1.0;
  o.target_correct_logs = 30;
  o.target_faulty_logs = 30;
  o.candidate_timeout_seconds = 30.0;
  o.num_threads = threads;
  o.seed = 7;
  return o;
}

core::WorkloadGen routed_workload() {
  return [](Rng& rng) {
    interp::RuntimeInput in;
    in.sym_ints["x"] = rng.uniform(0, 15);
    return in;
  };
}

TEST(CandidatePrune, StaleLogsCandidatesAreDroppedDeterministically) {
  const ir::Module old_m = routed_module(true);
  const ir::Module new_m = routed_module(false);

  core::StatSymEngine collector(old_m, {}, prune_opts(1));
  collector.collect_logs(routed_workload(), /*keep_logs=*/true);
  const std::vector<monitor::RunLog> logs = collector.logs();
  ASSERT_FALSE(logs.empty());

  auto run_with = [&](std::size_t threads, obs::Tracer* tracer) {
    core::StatSymEngine engine(new_m, {}, prune_opts(threads));
    if (tracer != nullptr) engine.set_tracer(tracer);
    engine.use_logs(logs);
    return engine.run();
  };

  obs::Tracer t1;
  obs::Tracer t8;
  const core::EngineResult r1 = run_with(1, &t1);
  const core::EngineResult r8 = run_with(8, &t8);

  // Every candidate transits mid(), which the analysis proves unreachable
  // in the new build: all of them are pre-filtered, none is executed.
  EXPECT_GT(r1.candidates_pruned, 0u);
  EXPECT_EQ(r1.candidates_pruned, r1.candidates_tried);
  EXPECT_FALSE(r1.found);
  EXPECT_EQ(r1.candidates_pruned, r8.candidates_pruned);
  EXPECT_EQ(r1.found, r8.found);

  // The kStaticPrune candidate events survive rank-order stitching and the
  // whole trace is jobs-invariant.
  const std::string j1 = t1.to_jsonl();
  EXPECT_EQ(j1, t8.to_jsonl());
  EXPECT_NE(j1.find("static-prune"), std::string::npos);
}

TEST(CandidatePrune, DisablingAnalysisKeepsCandidatesAlive) {
  const ir::Module old_m = routed_module(true);
  const ir::Module new_m = routed_module(false);

  core::StatSymEngine collector(old_m, {}, prune_opts(1));
  collector.collect_logs(routed_workload(), /*keep_logs=*/true);

  core::EngineOptions off = prune_opts(1);
  off.static_analysis = false;
  core::StatSymEngine engine(new_m, {}, off);
  engine.use_logs(collector.logs());
  const core::EngineResult res = engine.run();
  EXPECT_EQ(res.candidates_pruned, 0u);
}

}  // namespace
}  // namespace statsym::analysis
