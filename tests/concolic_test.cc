// Tests for the concolic backend: symexec follow mode (concrete-driven
// single-path execution with shadow-recorded decisions), the generational
// search driver, the statistics-ranked frontier, witness replayability, and
// lane-level resource controls.
#include <gtest/gtest.h>

#include <string>

#include "apps/registry.h"
#include "apps/stdlib.h"
#include "concolic/concolic.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "obs/trace.h"
#include "statsym/guidance.h"
#include "support/rng.h"
#include "symexec/executor.h"

namespace statsym::concolic {
namespace {

using ir::BinOp;
using ir::ModuleBuilder;
using ir::Reg;

// x symbolic in [0, 15]; faults iff x == 7.
ir::Module needle() {
  ModuleBuilder mb("needle");
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
  return mb.build();
}

// ---------------------------------------------------------------------------
// Follow mode in SymExecutor.

TEST(FollowMode, RunsExactlyOnePathAndRecordsDecisions) {
  const ir::Module m = needle();
  symexec::SymExecutor ex(m, {}, {});
  ex.set_follow_input({});  // x defaults to domain minimum 0: the benign side
  const auto r = ex.run();
  EXPECT_EQ(r.termination, symexec::Termination::kExhausted);
  EXPECT_EQ(r.stats.paths_explored, 1u);
  EXPECT_EQ(r.stats.forks, 0u);  // follow mode never forks
  ASSERT_EQ(ex.decisions().size(), 1u);
  // The taken side of the decision is on the followed path constraint list.
  EXPECT_EQ(ex.decisions()[0].pc_prefix, 0u);
  ASSERT_EQ(ex.followed_path().size(), 1u);
}

TEST(FollowMode, FaultingInputFaultsWithoutSolver) {
  const ir::Module m = needle();
  interp::RuntimeInput in;
  in.sym_ints["x"] = 7;
  symexec::SymExecutor ex(m, {}, {});
  ex.set_follow_input(in);
  const auto r = ex.run();
  ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
  ASSERT_TRUE(r.vuln.has_value());
  EXPECT_EQ(r.vuln->kind, interp::FaultKind::kAssertFail);
  ASSERT_TRUE(r.vuln->model_valid);
  // The witness is the concrete valuation itself: no validator query ran.
  EXPECT_EQ(r.vuln->input.sym_ints.at("x"), 7);
  EXPECT_EQ(r.solver_stats.queries, 0u);
}

TEST(FollowMode, AgreesWithInterpreterOnSymbolicBuffers) {
  // strcpy of argv[1] into an 8-byte buffer; follow a 10-char input.
  ModuleBuilder mb("bufovf");
  apps::emit_stdlib(mb);
  auto f = mb.func("main", {});
  const Reg dst = f.alloca_buf(8);
  f.call_void("__strcpy", {dst, f.arg(f.ci(1))});
  f.ret(f.ci(0));
  const ir::Module m = mb.build();
  symexec::SymInputSpec spec;
  spec.argv = {symexec::SymStr::fixed("p"), symexec::SymStr::sym("s", 32)};

  interp::RuntimeInput in;
  in.argv = {"p", "aaaaaaaaaa"};
  symexec::SymExecutor ex(m, spec, {});
  ex.set_follow_input(in);
  const auto r = ex.run();
  ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(r.vuln->kind, interp::FaultKind::kOobStore);

  interp::Interpreter replay(m, r.vuln->input);
  const auto out = replay.run();
  ASSERT_EQ(out.outcome, interp::RunOutcome::kFault);
  EXPECT_EQ(out.fault.kind, interp::FaultKind::kOobStore);
}

TEST(FollowMode, DivByZeroFollowsConcreteDenominator) {
  ModuleBuilder mb("dz");
  auto f = mb.func("main", {});
  const Reg d = f.reg();
  f.make_sym_int(d, "d", 0, 5);
  f.ret(f.bin(BinOp::kDiv, f.ci(10), d));
  const ir::Module m = mb.build();

  symexec::SymExecutor benign(m, {}, {});
  interp::RuntimeInput ok_in;
  ok_in.sym_ints["d"] = 3;
  benign.set_follow_input(ok_in);
  EXPECT_EQ(benign.run().termination, symexec::Termination::kExhausted);

  symexec::SymExecutor faulty(m, {}, {});
  faulty.set_follow_input({});  // d defaults to 0
  const auto r = faulty.run();
  ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(r.vuln->kind, interp::FaultKind::kDivByZero);
}

TEST(FollowMode, InterpreterAgreementOnRandomInputs) {
  // The follow path must match the interpreter verdict exactly for any
  // input — this is the property the cross-engine oracle relies on.
  const ir::Module m = needle();
  for (std::int64_t x = 0; x <= 15; ++x) {
    interp::RuntimeInput in;
    in.sym_ints["x"] = x;
    symexec::SymExecutor ex(m, {}, {});
    ex.set_follow_input(in);
    const bool sym_fault =
        ex.run().termination == symexec::Termination::kFoundFault;
    interp::Interpreter it(m, in);
    const bool conc_fault = it.run().outcome == interp::RunOutcome::kFault;
    EXPECT_EQ(sym_fault, conc_fault) << "x = " << x;
  }
}

// ---------------------------------------------------------------------------
// Generational-search driver.

TEST(FollowMode, SharedPoolRunsMatchFreshPools) {
  // The concolic lane runs every follow execution on one pool. Each run must
  // behave exactly as on a fresh pool: same result, same decisions (compared
  // structurally — ids differ between pools), and negation models that
  // rebuild the same next inputs.
  solver::SolverOptions neg_opts;
  neg_opts.max_query_seconds = 60.0;  // the node budget is the binding cap
  for (const char* name : {"fig2", "polymorph", "ctree", "grep", "thttpd"}) {
    SCOPED_TRACE(name);
    const apps::AppSpec app = apps::make_app(name);
    std::vector<interp::RuntimeInput> inputs{seed_input(app.sym_spec)};
    Rng rng(derive_seed(0xf011, inputs.size()));
    for (int i = 0; i < 5; ++i) inputs.push_back(app.workload(rng));

    solver::ExprPool shared;
    std::size_t negations = 0;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      SCOPED_TRACE("input " + std::to_string(k));
      symexec::SymExecutor a(app.module, app.sym_spec, {}, &shared);
      a.set_follow_input(inputs[k]);
      const symexec::ExecResult ra = a.run();
      symexec::SymExecutor b(app.module, app.sym_spec, {});
      b.set_follow_input(inputs[k]);
      const symexec::ExecResult rb = b.run();

      EXPECT_EQ(ra.termination, rb.termination);
      EXPECT_EQ(ra.stats.instructions, rb.stats.instructions);
      EXPECT_EQ(ra.stats.paths_explored, rb.stats.paths_explored);
      EXPECT_EQ(ra.solver_stats.queries, rb.solver_stats.queries);
      ASSERT_EQ(ra.vuln.has_value(), rb.vuln.has_value());
      if (ra.vuln.has_value()) {
        EXPECT_EQ(ra.vuln->kind, rb.vuln->kind);
        EXPECT_EQ(ra.vuln->function, rb.vuln->function);
        EXPECT_EQ(ra.vuln->detail, rb.vuln->detail);
        EXPECT_EQ(ra.vuln->trace, rb.vuln->trace);
        EXPECT_EQ(input_key(ra.vuln->input), input_key(rb.vuln->input));
      }

      const auto& da = a.decisions();
      const auto& db = b.decisions();
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da[i].pc_prefix, db[i].pc_prefix);
        EXPECT_EQ(shared.fp(da[i].taken), b.pool().fp(db[i].taken));
        EXPECT_EQ(shared.fp(da[i].negated), b.pool().fp(db[i].negated));
      }
      const auto& pa = a.followed_path();
      const auto& pb = b.followed_path();
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(shared.fp(pa[i]), b.pool().fp(pb[i]));
      }

      // A handful of negation queries per run, solved on each pool.
      for (std::size_t i = 0; i < da.size() && i < 6; ++i) {
        solver::Solver sa(shared, neg_opts);
        solver::Solver sb(b.pool(), neg_opts);
        const auto qa = sa.check_with(
            std::span<const solver::ExprId>(pa.data(), da[i].pc_prefix),
            da[i].negated);
        const auto qb = sb.check_with(
            std::span<const solver::ExprId>(pb.data(), db[i].pc_prefix),
            db[i].negated);
        ASSERT_EQ(qa.sat, qb.sat);
        EXPECT_EQ(input_key(a.input_from_model(qa.model)),
                  input_key(b.input_from_model(qb.model)));
        ++negations;
      }
    }
    EXPECT_GT(negations, 0u);
  }
}

TEST(Concolic, FindsTheNeedleByNegation) {
  const ir::Module m = needle();
  ConcolicExecutor ce(m, {}, {});
  const auto r = ce.run();
  ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
  ASSERT_TRUE(r.vuln.has_value());
  EXPECT_EQ(r.vuln->kind, interp::FaultKind::kAssertFail);
  EXPECT_EQ(r.vuln->input.sym_ints.at("x"), 7);
  // Generation 0 misses; exactly one negation reaches the fault.
  EXPECT_EQ(r.stats.runs, 2u);
  EXPECT_GE(r.stats.negations_sat, 1u);
}

TEST(Concolic, WitnessReplaysConcretely) {
  ModuleBuilder mb("bufovf");
  apps::emit_stdlib(mb);
  auto f = mb.func("main", {});
  const Reg dst = f.alloca_buf(8);
  f.call_void("__strcpy", {dst, f.arg(f.ci(1))});
  f.ret(f.ci(0));
  const ir::Module m = mb.build();
  symexec::SymInputSpec spec;
  spec.argv = {symexec::SymStr::fixed("p"), symexec::SymStr::sym("s", 32)};

  ConcolicExecutor ce(m, spec, {});
  const auto r = ce.run();
  ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(r.vuln->kind, interp::FaultKind::kOobStore);
  ASSERT_EQ(r.vuln->input.argv.size(), 2u);
  EXPECT_GE(r.vuln->input.argv[1].size(), 8u);
  interp::Interpreter replay(m, r.vuln->input);
  EXPECT_EQ(replay.run().outcome, interp::RunOutcome::kFault);
}

TEST(Concolic, ExhaustsCleanPrograms) {
  ModuleBuilder mb("clean");
  auto f = mb.func("main", {});
  const Reg x = f.reg();
  f.make_sym_int(x, "x", 0, 3);
  const auto a = f.block();
  const auto b = f.block();
  f.br(f.lti(x, 2), a, b);
  f.at(a);
  f.ret(f.ci(1));
  f.at(b);
  f.ret(f.ci(2));
  const ir::Module m = mb.build();
  ConcolicExecutor ce(m, {}, {});
  const auto r = ce.run();
  EXPECT_EQ(r.termination, symexec::Termination::kExhausted);
  EXPECT_FALSE(r.vuln.has_value());
  EXPECT_EQ(r.stats.runs, 2u);  // seed + the one negated branch
}

TEST(Concolic, DeterministicAcrossRepeatedRuns) {
  const ir::Module m = needle();
  ConcolicOptions opts;
  ConcolicExecutor a(m, {}, opts);
  ConcolicExecutor b(m, {}, opts);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.termination, rb.termination);
  ASSERT_TRUE(ra.vuln.has_value());
  ASSERT_TRUE(rb.vuln.has_value());
  EXPECT_EQ(input_key(ra.vuln->input), input_key(rb.vuln->input));
  EXPECT_EQ(ra.stats.runs, rb.stats.runs);
  EXPECT_EQ(ra.stats.negations_tried, rb.stats.negations_tried);
  EXPECT_EQ(ra.stats.negations_sat, rb.stats.negations_sat);
}

TEST(Concolic, MaxRunsCapsTheSearch) {
  // A loop over a symbolic bound keeps producing fresh inputs; a tiny
  // max_runs must stop the lane with a budget verdict.
  ModuleBuilder mb("loop");
  auto f = mb.func("main", {});
  const Reg n = f.reg();
  f.make_sym_int(n, "n", 0, 100);
  const Reg i = f.reg();
  const auto loop = f.block();
  const auto body = f.block();
  const auto done = f.block();
  f.assign(i, f.ci(0));
  f.jmp(loop);
  f.at(loop);
  f.br(f.ge(i, n), done, body);
  f.at(body);
  f.assign(i, f.addi(i, 1));
  f.jmp(loop);
  f.at(done);
  f.ret(i);
  const ir::Module m = mb.build();
  ConcolicOptions opts;
  opts.max_runs = 3;
  ConcolicExecutor ce(m, {}, opts);
  const auto r = ce.run();
  EXPECT_EQ(r.termination, symexec::Termination::kRunLimit);
  EXPECT_EQ(r.stats.runs, 3u);
}

// Six independent symbolic-int branches (chaff), then copy(argv[1]) into a
// 20-byte buffer: the overflow needs len(argv[1]) >= 20. Every chaff subset
// is a distinct input, and each run can lengthen the string by only one
// byte, so the FIFO generational search drowns in chaff before it reaches
// the fault depth.
ir::Module length_behind_chaff() {
  ModuleBuilder mb("chaff");
  apps::emit_stdlib(mb);
  {
    auto f = mb.func("copy", {"s"});
    const Reg dst = f.alloca_buf(20);
    f.call_void("__strcpy", {dst, f.param(0)});
    f.ret();
  }
  auto f = mb.func("main", {});
  const Reg acc = f.reg();
  f.assign(acc, f.ci(0));
  for (int j = 0; j < 6; ++j) {
    const Reg x = f.reg();
    f.make_sym_int(x, "c" + std::to_string(j), 0, 15);
    const auto lo = f.block();
    const auto hi = f.block();
    const auto join = f.block();
    f.br(f.lti(x, 8), lo, hi);
    f.at(lo);
    f.assign(acc, f.addi(acc, 1));
    f.jmp(join);
    f.at(hi);
    f.assign(acc, f.addi(acc, 2));
    f.jmp(join);
    f.at(join);
  }
  f.call_void("copy", {f.arg(f.ci(1))});
  f.ret(acc);
  return mb.build();
}

symexec::SymInputSpec chaff_spec() {
  symexec::SymInputSpec spec;
  spec.argv = {symexec::SymStr::fixed("p"), symexec::SymStr::sym("s", 32)};
  return spec;
}

// The ranker the engine would build from logs of this module:
// len(s) > 19.5 at copy():enter, on a main -> copy candidate path.
core::FrontierRanker chaff_ranker(const ir::Module& m) {
  const ir::FuncId copy = m.find_function("copy");
  stats::CandidatePath path;
  path.nodes = {monitor::enter_loc(m.find_function("main")),
                monitor::enter_loc(copy)};
  stats::Predicate p;
  p.loc = monitor::enter_loc(copy);
  p.var = "len(s FUNCPARAM)";
  p.kind = monitor::VarKind::kParam;
  p.is_len = true;
  p.pk = stats::PredKind::kGt;
  p.threshold = 19.5;
  p.score = p.score_lcb = 0.9;
  return core::FrontierRanker(m, path, {p}, {});
}

TEST(Concolic, RankedFrontierReachesTheLengthFaultBehindChaff) {
  const ir::Module m = length_behind_chaff();
  const core::FrontierRanker ranker = chaff_ranker(m);
  ASSERT_EQ(ranker.predicates().size(), 1u);

  ConcolicExecutor fifo(m, chaff_spec(), {});
  const auto rf = fifo.run();
  ConcolicExecutor ranked(m, chaff_spec(), {});
  ranked.set_ranker(&ranker);
  const auto rr = ranked.run();

  ASSERT_EQ(rr.termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(rr.vuln->kind, interp::FaultKind::kOobStore);
  EXPECT_GE(rr.vuln->input.argv[1].size(), 20u);
  interp::Interpreter replay(m, rr.vuln->input);
  EXPECT_EQ(replay.run().outcome, interp::RunOutcome::kFault);
  // One run per byte of the string, plus the seed.
  EXPECT_LE(rr.stats.runs, 30u);
  // The plain FIFO spends the whole run budget on chaff and misses.
  EXPECT_FALSE(rf.vuln.has_value());
  EXPECT_EQ(rf.termination, symexec::Termination::kRunLimit);
  EXPECT_EQ(rf.stats.runs, ConcolicOptions{}.max_runs);
}

TEST(Concolic, SharedBudgetStopsTheLane) {
  const ir::Module m = needle();
  symexec::SharedBudget budget;
  budget.max_instructions = 1;
  budget.instructions = 10;  // already exhausted by another lane
  ConcolicExecutor ce(m, {}, {});
  ce.set_shared_budget(&budget);
  const auto r = ce.run();
  EXPECT_EQ(r.termination, symexec::Termination::kInstrLimit);
}

TEST(Concolic, EmitsRunAndNegationTraceEvents) {
  const ir::Module m = needle();
  obs::TraceBuffer buf;
  ConcolicExecutor ce(m, {}, {});
  ce.set_trace(&buf);
  const auto r = ce.run();
  ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
  // Follow runs issue no solver query, so the lane's solver-query events
  // are exactly its negations.
  std::size_t runs = 0, negs = 0, faulted = 0;
  for (const auto& ev : buf.snapshot()) {
    if (ev.kind == obs::EventKind::kConcolicRun) {
      ++runs;
      if (ev.c != 0) ++faulted;
    }
    if (ev.kind == obs::EventKind::kSolverQuery) ++negs;
  }
  EXPECT_EQ(runs, r.stats.runs);
  EXPECT_EQ(negs, r.stats.negations_tried);
  EXPECT_EQ(faulted, 1u);  // exactly the winning run
}

TEST(Concolic, TargetFunctionFiltersFaults) {
  // Two bugs; only the targeted one counts as a finding.
  ModuleBuilder mb("two_bugs");
  {
    auto f = mb.func("early_bug", {"x"});
    const auto bad = f.block();
    const auto ok = f.block();
    f.br(f.eqi(f.param(0), 1), bad, ok);
    f.at(bad);
    f.assert_true(f.ci(0));
    f.ret();
    f.at(ok);
    f.ret();
  }
  {
    auto f = mb.func("late_bug", {"x"});
    const auto bad = f.block();
    const auto ok = f.block();
    f.br(f.eqi(f.param(0), 2), bad, ok);
    f.at(bad);
    f.assert_true(f.ci(0));
    f.ret();
    f.at(ok);
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    const Reg x = f.reg();
    f.make_sym_int(x, "x", 0, 3);
    f.call_void("early_bug", {x});
    f.call_void("late_bug", {x});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  ConcolicOptions opts;
  opts.exec.target_function = "late_bug";
  ConcolicExecutor ce(m, {}, opts);
  const auto r = ce.run();
  ASSERT_EQ(r.termination, symexec::Termination::kFoundFault);
  EXPECT_EQ(r.vuln->function, "late_bug");
  EXPECT_EQ(r.vuln->input.sym_ints.at("x"), 2);
}

// ---------------------------------------------------------------------------
// Helpers.

TEST(ConcolicHelpers, InputKeyDistinguishesInputs) {
  interp::RuntimeInput a;
  a.argv = {"p", "x"};
  interp::RuntimeInput b;
  b.argv = {"p", "y"};
  interp::RuntimeInput c;
  c.argv = {"p"};
  c.env["x"] = "";  // must not collide with argv entries
  EXPECT_NE(input_key(a), input_key(b));
  EXPECT_NE(input_key(a), input_key(c));
  EXPECT_EQ(input_key(a), input_key(a));
}

TEST(ConcolicHelpers, SeedInputMatchesSpecShape) {
  symexec::SymInputSpec spec;
  spec.argv = {symexec::SymStr::fixed("prog"), symexec::SymStr::sym("s", 16)};
  spec.env = {{"MODE", symexec::SymStr::fixed("fast")},
              {"KEY", symexec::SymStr::sym("k", 8)}};
  const interp::RuntimeInput in = seed_input(spec);
  ASSERT_EQ(in.argv.size(), 2u);
  EXPECT_EQ(in.argv[0], "prog");
  EXPECT_EQ(in.argv[1], "");
  EXPECT_EQ(in.env.at("MODE"), "fast");
  EXPECT_EQ(in.env.at("KEY"), "");
  EXPECT_TRUE(in.sym_ints.empty());
  EXPECT_TRUE(in.sym_bufs.empty());
}

}  // namespace
}  // namespace statsym::concolic
