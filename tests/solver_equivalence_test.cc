// Differential property test for the solver query-optimization layer:
// slicing and caching must be semantically invisible. Sliced `check`
// verdicts must equal unsliced verdicts — on randomly generated constraint
// systems and on the symbolic execution of ≥500 fuzz-generated programs
// (src/fuzz/program_gen.h), where every fork decision and fault validation
// flows through the solver.
#include <gtest/gtest.h>

#include "fuzz/program_gen.h"
#include "solver/solver.h"
#include "support/rng.h"
#include "symexec/executor.h"

namespace statsym {
namespace {

solver::SolverOptions baseline_opts() {
  solver::SolverOptions o;
  o.enable_slicing = false;
  return o;
}

TEST(SolverEquivalence, SlicedEqualsUnslicedOnRandomConstraintSystems) {
  // 500+ seeded constraint systems over several independent variable groups
  // (the shape slicing splits), decided by a sliced and a monolithic solver.
  std::size_t multi_slice = 0;
  for (std::uint64_t seed = 0; seed < 520; ++seed) {
    Rng rng(derive_seed(90001, seed));
    solver::ExprPool p;
    std::vector<solver::VarId> vars;
    for (int i = 0; i < 6; ++i) {
      vars.push_back(p.new_var("v" + std::to_string(i), 0, 63));
    }
    std::vector<solver::ExprId> cs;
    const int n = static_cast<int>(rng.uniform(1, 5));
    for (int i = 0; i < n; ++i) {
      const auto a = p.var_expr(vars[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(vars.size()) - 1))]);
      const auto b = rng.chance(0.5)
                         ? p.var_expr(vars[static_cast<std::size_t>(rng.uniform(
                               0, static_cast<std::int64_t>(vars.size()) - 1))])
                         : p.constant(rng.uniform(-4, 70));
      switch (rng.uniform(0, 3)) {
        case 0: cs.push_back(p.eq(a, b)); break;
        case 1: cs.push_back(p.ne(a, b)); break;
        case 2: cs.push_back(p.lt(a, b)); break;
        default: cs.push_back(p.le(a, b)); break;
      }
    }
    solver::Solver sliced(p, {});
    solver::Solver mono(p, baseline_opts());
    const auto rs = sliced.check(cs);
    const auto rm = mono.check(cs);
    ASSERT_EQ(rs.sat, rm.sat)
        << "verdict divergence at seed " << seed << " (" << n
        << " constraints)";
    if (rs.sat == solver::Sat::kSat) {
      for (solver::ExprId c : cs) {
        EXPECT_EQ(p.eval(c, rs.model), 1) << "bad sliced model, seed " << seed;
      }
    }
    multi_slice += sliced.stats().multi_slice_queries;
  }
  // The generator must actually exercise the multi-slice path, or the test
  // proves nothing about slicing.
  EXPECT_GT(multi_slice, 100u);
}

// A random expression DAG: every new node combines earlier nodes, so deep
// shared subtrees (the accumulator shapes the executor builds) are common.
std::vector<solver::ExprId> random_dag(solver::ExprPool& p, Rng& rng,
                                       int nodes) {
  std::vector<solver::ExprId> made;
  for (int i = 0; i < 8; ++i) {
    made.push_back(p.var_expr(p.new_var("d" + std::to_string(i), -20, 20)));
  }
  auto pick = [&] {
    return made[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(made.size()) - 1))];
  };
  for (int i = 0; i < nodes; ++i) {
    const solver::ExprId a = pick();
    const solver::ExprId b =
        rng.chance(0.2) ? p.constant(rng.uniform(-5, 5)) : pick();
    switch (rng.uniform(0, 8)) {
      case 0: made.push_back(p.add(a, b)); break;
      case 1: made.push_back(p.sub(a, b)); break;
      case 2: made.push_back(p.mul(a, b)); break;
      case 3: made.push_back(p.eq(a, b)); break;
      case 4: made.push_back(p.lt(a, b)); break;
      case 5: made.push_back(p.land(p.truthy(a), p.truthy(b))); break;
      case 6: made.push_back(p.lor(p.truthy(a), p.truthy(b))); break;
      case 7: made.push_back(p.lnot(p.truthy(a))); break;
      default: made.push_back(p.ite(p.truthy(a), b, pick())); break;
    }
  }
  return made;
}

TEST(SolverEquivalence, MemoisedVarsEqualCollectedVarsOnRandomPools) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(derive_seed(90003, seed));
    solver::ExprPool p;
    random_dag(p, rng, 400);
    // Query in a shuffled order, so a node's memo is sometimes filled
    // before its children's and sometimes after.
    std::vector<solver::ExprId> ids(p.num_nodes());
    for (solver::ExprId e = 0; e < ids.size(); ++e) ids[e] = e;
    for (std::size_t k = ids.size() - 1; k > 0; --k) {
      std::swap(ids[k], ids[static_cast<std::size_t>(rng.uniform(
                            0, static_cast<std::int64_t>(k)))]);
    }
    for (const solver::ExprId e : ids) {
      std::vector<solver::VarId> want;
      p.collect_vars(e, want);
      const std::span<const solver::VarId> got = p.vars_of(e);
      ASSERT_EQ(std::vector<solver::VarId>(got.begin(), got.end()), want)
          << "seed " << seed << " node " << e;
    }
  }
}

TEST(SolverEquivalence, ReusedSolverMatchesFreshSolvers) {
  // One solver answering long, short, long, ... queries through check and
  // check_with must answer each exactly as a fresh solver does: its slicer,
  // canonical-order stamps and key buffers carry nothing between queries.
  // Default options: every slice is a canonical solve on both sides, so a
  // slice's answer cannot depend on the reused solver's query history.
  const solver::SolverOptions o;
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(derive_seed(90005, seed));
    solver::ExprPool p;
    const std::vector<solver::ExprId> dag = random_dag(p, rng, 120);
    std::vector<solver::ExprId> bools;
    for (const solver::ExprId e : dag) {
      if (solver::is_bool_op(p.op(e))) bools.push_back(e);
    }
    if (bools.size() < 12) continue;
    solver::Solver reused(p, o);
    for (int q = 0; q < 6; ++q) {
      const std::size_t len = q % 2 == 0 ? 12 : 2;
      std::vector<solver::ExprId> cs;
      for (std::size_t i = 0; i < len; ++i) {
        cs.push_back(bools[static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(bools.size()) - 1))]);
      }
      const solver::ExprId extra = cs.back();
      cs.pop_back();
      solver::Solver fresh(p, o);
      const std::uint64_t before = reused.stats().slices;
      const auto r = q % 3 == 0 ? reused.check_with(cs, extra) : [&] {
        std::vector<solver::ExprId> all = cs;
        all.push_back(extra);
        return reused.check(all);
      }();
      const auto f = fresh.check_with(cs, extra);
      ASSERT_EQ(r.sat, f.sat) << "seed " << seed << " query " << q;
      EXPECT_EQ(r.model, f.model) << "seed " << seed << " query " << q;
      EXPECT_EQ(reused.stats().slices - before, fresh.stats().slices);
      ++compared;
    }
  }
  EXPECT_GT(compared, 100u);
}

symexec::ExecResult run_config(const apps::AppSpec& app, bool optimized) {
  symexec::ExecOptions opts;
  // The instruction budget is the binding (deterministic) cap; the time cap
  // is only a safety net, large enough that the two configurations cannot
  // diverge by racing the clock.
  opts.max_instructions = 150'000;
  opts.max_seconds = 30.0;
  opts.solver_opts.enable_slicing = optimized;  // fault validation follows
  symexec::SymExecutor ex(app.module, app.sym_spec, opts);
  return ex.run();
}

TEST(SolverEquivalence, SlicedEqualsUnslicedOnFuzzGeneratedPrograms) {
  // ≥500 seeded generator programs, each symbolically executed under the
  // optimized and the baseline solver configuration. Every exploration
  // decision that depends on a solver verdict must come out the same, so
  // termination, path counts and the verified vulnerability must match.
  fuzz::GenOptions gen;
  gen.max_chain = 3;  // keep per-program exploration small: 1000+ runs below
  for (std::uint64_t seed = 0; seed < 520; ++seed) {
    const fuzz::GeneratedProgram prog = fuzz::generate_program(seed, gen);
    const symexec::ExecResult opt = run_config(prog.app, /*optimized=*/true);
    const symexec::ExecResult base = run_config(prog.app, /*optimized=*/false);
    ASSERT_EQ(opt.termination, base.termination)
        << "termination divergence on fuzz program seed " << seed;
    ASSERT_EQ(opt.stats.paths_explored, base.stats.paths_explored)
        << "path-count divergence on fuzz program seed " << seed;
    ASSERT_EQ(opt.vuln.has_value(), base.vuln.has_value())
        << "vuln divergence on fuzz program seed " << seed;
    if (opt.vuln.has_value()) {
      EXPECT_EQ(opt.vuln->function, base.vuln->function) << "seed " << seed;
      EXPECT_EQ(opt.vuln->kind, base.vuln->kind) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace statsym
