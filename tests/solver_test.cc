// Unit tests for the solver stack: intervals, expression pool +
// simplification, propagation, satisfiability, models, caching and the
// special-purpose machinery (hole splitting, counting-constraint repair).
#include <gtest/gtest.h>

#include "solver/cache.h"
#include "solver/solver.h"

namespace statsym::solver {
namespace {

TEST(Interval, BasicOps) {
  const Interval a{1, 5};
  const Interval b{3, 8};
  EXPECT_EQ(intersect(a, b), (Interval{3, 5}));
  EXPECT_EQ(hull(a, b), (Interval{1, 8}));
  EXPECT_TRUE(intersect(Interval{1, 2}, Interval{3, 4}).is_empty());
  EXPECT_TRUE(Interval::empty().is_empty());
  EXPECT_TRUE(Interval::point(3).is_point());
}

TEST(Interval, ArithmeticRanges) {
  EXPECT_EQ(iv_add({1, 2}, {10, 20}), (Interval{11, 22}));
  EXPECT_EQ(iv_sub({1, 2}, {10, 20}), (Interval{-19, -8}));
  EXPECT_EQ(iv_mul({-2, 3}, {4, 5}), (Interval{-10, 15}));
  EXPECT_EQ(iv_neg({-3, 7}), (Interval{-7, 3}));
}

TEST(Interval, ArithmeticSaturates) {
  const Interval big{INT64_MAX - 1, INT64_MAX};
  EXPECT_EQ(iv_add(big, big).hi, INT64_MAX);
  EXPECT_EQ(iv_mul(big, big).hi, INT64_MAX);
  EXPECT_EQ(iv_neg(Interval{INT64_MIN, INT64_MIN}).hi, INT64_MAX);
}

TEST(Interval, Comparisons) {
  EXPECT_EQ(iv_cmp_lt({1, 2}, {3, 4}), 1);
  EXPECT_EQ(iv_cmp_lt({3, 4}, {1, 2}), 0);
  EXPECT_EQ(iv_cmp_lt({1, 5}, {3, 4}), -1);
  EXPECT_EQ(iv_cmp_le({1, 3}, {3, 4}), 1);
  EXPECT_EQ(iv_cmp_eq({2, 2}, {2, 2}), 1);
  EXPECT_EQ(iv_cmp_eq({1, 2}, {3, 4}), 0);
  EXPECT_EQ(iv_cmp_ne({1, 2}, {3, 4}), 1);
}

TEST(ExprPool, HashConsing) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 10);
  const ExprId a = p.add(p.var_expr(x), p.constant(3));
  const ExprId b = p.add(p.var_expr(x), p.constant(3));
  EXPECT_EQ(a, b);
}

TEST(ExprPool, CommutativeCanonicalisation) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 10);
  const VarId y = p.new_var("y", 0, 10);
  EXPECT_EQ(p.add(p.var_expr(x), p.var_expr(y)),
            p.add(p.var_expr(y), p.var_expr(x)));
  EXPECT_EQ(p.eq(p.var_expr(x), p.var_expr(y)),
            p.eq(p.var_expr(y), p.var_expr(x)));
}

TEST(Simplify, ConstantFolding) {
  ExprPool p;
  EXPECT_EQ(p.const_val(p.add(p.constant(2), p.constant(3))), 5);
  EXPECT_EQ(p.const_val(p.lt(p.constant(2), p.constant(3))), 1);
  EXPECT_EQ(p.const_val(p.land(p.constant(1), p.constant(0))), 0);
}

TEST(Simplify, Identities) {
  ExprPool p;
  const ExprId x = p.var_expr(p.new_var("x", 0, 100));
  EXPECT_EQ(p.add(x, p.constant(0)), x);
  EXPECT_EQ(p.mul(x, p.constant(1)), x);
  EXPECT_EQ(p.const_val(p.mul(x, p.constant(0))), 0);
  EXPECT_EQ(p.const_val(p.sub(x, x)), 0);
  EXPECT_EQ(p.eq(x, x), p.true_expr());
  EXPECT_EQ(p.lt(x, x), p.false_expr());
  EXPECT_EQ(p.le(x, x), p.true_expr());
}

TEST(Simplify, AddChainFolds) {
  ExprPool p;
  const ExprId x = p.var_expr(p.new_var("x", 0, 100));
  const ExprId e = p.add(p.add(x, p.constant(3)), p.constant(4));
  // (x + 3) + 4 -> x + 7
  EXPECT_EQ(e, p.add(x, p.constant(7)));
}

TEST(Simplify, CmpOffsetNormalisation) {
  ExprPool p;
  const ExprId x = p.var_expr(p.new_var("x", -100, 100));
  // (x + 3) < 10  ->  x < 7
  EXPECT_EQ(p.lt(p.add(x, p.constant(3)), p.constant(10)),
            p.lt(x, p.constant(7)));
}

TEST(Simplify, NotPushesThroughComparisons) {
  ExprPool p;
  const ExprId x = p.var_expr(p.new_var("x", -100, 100));
  const ExprId lt = p.lt(x, p.constant(5));
  EXPECT_EQ(p.lnot(lt), p.le(p.constant(5), x));
  EXPECT_EQ(p.lnot(p.lnot(lt)), lt);
  EXPECT_EQ(p.lnot(p.eq(x, p.constant(1))), p.ne(x, p.constant(1)));
}

TEST(ExprPool, EvalMatchesSemantics) {
  ExprPool p;
  const VarId x = p.new_var("x", -100, 100);
  const VarId y = p.new_var("y", -100, 100);
  const ExprId e = p.land(p.lt(p.var_expr(x), p.var_expr(y)),
                          p.ne(p.var_expr(x), p.constant(0)));
  EXPECT_EQ(p.eval(e, {{x, 1}, {y, 5}}), 1);
  EXPECT_EQ(p.eval(e, {{x, 0}, {y, 5}}), 0);
  EXPECT_EQ(p.eval(e, {{x, 6}, {y, 5}}), 0);
}

TEST(ExprPool, CollectVarsDeduplicates) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 10);
  const VarId y = p.new_var("y", 0, 10);
  const ExprId e =
      p.add(p.add(p.var_expr(x), p.var_expr(y)), p.var_expr(x));
  std::vector<VarId> vars;
  p.collect_vars(e, vars);
  EXPECT_EQ(vars.size(), 2u);
}

TEST(Propagate, NarrowsUnaryComparison) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 255);
  DomainMap d;
  ASSERT_TRUE(propagate(p, p.lt(p.var_expr(x), p.constant(10)), true, d));
  EXPECT_EQ(d.get(x, p), (Interval{0, 9}));
  ASSERT_TRUE(propagate(p, p.le(p.constant(3), p.var_expr(x)), true, d));
  EXPECT_EQ(d.get(x, p), (Interval{3, 9}));
}

TEST(Propagate, DetectsContradiction) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 255);
  DomainMap d;
  ASSERT_TRUE(propagate(p, p.lt(p.var_expr(x), p.constant(10)), true, d));
  EXPECT_FALSE(propagate(p, p.le(p.constant(10), p.var_expr(x)), true, d));
}

TEST(Propagate, NarrowsThroughAddition) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 255);
  DomainMap d;
  // x + 5 == 12  ->  x == 7
  ASSERT_TRUE(propagate(
      p, p.eq(p.add(p.var_expr(x), p.constant(5)), p.constant(12)), true, d));
  EXPECT_EQ(d.get(x, p), Interval::point(7));
}

TEST(Propagate, NarrowsBinaryRelation) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 100);
  const VarId y = p.new_var("y", 0, 100);
  DomainMap d;
  d.set(y, {0, 10});
  ASSERT_TRUE(propagate(p, p.lt(p.var_expr(y), p.var_expr(x)), true, d));
  EXPECT_GE(d.get(x, p).lo, 1);  // x > y >= 0
}

TEST(Propagate, AndOrSemantics) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 100);
  const ExprId lt5 = p.lt(p.var_expr(x), p.constant(5));
  const ExprId gt50 = p.lt(p.constant(50), p.var_expr(x));
  DomainMap d;
  // (x<5 || x>50) with x<5 known false narrows to x>50.
  ASSERT_TRUE(propagate(p, p.le(p.constant(10), p.var_expr(x)), true, d));
  ASSERT_TRUE(propagate(p, p.lor(lt5, gt50), true, d));
  EXPECT_GE(d.get(x, p).lo, 51);
}

TEST(DomainMap, VersionTracksChanges) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 100);
  DomainMap d;
  const auto v0 = d.version();
  d.set(x, {0, 50});
  EXPECT_GT(d.version(), v0);
  const auto v1 = d.version();
  d.set(x, {0, 50});  // no change
  EXPECT_EQ(d.version(), v1);
}

Solver make_solver(ExprPool& p, SolverOptions opts = {}) {
  return Solver(p, opts);
}

TEST(Solver, SatWithModel) {
  ExprPool p;
  Solver s = make_solver(p);
  const VarId x = p.new_var("x", 0, 255);
  const VarId y = p.new_var("y", 0, 255);
  const std::vector<ExprId> cs{
      p.lt(p.var_expr(x), p.var_expr(y)),
      p.eq(p.add(p.var_expr(x), p.var_expr(y)), p.constant(10)),
  };
  const auto r = s.check(cs);
  ASSERT_EQ(r.sat, Sat::kSat);
  for (ExprId c : cs) EXPECT_EQ(p.eval(c, r.model), 1);
}

TEST(Solver, UnsatDetected) {
  ExprPool p;
  Solver s = make_solver(p);
  const VarId x = p.new_var("x", 0, 255);
  const std::vector<ExprId> cs{
      p.lt(p.var_expr(x), p.constant(5)),
      p.lt(p.constant(7), p.var_expr(x)),
  };
  EXPECT_EQ(s.check(cs).sat, Sat::kUnsat);
}

TEST(Solver, EmptyQueryIsSat) {
  ExprPool p;
  Solver s = make_solver(p);
  EXPECT_EQ(s.check({}).sat, Sat::kSat);
}

TEST(Solver, ConstFalseIsUnsat) {
  ExprPool p;
  Solver s = make_solver(p);
  const std::vector<ExprId> cs{p.false_expr()};
  EXPECT_EQ(s.check(cs).sat, Sat::kUnsat);
}

TEST(Solver, HoleSplittingSolvesDisequalityChains) {
  // x in [0,10], x != 0..9 forces x == 10 — interval bisection alone zigzags,
  // hole splitting resolves each disequality in one node.
  ExprPool p;
  Solver s = make_solver(p);
  const VarId x = p.new_var("x", 0, 10);
  std::vector<ExprId> cs;
  for (int k = 0; k < 10; ++k) {
    cs.push_back(p.ne(p.var_expr(x), p.constant(k)));
  }
  const auto r = s.check(cs);
  ASSERT_EQ(r.sat, Sat::kSat);
  EXPECT_EQ(r.model.at(x), 10);
}

TEST(Solver, CountingConstraintRepairFindsRareModel) {
  // At least 20 of 64 bytes must equal 46 — mean under uniform sampling is
  // ~0.25, so only the repair pass can reach it.
  ExprPool p;
  Solver s = make_solver(p);
  std::vector<VarId> bytes;
  ExprId sum = p.constant(0);
  for (int i = 0; i < 64; ++i) {
    bytes.push_back(p.new_var("b" + std::to_string(i), 1, 255));
    sum = p.add(sum, p.eq(p.var_expr(bytes.back()), p.constant(46)));
  }
  const std::vector<ExprId> cs{p.le(p.constant(20), sum)};
  const auto r = s.check(cs);
  ASSERT_EQ(r.sat, Sat::kSat);
  int count = 0;
  for (VarId b : bytes) {
    if (r.model.at(b) == 46) ++count;
  }
  EXPECT_GE(count, 20);
}

TEST(Solver, CountingUpperBoundRepair) {
  // At most 2 of 32 bytes equal 'A' while every byte is in ['A','C'].
  ExprPool p;
  Solver s = make_solver(p);
  ExprId sum = p.constant(0);
  std::vector<ExprId> cs;
  std::vector<VarId> bytes;
  for (int i = 0; i < 32; ++i) {
    bytes.push_back(p.new_var("b" + std::to_string(i), 'A', 'C'));
    sum = p.add(sum, p.eq(p.var_expr(bytes.back()), p.constant('A')));
  }
  cs.push_back(p.le(sum, p.constant(2)));
  const auto r = s.check(cs);
  ASSERT_EQ(r.sat, Sat::kSat);
  int count = 0;
  for (VarId b : bytes) {
    if (r.model.at(b) == 'A') ++count;
  }
  EXPECT_LE(count, 2);
}

TEST(Solver, PropagationOnlyModeReturnsUnknown) {
  ExprPool p;
  SolverOptions opts;
  opts.propagation_only = true;
  Solver s(p, opts);
  // Needs search/sampling: x*x style cross constraint undecidable by
  // intervals alone at this width.
  const VarId x = p.new_var("x", 0, 255);
  const VarId y = p.new_var("y", 0, 255);
  const std::vector<ExprId> cs{
      p.eq(p.add(p.var_expr(x), p.var_expr(y)), p.constant(256)),
      p.ne(p.var_expr(x), p.var_expr(y)),
      p.lt(p.var_expr(y), p.var_expr(x)),
  };
  const auto r = s.check(cs);
  // Either decided quickly by the model probes or reported unknown — but
  // never a wrong unsat.
  EXPECT_NE(r.sat, Sat::kUnsat);
}

TEST(Solver, StatsAccumulate) {
  ExprPool p;
  Solver s = make_solver(p);
  const VarId x = p.new_var("x", 0, 9);
  const std::vector<ExprId> cs{p.lt(p.var_expr(x), p.constant(5))};
  s.check(cs);
  s.check(cs);
  EXPECT_EQ(s.stats().queries, 2u);
  EXPECT_EQ(s.stats().sat, 2u);
}

TEST(Solver, CacheHitsOnRepeatedQuery) {
  ExprPool p;
  QueryCache cache;
  Solver s = make_solver(p);
  s.set_cache(&cache);
  const VarId x = p.new_var("x", 0, 9);
  const std::vector<ExprId> cs{p.lt(p.var_expr(x), p.constant(5))};
  s.check(cs);
  EXPECT_EQ(s.stats().cache_hits, 0u);
  s.check(cs);
  EXPECT_EQ(s.stats().cache_hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryCache, KeyIsOrderCanonical) {
  const std::vector<ExprId> a{1, 2, 3};
  const std::vector<ExprId> b{1, 2, 4};
  EXPECT_NE(QueryCache::key_of(a), QueryCache::key_of(b));
  EXPECT_NE(QueryCache::key_of(a), 0u);
}

TEST(QueryCache, ForcedCollisionResolvesPerQuery) {
  // Regression: two distinct queries forced onto one 64-bit key must each
  // resolve to their own result. The pre-verification cache returned
  // whichever entry owned the key — an unsound answer for the other query.
  QueryCache cache;
  const std::vector<ExprId> q1{1, 2, 3};
  const std::vector<ExprId> q2{4, 5};
  const std::vector<ExprId> q3{7, 8};
  SolveResult r1;
  r1.sat = Sat::kSat;
  r1.model = {{VarId{0}, 11}};
  SolveResult r2;
  r2.sat = Sat::kUnsat;
  const std::uint64_t forced_key = 42;
  cache.insert_with_key(forced_key, q1, r1);
  cache.insert_with_key(forced_key, q2, r2);
  EXPECT_EQ(cache.size(), 2u);

  const SolveResult* h1 = cache.lookup_with_key(forced_key, q1);
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1->sat, Sat::kSat);
  EXPECT_EQ(h1->model.at(VarId{0}), 11);

  const SolveResult* h2 = cache.lookup_with_key(forced_key, q2);
  ASSERT_NE(h2, nullptr);
  EXPECT_EQ(h2->sat, Sat::kUnsat);

  // A third query colliding on the same key is a miss, not q1's or q2's
  // result.
  EXPECT_EQ(cache.lookup_with_key(forced_key, q3), nullptr);
}

TEST(Solver, SlicingSplitsIndependentGroups) {
  ExprPool p;
  Solver s = make_solver(p);
  const VarId x = p.new_var("x", 0, 255);
  const VarId y = p.new_var("y", 0, 255);
  const VarId a = p.new_var("a", 0, 255);
  const std::vector<ExprId> cs{
      p.lt(p.var_expr(x), p.var_expr(y)),
      p.eq(p.add(p.var_expr(x), p.var_expr(y)), p.constant(10)),
      p.lt(p.constant(100), p.var_expr(a)),
  };
  const auto r = s.check(cs);
  ASSERT_EQ(r.sat, Sat::kSat);
  EXPECT_EQ(s.stats().slices, 2u);  // {x,y} component + {a} component
  EXPECT_EQ(s.stats().multi_slice_queries, 1u);
  for (ExprId c : cs) EXPECT_EQ(p.eval(c, r.model), 1);
}

TEST(Solver, UnsatSliceMakesQueryUnsat) {
  ExprPool p;
  Solver s = make_solver(p);
  const VarId x = p.new_var("x", 0, 255);
  const VarId a = p.new_var("a", 0, 255);
  const std::vector<ExprId> cs{
      p.lt(p.var_expr(x), p.constant(5)),           // sat slice
      p.lt(p.var_expr(a), p.constant(3)),           // unsat pair below
      p.lt(p.constant(7), p.var_expr(a)),
  };
  EXPECT_EQ(s.check(cs).sat, Sat::kUnsat);
}

TEST(Solver, CountsDecidedSlicesOnly) {
  ExprPool p;
  Solver s = make_solver(p);
  const VarId x = p.new_var("x", 0, 255);
  const VarId a = p.new_var("a", 0, 255);
  // Slices are decided in first-constraint order: the unsat {a} slice
  // decides the query, and the {x} slice is never decided.
  const std::vector<ExprId> cs{
      p.lt(p.var_expr(a), p.constant(3)),
      p.lt(p.constant(7), p.var_expr(a)),
      p.lt(p.var_expr(x), p.constant(5)),
  };
  EXPECT_EQ(s.check(cs).sat, Sat::kUnsat);
  EXPECT_EQ(s.stats().multi_slice_queries, 1u);
  EXPECT_EQ(s.stats().slices, 1u);
  EXPECT_EQ(s.stats().slices, s.stats().cache_hits +
                                  s.stats().shared_cache_hits +
                                  s.stats().solves);
}

TEST(Solver, SlicingDisabledSameVerdicts) {
  ExprPool p;
  SolverOptions off;
  off.enable_slicing = false;
  Solver sliced(p, {});
  Solver mono(p, off);
  const VarId x = p.new_var("x", 0, 255);
  const VarId y = p.new_var("y", 0, 255);
  const std::vector<std::vector<ExprId>> queries{
      {p.lt(p.var_expr(x), p.constant(5)), p.lt(p.constant(9), p.var_expr(y))},
      {p.lt(p.var_expr(x), p.constant(5)), p.lt(p.constant(250), p.var_expr(x))},
      {p.eq(p.var_expr(y), p.constant(7))},
  };
  for (const auto& q : queries) {
    EXPECT_EQ(sliced.check(q).sat, mono.check(q).sat);
  }
  EXPECT_EQ(mono.stats().multi_slice_queries, 0u);
}

TEST(Solver, SharedCacheCrossSolverHit) {
  // Two solvers over two distinct pools that build the same variables and
  // constraints: worker B's structurally-identical query hits worker A's
  // published canonical result, and the stored model transfers by VarId.
  SharedQueryCache shared;
  auto build = [](ExprPool& p, std::vector<ExprId>& cs) {
    const VarId x = p.new_var("x", 0, 255);
    const VarId y = p.new_var("y", 0, 255);
    cs = {p.lt(p.var_expr(x), p.var_expr(y)),
          p.eq(p.add(p.var_expr(x), p.var_expr(y)), p.constant(10))};
  };
  ExprPool pa;
  std::vector<ExprId> ca;
  build(pa, ca);
  Solver sa(pa, {});
  sa.set_shared_cache(&shared);
  ASSERT_EQ(sa.check(ca).sat, Sat::kSat);
  EXPECT_EQ(sa.stats().shared_cache_hits, 0u);
  EXPECT_GT(shared.size(), 0u);

  ExprPool pb;
  std::vector<ExprId> cb;
  build(pb, cb);
  Solver sb(pb, {});
  sb.set_shared_cache(&shared);
  const auto rb = sb.check(cb);
  ASSERT_EQ(rb.sat, Sat::kSat);
  EXPECT_EQ(sb.stats().shared_cache_hits, 1u);
  EXPECT_EQ(sb.stats().solves, 0u);
  for (ExprId c : cb) EXPECT_EQ(pb.eval(c, rb.model), 1);
}

TEST(Solver, SharedCacheOptionTiersDoNotAlias) {
  // Same structural query under different option tiers must not share
  // entries: a fork-budget kUnsat could otherwise leak into a
  // validation-budget solver (different completeness guarantees).
  SharedQueryCache shared;
  auto query = [](ExprPool& p, std::vector<ExprId>& cs) {
    const VarId x = p.new_var("x", 0, 255);
    cs = {p.lt(p.var_expr(x), p.constant(5))};
  };
  ExprPool pa;
  std::vector<ExprId> ca;
  query(pa, ca);
  Solver sa(pa, {});
  sa.set_shared_cache(&shared);
  ASSERT_EQ(sa.check(ca).sat, Sat::kSat);

  ExprPool pb;
  std::vector<ExprId> cb;
  query(pb, cb);
  SolverOptions other;
  other.max_search_nodes = 123;  // a different budget tier
  Solver sb(pb, other);
  sb.set_shared_cache(&shared);
  ASSERT_EQ(sb.check(cb).sat, Sat::kSat);
  EXPECT_EQ(sb.stats().shared_cache_hits, 0u);
  EXPECT_EQ(shared.size(), 2u);  // one entry per tier
}

TEST(SharedQueryCache, FingerprintVectorVerifiedOnLookup) {
  SharedQueryCache shared;
  ExprPool pool;
  const Fp128 key{0xAB, 0xCD};
  const std::vector<Fp128> fps1{{1, 2}, {3, 4}};
  const std::vector<Fp128> fps2{{5, 6}};
  SolveResult r;
  r.sat = Sat::kUnsat;
  shared.insert(pool, key, fps1, r);
  SolveResult out;
  EXPECT_TRUE(shared.lookup(pool, key, fps1, out));
  EXPECT_EQ(out.sat, Sat::kUnsat);
  // Same combined key, different per-constraint digests: a miss, never the
  // other query's verdict.
  EXPECT_FALSE(shared.lookup(pool, key, fps2, out));
  EXPECT_EQ(shared.counters().hits, 1u);
  EXPECT_EQ(shared.counters().misses, 1u);
}

TEST(ExprFingerprinter, StableAcrossPools) {
  auto build = [](ExprPool& p) {
    const VarId x = p.new_var("x", 0, 255);
    return p.lt(p.var_expr(x), p.constant(5));
  };
  ExprPool pa, pb;
  const ExprId ea = build(pa);
  const ExprId eb = build(pb);
  ExprFingerprinter fa(pa), fb(pb);
  EXPECT_EQ(fa.of(ea), fb.of(eb));
  // A different domain for the "same" variable changes the digest.
  ExprPool pc;
  const VarId xc = pc.new_var("x", 0, 127);
  const ExprId ec = pc.lt(pc.var_expr(xc), pc.constant(5));
  ExprFingerprinter fc(pc);
  EXPECT_NE(fa.of(ea), fc.of(ec));
}

TEST(Solver, CheckWithAppendsConstraint) {
  ExprPool p;
  Solver s = make_solver(p);
  const VarId x = p.new_var("x", 0, 9);
  const std::vector<ExprId> cs{p.lt(p.var_expr(x), p.constant(5))};
  EXPECT_EQ(s.check_with(cs, p.le(p.constant(5), p.var_expr(x))).sat,
            Sat::kUnsat);
  EXPECT_EQ(s.check_with(cs, p.le(p.constant(2), p.var_expr(x))).sat,
            Sat::kSat);
}

// Aggregation-drift tripwire: SolverStats is summed in several places (the
// executor's per-task commit, engine lane totals, candidate roll-ups). A
// field added to the struct but forgotten in operator+= silently drops its
// counts from every report, so the round-trip below exercises *every* field
// with a distinct value and the static_assert forces whoever grows the
// struct to visit this test (and operator+=) deliberately. The one field
// left out is model_reuse_hits, which is always 0 and never summed.
TEST(SolverStats, SumRoundTripCoversEveryField) {
  static_assert(sizeof(SolverStats) == 14 * 8,
                "SolverStats gained or lost a field: update operator+= and "
                "the per-field checks in this test");
  SolverStats a;
  a.queries = 2;
  a.sat = 3;
  a.unsat = 5;
  a.unknown = 7;
  a.cache_hits = 11;
  a.shared_cache_hits = 17;
  a.slices = 19;
  a.multi_slice_queries = 23;
  a.solves = 29;
  a.solve_seconds = 0.5;
  a.search_nodes = 31;
  a.propagation_rounds = 37;
  a.static_prunes = 41;

  SolverStats b;
  b.queries = 100;
  b.sat = 200;
  b.unsat = 300;
  b.unknown = 400;
  b.cache_hits = 500;
  b.shared_cache_hits = 700;
  b.slices = 800;
  b.multi_slice_queries = 900;
  b.solves = 1000;
  b.solve_seconds = 0.25;
  b.search_nodes = 1100;
  b.propagation_rounds = 1200;
  b.static_prunes = 1300;

  SolverStats sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.queries, 102u);
  EXPECT_EQ(sum.sat, 203u);
  EXPECT_EQ(sum.unsat, 305u);
  EXPECT_EQ(sum.unknown, 407u);
  EXPECT_EQ(sum.cache_hits, 511u);
  EXPECT_EQ(sum.model_reuse_hits, 0u);
  EXPECT_EQ(sum.shared_cache_hits, 717u);
  EXPECT_EQ(sum.slices, 819u);
  EXPECT_EQ(sum.multi_slice_queries, 923u);
  EXPECT_EQ(sum.solves, 1029u);
  EXPECT_DOUBLE_EQ(sum.solve_seconds, 0.75);
  EXPECT_EQ(sum.search_nodes, 1131u);
  EXPECT_EQ(sum.propagation_rounds, 1237u);
  EXPECT_EQ(sum.static_prunes, 1341u);

  // Summing a default-constructed stats object is the identity.
  SolverStats id = a;
  id += SolverStats{};
  EXPECT_EQ(id.queries, a.queries);
  EXPECT_EQ(id.static_prunes, a.static_prunes);
  EXPECT_DOUBLE_EQ(id.solve_seconds, a.solve_seconds);
}

}  // namespace
}  // namespace statsym::solver
