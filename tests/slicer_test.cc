// Unit tests for constraint independence slicing (solver/slicer.h): the
// connected-component partition over the constraint–variable graph that the
// query-optimization layer rests on.
#include <gtest/gtest.h>

#include "solver/slicer.h"

namespace statsym::solver {
namespace {

// One-shot slicing on a fresh Slicer, as owned copies.
std::vector<Slice> slice_constraints(const ExprPool& pool,
                                     std::span<const ExprId> cs) {
  Slicer slicer;
  const std::span<const Slice> s = slicer.slice(pool, cs);
  return {s.begin(), s.end()};
}

Slice whole_slice(const ExprPool& pool, std::span<const ExprId> cs) {
  Slicer slicer;
  return slicer.whole(pool, cs).front();
}

struct TestVars {
  ExprPool pool;
  VarId x, y, z;
  ExprId ex, ey, ez;

  TestVars() {
    x = pool.new_var("x", 0, 255);
    y = pool.new_var("y", 0, 255);
    z = pool.new_var("z", 0, 255);
    ex = pool.var_expr(x);
    ey = pool.var_expr(y);
    ez = pool.var_expr(z);
  }
};

TEST(Slicer, EmptyConstraintSetYieldsNoSlices) {
  ExprPool pool;
  EXPECT_TRUE(slice_constraints(pool, {}).empty());
}

TEST(Slicer, SingleComponentChainStaysTogether) {
  TestVars t;
  // x<y and y<z share y transitively: one slice even though x and z never
  // appear in the same constraint.
  const std::vector<ExprId> cs{t.pool.lt(t.ex, t.ey), t.pool.lt(t.ey, t.ez)};
  const auto slices = slice_constraints(t.pool, cs);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].cs, cs);
  EXPECT_EQ(slices[0].vars, (std::vector<VarId>{t.x, t.y, t.z}));
}

TEST(Slicer, FullyDisjointConstraintsSplit) {
  TestVars t;
  const std::vector<ExprId> cs{
      t.pool.lt(t.ex, t.pool.constant(5)),
      t.pool.lt(t.ey, t.pool.constant(6)),
      t.pool.lt(t.ez, t.pool.constant(7)),
  };
  const auto slices = slice_constraints(t.pool, cs);
  ASSERT_EQ(slices.size(), 3u);
  // Ordered by first-constraint index; each slice holds exactly its var.
  EXPECT_EQ(slices[0].cs, (std::vector<ExprId>{cs[0]}));
  EXPECT_EQ(slices[1].cs, (std::vector<ExprId>{cs[1]}));
  EXPECT_EQ(slices[2].cs, (std::vector<ExprId>{cs[2]}));
  EXPECT_EQ(slices[0].vars, (std::vector<VarId>{t.x}));
  EXPECT_EQ(slices[1].vars, (std::vector<VarId>{t.y}));
  EXPECT_EQ(slices[2].vars, (std::vector<VarId>{t.z}));
}

TEST(Slicer, BridgingConstraintMergesComponents) {
  TestVars t;
  // The x- and z-groups are independent until the last constraint bridges
  // them; the bridge must pull everything into one slice.
  const std::vector<ExprId> cs{
      t.pool.lt(t.ex, t.pool.constant(5)),
      t.pool.lt(t.ez, t.pool.constant(7)),
      t.pool.lt(t.ex, t.ez),
  };
  const auto slices = slice_constraints(t.pool, cs);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].cs, cs);  // original order preserved
  EXPECT_EQ(slices[0].vars, (std::vector<VarId>{t.x, t.z}));
}

TEST(Slicer, VariableFreeConstraintIsItsOwnSlice) {
  TestVars t;
  // A non-constant-folded variable-free constraint (the pool folds obvious
  // ones, so craft the raw false expression) forms a singleton slice.
  const std::vector<ExprId> cs{
      t.pool.lt(t.ex, t.pool.constant(5)),
      t.pool.false_expr(),
  };
  const auto slices = slice_constraints(t.pool, cs);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[1].cs, (std::vector<ExprId>{t.pool.false_expr()}));
  EXPECT_TRUE(slices[1].vars.empty());
}

TEST(Slicer, DuplicateConstraintsRideAlong) {
  TestVars t;
  const ExprId c = t.pool.lt(t.ex, t.pool.constant(5));
  const std::vector<ExprId> cs{c, c};
  const auto slices = slice_constraints(t.pool, cs);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].cs.size(), 2u);
}

TEST(Slicer, OrderFollowsFirstConstraintIndex) {
  TestVars t;
  // z's constraint comes first, so the z-slice must come first even though
  // z was created after x.
  const std::vector<ExprId> cs{
      t.pool.lt(t.ez, t.pool.constant(7)),
      t.pool.lt(t.ex, t.pool.constant(5)),
  };
  const auto slices = slice_constraints(t.pool, cs);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].vars, (std::vector<VarId>{t.z}));
  EXPECT_EQ(slices[1].vars, (std::vector<VarId>{t.x}));
}

TEST(Slicer, WholeSliceKeepsEverythingTogether) {
  TestVars t;
  const std::vector<ExprId> cs{
      t.pool.lt(t.ex, t.pool.constant(5)),
      t.pool.lt(t.ey, t.pool.constant(6)),
  };
  const Slice w = whole_slice(t.pool, cs);
  EXPECT_EQ(w.cs, cs);
  EXPECT_EQ(w.vars, (std::vector<VarId>{t.x, t.y}));
}

TEST(Slicer, PerConstraintVarsComeFromThePoolMemo) {
  TestVars t;
  const ExprId c = t.pool.lt(t.pool.add(t.ez, t.ex), t.ey);
  std::vector<VarId> want;
  t.pool.collect_vars(c, want);
  ASSERT_EQ(want.size(), 3u);
  const std::span<const VarId> first = t.pool.vars_of(c);
  EXPECT_EQ(std::vector<VarId>(first.begin(), first.end()), want);
  // Computed once: later calls return the same storage, and it survives
  // further pool growth.
  for (int i = 0; i < 5000; ++i) {
    t.pool.vars_of(t.pool.lt(t.ex, t.pool.constant(i)));
  }
  EXPECT_EQ(t.pool.vars_of(c).data(), first.data());
  EXPECT_EQ(std::vector<VarId>(first.begin(), first.end()), want);
}

std::vector<Slice> copy(std::span<const Slice> s) {
  return {s.begin(), s.end()};
}

void expect_same_slices(const std::vector<Slice>& a,
                        const std::vector<Slice>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cs, b[i].cs) << "slice " << i;
    EXPECT_EQ(a[i].vars, b[i].vars) << "slice " << i;
  }
}

TEST(Slicer, ReusedSlicerMatchesFreshSlicers) {
  // Long, short, long: stale stamps, union-find parents and slice buffers
  // from an earlier query must never leak into a later one.
  TestVars t;
  std::vector<VarId> more;
  for (int i = 0; i < 12; ++i) {
    more.push_back(t.pool.new_var("m" + std::to_string(i), 0, 9));
  }
  auto v = [&](std::size_t i) { return t.pool.var_expr(more[i]); };
  std::vector<ExprId> long_q;
  for (std::size_t i = 0; i + 1 < more.size(); i += 2) {
    long_q.push_back(t.pool.lt(v(i), v(i + 1)));
  }
  long_q.push_back(t.pool.lt(v(1), v(4)));
  long_q.push_back(t.pool.false_expr());
  long_q.push_back(t.pool.ne(v(10), t.ex));
  const std::vector<ExprId> short_q{t.pool.lt(t.ey, v(3)),
                                    t.pool.lt(t.ez, t.pool.constant(4))};

  Slicer reused;
  const std::vector<ExprId>* queries[] = {&long_q, &short_q, &long_q,
                                          &short_q};
  for (const std::vector<ExprId>* q : queries) {
    expect_same_slices(copy(reused.slice(t.pool, *q)),
                       slice_constraints(t.pool, *q));
    expect_same_slices(copy(reused.whole(t.pool, *q)),
                       {whole_slice(t.pool, *q)});
  }
  EXPECT_EQ(slice_constraints(t.pool, long_q).size(), 6u);
}

TEST(Slicer, DeterministicAcrossCalls) {
  TestVars t;
  const std::vector<ExprId> cs{
      t.pool.lt(t.ex, t.ey),
      t.pool.lt(t.ez, t.pool.constant(7)),
      t.pool.ne(t.ey, t.pool.constant(3)),
  };
  const auto a = slice_constraints(t.pool, cs);
  const auto b = slice_constraints(t.pool, cs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cs, b[i].cs);
    EXPECT_EQ(a[i].vars, b[i].vars);
  }
}

}  // namespace
}  // namespace statsym::solver
