#include "solver/solver.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace statsym::solver {

const char* sat_name(Sat s) {
  switch (s) {
    case Sat::kSat: return "sat";
    case Sat::kUnsat: return "unsat";
    case Sat::kUnknown: return "unknown";
  }
  return "?";
}

Interval eval_interval(const ExprPool& p, ExprId e, const DomainMap& d) {
  return EvalCtx(p, d).eval(e);
}

Interval EvalCtx::eval(ExprId e) {
  const ExprPool& p = p_;
  const DomainMap& d = d_;
  switch (p.op(e)) {
    // Leaves are never memoised: variables must always reflect the current
    // (possibly just-narrowed) domains.
    case ExprOp::kConst:
      return Interval::point(p.const_val(e));
    case ExprOp::kVar:
      return d.get(p.var_of(e), p);
    default:
      break;
  }
  if (auto it = memo_.find(e); it != memo_.end()) return it->second;

  auto compute = [&]() -> Interval {
  switch (p.op(e)) {
    case ExprOp::kNeg:
      return iv_neg(eval(p.lhs(e)));
    case ExprOp::kNot: {
      const Interval a = eval(p.lhs(e));
      if (a.is_empty()) return Interval::empty();
      if (a.lo == 0 && a.hi == 0) return Interval::point(1);
      if (!a.contains(0)) return Interval::point(0);
      return Interval::boolean();
    }
    case ExprOp::kIte: {
      const Interval c = eval(p.lhs(e));
      if (c.is_empty()) return Interval::empty();
      if (c.lo == 0 && c.hi == 0) return eval(p.third(e));
      if (!c.contains(0)) return eval(p.rhs(e));
      return hull(eval(p.rhs(e)), eval(p.third(e)));
    }
    default:
      break;
  }
  const Interval a = eval(p.lhs(e));
  const Interval b = eval(p.rhs(e));
  auto from_cmp = [](int r) {
    if (r == 1) return Interval::point(1);
    if (r == 0) return Interval::point(0);
    return Interval::boolean();
  };
  switch (p.op(e)) {
    case ExprOp::kAdd: return iv_add(a, b);
    case ExprOp::kSub: return iv_sub(a, b);
    case ExprOp::kMul: return iv_mul(a, b);
    case ExprOp::kDiv: return iv_div(a, b);
    case ExprOp::kRem: return iv_rem(a, b);
    case ExprOp::kEq: return from_cmp(iv_cmp_eq(a, b));
    case ExprOp::kNe: return from_cmp(iv_cmp_ne(a, b));
    case ExprOp::kLt: return from_cmp(iv_cmp_lt(a, b));
    case ExprOp::kLe: return from_cmp(iv_cmp_le(a, b));
    case ExprOp::kAnd: {
      if (a.is_empty() || b.is_empty()) return Interval::empty();
      const bool a_true = !a.contains(0);
      const bool b_true = !b.contains(0);
      const bool a_false = a.lo == 0 && a.hi == 0;
      const bool b_false = b.lo == 0 && b.hi == 0;
      if (a_false || b_false) return Interval::point(0);
      if (a_true && b_true) return Interval::point(1);
      return Interval::boolean();
    }
    case ExprOp::kOr: {
      if (a.is_empty() || b.is_empty()) return Interval::empty();
      const bool a_true = !a.contains(0);
      const bool b_true = !b.contains(0);
      const bool a_false = a.lo == 0 && a.hi == 0;
      const bool b_false = b.lo == 0 && b.hi == 0;
      if (a_true || b_true) return Interval::point(1);
      if (a_false && b_false) return Interval::point(0);
      return Interval::boolean();
    }
    default:
      assert(false);
      return Interval::full();
  }
  };  // compute

  const Interval r = compute();
  memo_.emplace(e, r);
  return r;
}

namespace {

// Narrows the value of expression `e` to lie within `target`, pushing the
// restriction down to variables where the structure allows. Returns false on
// contradiction.
bool propagate_impl(const ExprPool& p, ExprId e, bool want, DomainMap& d,
                    EvalCtx& ctx);

bool narrow_expr(const ExprPool& p, ExprId e, Interval target, DomainMap& d,
                 EvalCtx& ctx) {
  const Interval cur = ctx.eval(e);
  target = intersect(target, cur);
  if (target.is_empty()) return false;
  if (target == cur && !p.is_var(e)) {
    // No new information to push down (variables still intersect below so a
    // tighter stored domain is recorded).
    return true;
  }
  switch (p.op(e)) {
    case ExprOp::kConst:
      return target.contains(p.const_val(e));
    case ExprOp::kVar: {
      const VarId v = p.var_of(e);
      const Interval nv = intersect(d.get(v, p), target);
      if (nv.is_empty()) return false;
      d.set(v, nv);
      return true;
    }
    case ExprOp::kAdd: {
      const Interval a = ctx.eval(p.lhs(e));
      const Interval b = ctx.eval(p.rhs(e));
      return narrow_expr(p, p.lhs(e), iv_sub(target, b), d, ctx) &&
             narrow_expr(p, p.rhs(e), iv_sub(target, a), d, ctx);
    }
    case ExprOp::kSub: {
      const Interval a = ctx.eval(p.lhs(e));
      const Interval b = ctx.eval(p.rhs(e));
      return narrow_expr(p, p.lhs(e), iv_add(target, b), d, ctx) &&
             narrow_expr(p, p.rhs(e), iv_sub(a, target), d, ctx);
    }
    case ExprOp::kNeg:
      return narrow_expr(p, p.lhs(e), iv_neg(target), d, ctx);
    case ExprOp::kMul: {
      // Only the (expr * constant) shape is inverted; general products keep
      // their hull (sound, less precise — search compensates).
      const ExprId lc = p.lhs(e);
      const ExprId rc = p.rhs(e);
      if (p.is_const(rc) && p.const_val(rc) != 0) {
        const std::int64_t c = p.const_val(rc);
        // x*c in [lo,hi]  =>  x in [ceil(lo/c), floor(hi/c)] (c>0), swapped
        // for c<0.
        auto div_floor = [](std::int64_t a, std::int64_t b) {
          std::int64_t q = a / b;
          if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
          return q;
        };
        auto div_ceil = [&](std::int64_t a, std::int64_t b) {
          return -div_floor(-a, b);
        };
        Interval t = c > 0 ? Interval{div_ceil(target.lo, c),
                                      div_floor(target.hi, c)}
                           : Interval{div_ceil(target.hi, c),
                                      div_floor(target.lo, c)};
        return narrow_expr(p, lc, t, d, ctx);
      }
      return true;
    }
    default:
      // Boolean-valued subexpressions pinned to a definite truth value
      // continue through truth propagation (this is what decomposes
      // accumulator sums like "count == 0" into per-term requirements);
      // div/rem keep consistency only.
      if (is_bool_op(p.op(e))) {
        if (target.is_point() && target.lo == 0) {
          return propagate_impl(p, e, false, d, ctx);
        }
        if (target.lo == 1 && target.hi == 1) {
          return propagate_impl(p, e, true, d, ctx);
        }
      }
      return true;
  }
}

bool propagate_impl(const ExprPool& p, ExprId e, bool want, DomainMap& d,
                    EvalCtx& ctx) {
  switch (p.op(e)) {
    case ExprOp::kConst:
      return (p.const_val(e) != 0) == want;
    case ExprOp::kVar: {
      const VarId v = p.var_of(e);
      Interval iv = d.get(v, p);
      if (want) {
        // v != 0: can only trim when 0 sits on a boundary.
        if (iv.lo == 0 && iv.hi == 0) return false;
        if (iv.lo == 0) iv.lo = 1;
        if (iv.hi == 0) iv.hi = -1;
      } else {
        iv = intersect(iv, Interval::point(0));
        if (iv.is_empty()) return false;
      }
      d.set(v, iv);
      return true;
    }
    case ExprOp::kNot:
      return propagate_impl(p, p.lhs(e), !want, d, ctx);
    case ExprOp::kAnd: {
      if (want) {
        return propagate_impl(p, p.lhs(e), true, d, ctx) &&
               propagate_impl(p, p.rhs(e), true, d, ctx);
      }
      // !(a && b): unit-propagate when one side is decided true.
      const Interval a = ctx.eval(p.lhs(e));
      const Interval b = ctx.eval(p.rhs(e));
      if (a.is_empty() || b.is_empty()) return false;
      const bool a_true = !a.contains(0);
      const bool b_true = !b.contains(0);
      if (a_true && b_true) return false;
      if (a_true) return propagate_impl(p, p.rhs(e), false, d, ctx);
      if (b_true) return propagate_impl(p, p.lhs(e), false, d, ctx);
      return true;  // undecided disjunction of negations; search splits it
    }
    case ExprOp::kOr: {
      if (!want) {
        return propagate_impl(p, p.lhs(e), false, d, ctx) &&
               propagate_impl(p, p.rhs(e), false, d, ctx);
      }
      const Interval a = ctx.eval(p.lhs(e));
      const Interval b = ctx.eval(p.rhs(e));
      if (a.is_empty() || b.is_empty()) return false;
      const bool a_false = !a.is_empty() && a.lo == 0 && a.hi == 0;
      const bool b_false = !b.is_empty() && b.lo == 0 && b.hi == 0;
      if (a_false && b_false) return false;
      if (a_false) return propagate_impl(p, p.rhs(e), true, d, ctx);
      if (b_false) return propagate_impl(p, p.lhs(e), true, d, ctx);
      return true;
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe: {
      // Normalise to a positively-stated comparison.
      ExprOp op = p.op(e);
      ExprId a = p.lhs(e);
      ExprId b = p.rhs(e);
      if (!want) {
        switch (op) {
          case ExprOp::kEq: op = ExprOp::kNe; break;
          case ExprOp::kNe: op = ExprOp::kEq; break;
          case ExprOp::kLt: op = ExprOp::kLe; std::swap(a, b); break;
          case ExprOp::kLe: op = ExprOp::kLt; std::swap(a, b); break;
          default: break;
        }
      }
      const Interval ia = ctx.eval(a);
      const Interval ib = ctx.eval(b);
      if (ia.is_empty() || ib.is_empty()) return false;
      switch (op) {
        case ExprOp::kEq: {
          const Interval t = intersect(ia, ib);
          if (t.is_empty()) return false;
          return narrow_expr(p, a, t, d, ctx) && narrow_expr(p, b, t, d, ctx);
        }
        case ExprOp::kNe: {
          // Trim only when one side is a point at the other's boundary.
          if (ib.is_point()) {
            Interval t = ia;
            if (t.is_point() && t.lo == ib.lo) return false;
            if (t.lo == ib.lo) t.lo += 1;
            if (t.hi == ib.lo) t.hi -= 1;
            if (!narrow_expr(p, a, t, d, ctx)) return false;
          }
          if (ia.is_point()) {
            Interval t = ib;
            if (t.is_point() && t.lo == ia.lo) return false;
            if (t.lo == ia.lo) t.lo += 1;
            if (t.hi == ia.lo) t.hi -= 1;
            if (!narrow_expr(p, b, t, d, ctx)) return false;
          }
          return true;
        }
        case ExprOp::kLt: {
          if (ib.hi == std::numeric_limits<std::int64_t>::min()) return false;
          const Interval ta{std::numeric_limits<std::int64_t>::min(),
                            ib.hi - 1};
          if (!narrow_expr(p, a, ta, d, ctx)) return false;
          if (ia.lo == std::numeric_limits<std::int64_t>::max()) return false;
          const Interval tb{ia.lo + 1,
                            std::numeric_limits<std::int64_t>::max()};
          return narrow_expr(p, b, tb, d, ctx);
        }
        case ExprOp::kLe: {
          const Interval ta{std::numeric_limits<std::int64_t>::min(), ib.hi};
          if (!narrow_expr(p, a, ta, d, ctx)) return false;
          const Interval tb{ia.lo, std::numeric_limits<std::int64_t>::max()};
          return narrow_expr(p, b, tb, d, ctx);
        }
        default:
          return true;
      }
    }
    default: {
      // Arithmetic used directly as a condition: e != 0 / e == 0.
      const Interval iv = ctx.eval(e);
      if (iv.is_empty()) return false;
      if (want) return !(iv.lo == 0 && iv.hi == 0);
      return narrow_expr(p, e, Interval::point(0), d, ctx);
    }
  }
}

}  // namespace

bool propagate(const ExprPool& p, ExprId e, bool want, DomainMap& d) {
  EvalCtx ctx(p, d);
  return propagate_impl(p, e, want, d, ctx);
}

namespace {

// Digest over the options that shape a canonical solve: results computed
// under different budgets or modes must never alias in the shared cache (a
// fork-tier solver hitting a validation-tier entry would otherwise see a
// result it could not have computed itself, breaking timing independence).
Fp128 options_salt(const SolverOptions& o) {
  std::vector<Fp128> parts;
  parts.push_back(Fp128{o.max_search_nodes,
                        static_cast<std::uint64_t>(o.max_fixpoint_rounds)});
  parts.push_back(Fp128{static_cast<std::uint64_t>(o.random_model_tries),
                        o.seed});
  parts.push_back(Fp128{o.propagation_only ? 1u : 0u,
                        static_cast<std::uint64_t>(o.max_query_seconds * 1e6)});
  return ExprFingerprinter::combine(parts, Fp128{0x51a7, 0xca11});
}

}  // namespace

Solver::Solver(ExprPool& pool, SolverOptions opts)
    : pool_(pool),
      opts_(opts),
      fp_(pool),
      opts_salt_(options_salt(opts)),
      rng_(opts.seed) {}

bool Solver::fixpoint(const QueryCtx& ctx, DomainMap& d) {
  for (int round = 0; round < opts_.max_fixpoint_rounds; ++round) {
    ++stats_.propagation_rounds;
    const std::uint64_t before = d.version();
    for (ExprId c : ctx.cs) {
      if (!propagate(pool_, c, true, d)) return false;
    }
    if (d.version() == before) return true;  // quiescent
  }
  return true;  // budget reached; domains are still sound
}

namespace {

// Flattens an Add-spine into its addend terms.
void flatten_sum(const ExprPool& p, ExprId e, std::vector<ExprId>& terms) {
  if (p.op(e) == ExprOp::kAdd) {
    flatten_sum(p, p.lhs(e), terms);
    flatten_sum(p, p.rhs(e), terms);
    return;
  }
  terms.push_back(e);
}

}  // namespace

bool Solver::repair_model(const QueryCtx& ctx, const DomainMap& d, Model& m) {
  // Greedy repair for counting constraints over indicator sums — the shape
  // statistics injection produces ("at least 18 request bytes are '.'",
  // from a dotdot_count predicate). Random sampling essentially never hits
  // Σ ≥ K for K far above the mean, but flipping individual free indicator
  // variables toward/away from their compared constant repairs it directly.
  for (int sweep = 0; sweep < 3; ++sweep) {
    bool all_ok = true;
    for (ExprId c : ctx.cs) {
      if (pool_.eval(c, m) != 0) continue;
      all_ok = false;
      // Recognise K <= S / K < S / S <= K / S < K with S an Add-spine.
      const ExprOp op = pool_.op(c);
      if (op != ExprOp::kLe && op != ExprOp::kLt) return false;
      ExprId sum = solver::kNoExpr;
      bool increase = false;
      if (pool_.is_const(pool_.lhs(c))) {
        sum = pool_.rhs(c);
        increase = true;  // K <= S: S is too small
      } else if (pool_.is_const(pool_.rhs(c))) {
        sum = pool_.lhs(c);
        increase = false;  // S <= K: S is too large
      } else {
        return false;
      }
      std::vector<ExprId> terms;
      flatten_sum(pool_, sum, terms);
      for (ExprId t : terms) {
        if (pool_.eval(c, m) != 0) break;  // constraint repaired
        // Indicator terms: Eq(var, const) / Ne(var, const).
        const ExprOp top = pool_.op(t);
        if ((top != ExprOp::kEq && top != ExprOp::kNe) ||
            !pool_.is_var(pool_.lhs(t)) || !pool_.is_const(pool_.rhs(t))) {
          continue;
        }
        const VarId v = pool_.var_of(pool_.lhs(t));
        const std::int64_t k = pool_.const_val(pool_.rhs(t));
        const Interval iv = d.get(v, pool_);
        const bool term_true = pool_.eval(t, m) != 0;
        // Make the term contribute in the desired direction.
        if (increase && !term_true) {
          // Need the indicator true: Eq -> var := k; Ne -> any other value.
          if (top == ExprOp::kEq && iv.contains(k)) {
            m[v] = k;
          } else if (top == ExprOp::kNe) {
            if (iv.lo != k) m[v] = iv.lo;
            else if (iv.hi != k) m[v] = iv.hi;
          }
        } else if (!increase && term_true) {
          // Need the indicator false: Eq -> move off k; Ne -> var := k.
          if (top == ExprOp::kEq) {
            if (iv.lo != k) m[v] = iv.lo;
            else if (iv.hi != k) m[v] = iv.hi;
          } else if (top == ExprOp::kNe && iv.contains(k)) {
            m[v] = k;
          }
        }
      }
    }
    if (all_ok) return true;
  }
  for (ExprId c : ctx.cs) {
    if (pool_.eval(c, m) == 0) return false;
  }
  return true;
}

bool Solver::try_models(const QueryCtx& ctx, const DomainMap& d,
                        Model& model) {
  auto attempt = [&](auto pick) {
    Model m;
    m.reserve(ctx.all_vars.size());
    for (VarId v : ctx.all_vars) {
      const Interval iv = d.get(v, pool_);
      if (iv.is_empty()) return false;
      m[v] = pick(iv);
    }
    for (ExprId c : ctx.cs) {
      if (pool_.eval(c, m) == 0) {
        // One bounded repair pass before giving up on this start point.
        if (repair_model(ctx, d, m)) {
          model = std::move(m);
          return true;
        }
        return false;
      }
    }
    model = std::move(m);
    return true;
  };

  if (attempt([](Interval iv) { return iv.lo; })) return true;
  if (attempt([](Interval iv) { return iv.hi; })) return true;
  if (attempt([](Interval iv) {
        return iv.contains(0) ? 0
                              : iv.lo + static_cast<std::int64_t>(iv.width() / 2);
      })) {
    return true;
  }
  // Random samples: decisive on wide disjunctions where boundary probes
  // systematically miss (e.g. "at least one input byte is in [65, 90]").
  for (int t = 0; t < opts_.random_model_tries; ++t) {
    if (attempt([&](Interval iv) {
          // Clamp the sampling window; full-int64 domains sample a small
          // window around zero (program values live there).
          const std::int64_t lo = std::max<std::int64_t>(iv.lo, -65536);
          const std::int64_t hi = std::min<std::int64_t>(iv.hi, 65536);
          if (lo > hi) return iv.lo;
          return rng_.uniform(lo, hi);
        })) {
      return true;
    }
  }
  return false;
}

bool Solver::pick_branch_var(const QueryCtx& ctx, const DomainMap& d,
                             VarId& out, bool& has_hole,
                             std::int64_t& hole) const {
  bool found = false;
  std::uint64_t best_width = 0;
  has_hole = false;
  for (std::size_t i = 0; i < ctx.cs.size(); ++i) {
    const Interval civ = eval_interval(pool_, ctx.cs[i], d);
    if (!civ.contains(0)) continue;  // already definitely true

    // Hole detection: an undecided `var != const` constraint.
    const ExprId c = ctx.cs[i];
    if (pool_.op(c) == ExprOp::kNe && pool_.is_var(pool_.lhs(c)) &&
        pool_.is_const(pool_.rhs(c))) {
      const VarId v = pool_.var_of(pool_.lhs(c));
      const std::int64_t k = pool_.const_val(pool_.rhs(c));
      const Interval iv = d.get(v, pool_);
      if (iv.lo < k && k < iv.hi) {
        out = v;
        has_hole = true;
        hole = k;
        return true;
      }
    }

    for (const VarId v : pool_.vars_of(c)) {
      const Interval iv = d.get(v, pool_);
      if (iv.is_point()) continue;
      const std::uint64_t w = iv.width();
      if (!found || w < best_width) {
        found = true;
        best_width = w;
        out = v;
      }
    }
  }
  return found;
}

Sat Solver::search(const QueryCtx& ctx, DomainMap d, Model& model,
                   std::uint64_t& budget) {
  if (budget == 0) return Sat::kUnknown;
  // Wall-clock deadline (checked every 32 nodes to keep it cheap).
  if ((budget & 31) == 0 &&
      query_sw_.elapsed_seconds() > opts_.max_query_seconds) {
    budget = 0;
    return Sat::kUnknown;
  }
  --budget;
  ++stats_.search_nodes;

  if (!fixpoint(ctx, d)) return Sat::kUnsat;
  if (try_models(ctx, d, model)) return Sat::kSat;

  VarId v{};
  bool has_hole = false;
  std::int64_t hole = 0;
  if (!pick_branch_var(ctx, d, v, has_hole, hole)) {
    // Every constraint's interval admits truth and no free variable remains:
    // all domains are points, so try_models' failure means unsat under this
    // assignment branch.
    return Sat::kUnsat;
  }

  const Interval iv = d.get(v, pool_);
  const std::int64_t mid =
      iv.lo + static_cast<std::int64_t>(iv.width() / 2);
  const Interval first =
      has_hole ? Interval{iv.lo, hole - 1} : Interval{iv.lo, mid};
  const Interval second =
      has_hole ? Interval{hole + 1, iv.hi} : Interval{mid + 1, iv.hi};
  bool saw_unknown = false;
  for (const Interval half : {first, second}) {
    if (half.is_empty()) continue;
    DomainMap d2 = d;
    d2.set(v, half);
    const Sat r = search(ctx, std::move(d2), model, budget);
    if (r == Sat::kSat) return Sat::kSat;
    if (r == Sat::kUnknown) saw_unknown = true;
  }
  return saw_unknown ? Sat::kUnknown : Sat::kUnsat;
}

namespace {

// Environment-gated diagnostics (README), read once per process.
const bool kDebugHard = std::getenv("STATSYM_DEBUG_HARD") != nullptr;
const bool kDebugUnknown = std::getenv("STATSYM_DEBUG_UNKNOWN") != nullptr;

// Trace payload code for a verdict (obs::EventKind::kSolverQuery/-Slice).
std::int64_t verdict_code(Sat s) {
  switch (s) {
    case Sat::kSat: return 0;
    case Sat::kUnsat: return 1;
    case Sat::kUnknown: return 2;
  }
  return 2;
}

}  // namespace

SolveResult Solver::check(std::span<const ExprId> constraints) {
  return check_impl(constraints, kNoExpr);
}

SolveResult Solver::check_with(std::span<const ExprId> constraints,
                               ExprId extra) {
  return check_impl(constraints, extra);
}

SolveResult Solver::check_impl(std::span<const ExprId> constraints,
                               ExprId extra) {
  ++stats_.queries;
  query_sw_.reset();

  std::vector<ExprId>& cs = cs_buf_;
  cs.clear();
  const std::size_t n = constraints.size() + (extra != kNoExpr ? 1 : 0);
  for (std::size_t i = 0; i < n; ++i) {
    const ExprId c = i < constraints.size() ? constraints[i] : extra;
    if (pool_.is_const(c)) {
      if (pool_.const_val(c) == 0) {
        ++stats_.unsat;
        if (trace_ != nullptr) {
          trace_->emit(obs::EventKind::kSolverQuery, verdict_code(Sat::kUnsat),
                       0);
        }
        return {Sat::kUnsat, {}};
      }
      continue;  // trivially true
    }
    cs.push_back(c);
  }
  if (cs.empty()) {
    ++stats_.sat;
    if (trace_ != nullptr) {
      trace_->emit(obs::EventKind::kSolverQuery, verdict_code(Sat::kSat), 0);
    }
    return {Sat::kSat, {}};
  }

  // Partition into independence slices and decide each one through the
  // cache cascade. Slices are conjoined: the first unsat decides the
  // query; any unknown degrades the verdict; otherwise the per-slice models
  // merge (var sets are disjoint) into the whole-query model.
  const std::span<const Slice> slices = opts_.enable_slicing
                                            ? slicer_.slice(pool_, cs)
                                            : slicer_.whole(pool_, cs);
  if (slices.size() > 1) ++stats_.multi_slice_queries;

  SolveResult out;
  out.sat = Sat::kSat;
  const auto nslices = static_cast<std::int64_t>(slices.size());
  for (const Slice& sl : slices) {
    SolveResult r = solve_slice(sl);
    if (r.sat == Sat::kUnsat) {
      ++stats_.unsat;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kSolverQuery, verdict_code(Sat::kUnsat),
                     nslices);
      }
      return {Sat::kUnsat, {}};
    }
    if (r.sat == Sat::kUnknown) {
      out.sat = Sat::kUnknown;
    } else if (out.sat == Sat::kSat) {
      for (const auto& [v, val] : r.model) out.model.emplace(v, val);
    }
  }
  if (trace_ != nullptr) {
    trace_->emit(obs::EventKind::kSolverQuery, verdict_code(out.sat), nslices);
  }
  if (out.sat == Sat::kUnknown) {
    out.model.clear();
    ++stats_.unknown;
    return out;
  }
  ++stats_.sat;
  return out;
}

SolveResult Solver::solve_slice(const Slice& slice) {
  ++stats_.slices;
  std::vector<ExprId>& sorted = sorted_buf_;
  sorted.assign(slice.cs.begin(), slice.cs.end());
  std::sort(sorted.begin(), sorted.end());

  if (cache_ != nullptr) {
    if (const SolveResult* hit = cache_->lookup(sorted)) {
      ++stats_.cache_hits;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kSolverSlice, 0, verdict_code(hit->sat));
      }
      return *hit;
    }
  }

  // Canonical form: constraints ordered by structural digest, combined into
  // the pool-independent slice key.
  std::vector<Fp128>& fps = fps_buf_;
  fps.resize(slice.cs.size());
  for (std::size_t i = 0; i < slice.cs.size(); ++i) fps[i] = fp_.of(slice.cs[i]);
  std::vector<std::size_t>& order = order_buf_;
  order.resize(slice.cs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (!(fps[a] == fps[b])) return fps[a] < fps[b];
    return slice.cs[a] < slice.cs[b];  // equal digests ⇒ identical exprs
  });
  std::vector<Fp128>& sorted_fps = sorted_fps_buf_;
  sorted_fps.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) sorted_fps[i] = fps[order[i]];
  const Fp128 slice_fp = ExprFingerprinter::combine(sorted_fps, opts_salt_);

  SolveResult res;
  if (shared_ != nullptr && shared_->lookup(pool_, slice_fp, sorted_fps, res)) {
    // Defense in depth: a SAT model is re-proved by concrete evaluation, so
    // even a digest collision cannot smuggle in a wrong model. A failed
    // proof falls through to the canonical solve.
    bool proved = true;
    if (res.sat == Sat::kSat) {
      for (ExprId c : slice.cs) {
        if (pool_.eval(c, res.model) == 0) {
          proved = false;
          break;
        }
      }
    }
    if (proved) {
      ++stats_.shared_cache_hits;
      if (cache_ != nullptr) cache_->insert(sorted, res);
      // Level 2 ("canonical"), same as a solve: whether a sibling already
      // published this slice is the one schedule-dependent fork in the
      // cascade, and the result is bit-identical either way.
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kSolverSlice, 2, verdict_code(res.sat));
      }
      return res;
    }
    res = SolveResult{};
  }

  res = solve_canonical(slice, order, slice_fp);
  if (trace_ != nullptr) {
    trace_->emit(obs::EventKind::kSolverSlice, 2, verdict_code(res.sat));
  }
  if (res.sat != Sat::kUnknown) {
    // kUnknown stays out of both caches: it can depend on the wall-clock
    // deadline, and a bigger-budget sharer (the fault validator) must not
    // inherit a smaller budget's give-up.
    if (shared_ != nullptr) shared_->insert(pool_, slice_fp, sorted_fps, res);
    if (cache_ != nullptr) cache_->insert(sorted, res);
  }
  return res;
}

SolveResult Solver::solve_canonical(const Slice& slice,
                                    std::span<const std::size_t> order,
                                    const Fp128& slice_fp) {
  ++stats_.solves;
  Stopwatch solve_sw;
  // Every canonical solve of a given slice draws the same random stream —
  // in this worker, in a sibling worker, on a repeat — which is what makes
  // a cache hit bit-identical to recomputation.
  rng_ = Rng(derive_seed(opts_.seed, slice_fp.lo ^ slice_fp.hi));

  QueryCtx& ctx = ctx_;
  ctx.cs.clear();
  for (const std::size_t idx : order) ctx.cs.push_back(slice.cs[idx]);
  // Canonical variable order: first occurrence across the *digest-sorted*
  // constraint sequence, not the caller's constraint order (which differs
  // between callers that reached this slice along different paths), so the
  // model-guess and branch-variable iteration are a pure function of the
  // slice's structure.
  var_marks_.begin(pool_.num_vars());
  ctx.all_vars.clear();
  for (const ExprId c : ctx.cs) {
    for (const VarId v : pool_.vars_of(c)) {
      if (var_marks_.mark(v)) ctx.all_vars.push_back(v);
    }
  }

  SolveResult res;
  DomainMap d;
  if (!fixpoint(ctx, d)) {
    res.sat = Sat::kUnsat;
  } else if (try_models(ctx, d, res.model)) {
    res.sat = Sat::kSat;
  } else if (opts_.propagation_only) {
    res.sat = Sat::kUnknown;
  } else {
    if (kDebugHard) {
      int shown = 0;
      fprintf(stderr, "HARD query ncs=%zu vars=%zu; undecided:\n",
              ctx.cs.size(), ctx.all_vars.size());
      for (ExprId c : ctx.cs) {
        const Interval iv = eval_interval(pool_, c, d);
        if (iv.contains(0) && shown < 12) {
          fprintf(stderr, "  %s\n", pool_.to_string(c).substr(0, 200).c_str());
          ++shown;
        }
      }
    }
    std::uint64_t budget = opts_.max_search_nodes;
    res.sat = search(ctx, d, res.model, budget);
  }
  if (res.sat == Sat::kUnknown && kDebugUnknown) {
    fprintf(stderr, "UNKNOWN query ncs=%zu last=%s\n", ctx.cs.size(),
            ctx.cs.empty() ? "-" : pool_.to_string(ctx.cs.back()).substr(0, 160).c_str());
  }
  stats_.solve_seconds += solve_sw.elapsed_seconds();
  return res;
}

}  // namespace statsym::solver
