// Satisfying-assignment reuse (the counterexample-cache fast path).
//
// Models from prior SAT answers are retained in a small bounded store; a new
// sub-query first re-evaluates those assignments concretely (cheap integer
// evaluation, no propagation or search) and returns kSat immediately when
// one still satisfies every constraint. Sibling states forked from a common
// prefix mostly append constraints the parent's model already satisfies, so
// this skips the decision procedure for the common case.
//
// The store is strictly per-solver: its contents depend on the owner's query
// history, which is deterministic for one worker but timing-dependent across
// workers. Keeping reuse local (and probing it *before* the cross-worker
// shared cache) is what preserves byte-identical verdicts at any --jobs —
// see the determinism argument in DESIGN.md §"Solver".
#pragma once

#include <deque>
#include <span>

#include "solver/expr.h"
#include "solver/result.h"

namespace statsym::solver {

class ModelCache {
 public:
  static constexpr std::size_t kCapacity = 32;  // models retained

  // Probes stored models (most recent first) against a sub-query. A model
  // is usable only when it assigns every variable of `vars`; on success
  // `out` receives the assignment restricted to `vars` and true is
  // returned. Evaluation uses the pool's concrete evaluator, so a hit is a
  // *proof* of satisfiability, never a heuristic.
  bool probe(const ExprPool& pool, std::span<const ExprId> cs,
             std::span<const VarId> vars, Model& out) const;

  // Records a satisfying assignment for future probes. Exact duplicates of
  // a stored model are dropped; beyond capacity the oldest entry is evicted.
  void remember(const Model& m);

  std::size_t size() const { return models_.size(); }
  void clear() { models_.clear(); }

 private:
  std::deque<Model> models_;  // front = most recent
};

}  // namespace statsym::solver
