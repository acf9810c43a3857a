// Constraint independence slicing.
//
// A query's constraint set is partitioned into connected components of the
// constraint–variable graph: two constraints land in the same slice iff they
// (transitively) share a symbolic variable. Each slice can be decided
// independently — the conjunction is satisfiable iff every slice is, and a
// model for the whole query is the union of the per-slice models (the var
// sets are disjoint by construction). This is KLEE's independence solver:
// sibling states forked from a common prefix mostly differ in one component,
// so per-slice cache keys hit where whole-query keys would miss, and the
// decision procedure only ever searches the component the new constraint
// touches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "solver/expr.h"

namespace statsym::solver {

// One independent sub-query. Constraints keep their original (path) order
// within the slice; their variables come from ExprPool::vars_of.
struct Slice {
  std::vector<ExprId> cs;
};

// Per-VarId marks for one pass over a query, reset in O(1) by bumping an
// epoch stamp (the table is rewritten only when the 32-bit epoch wraps).
class VarMarks {
 public:
  // Starts a pass over a pool with `num_vars` variables.
  void begin(std::size_t num_vars);
  // Marks `v`; true when it was not yet marked in this pass.
  bool mark(VarId v) {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_{0};
};

// Reusable slicing state. Variable-indexed tables are stamped with a
// per-query epoch instead of being cleared, and the returned slices keep
// their buffers between calls, so a steady stream of queries allocates
// nothing once the tables have grown to the pool's size. Single-owner, like
// the pool it reads.
class Slicer {
 public:
  // Partitions `cs` into independent slices. Deterministic: slices are
  // ordered by the index of their first constraint in `cs`. Variable-free
  // constraints (not folded to constants upstream) each form their own
  // slice. Duplicate constraint ids are kept; they simply ride along in their
  // component. The span is valid until the next call.
  std::span<const Slice> slice(const ExprPool& pool,
                               std::span<const ExprId> cs);

  // The degenerate single-slice partition (slicing disabled): everything in
  // one slice.
  std::span<const Slice> whole(const ExprPool& pool,
                               std::span<const ExprId> cs);

 private:
  // Starts a query over a pool with `num_vars` variables.
  void begin(std::size_t num_vars);
  Slice& add_slice();
  std::uint32_t find(std::uint32_t x);

  std::vector<Slice> slices_;  // [0, used_) are the current result
  std::size_t used_{0};
  // Per VarId: the first constraint mentioning it (valid once marked in
  // first_seen_).
  VarMarks first_seen_;
  std::vector<std::uint32_t> first_;
  // Per constraint index: union-find parent, and the slice its root maps to.
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> root_slice_;
};

}  // namespace statsym::solver
