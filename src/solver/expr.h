// Symbolic expression DAG with hash-consing.
//
// Plays the role of KLEE's Expr/STP layer: path constraints and symbolic
// register values are nodes in a shared pool. Hash-consing gives structural
// identity (equal trees share one id), which makes constraint-set caching and
// cheap equality possible. Construction goes through ExprPool::mk*, which
// applies algebraic simplification (solver/simplify.cc) so the pool only
// contains canonical nodes.
//
// The pool is single-owner (DESIGN.md §13): one executor, or one concolic
// lane across all of its follow runs, builds and reads it on one thread.
//   * every node carries its structural fingerprint, computed once at intern
//     time from the children's fingerprints. Variables fingerprint by
//     (name, lo, hi) — never by VarId — which is what lets canonical forms,
//     slice keys and cached models agree across pools.
//   * variables intern by (name, lo, hi): re-declaring the same symbolic
//     input on a sibling path (or in a later follow run on the same pool)
//     returns the same VarId, so constraint sets share structure instead of
//     renaming.
//   * each node's variable list is computed at most once (vars_of) and kept
//     for the pool's lifetime, so slicing a long path prefix again and again
//     never re-walks its constraint trees.
//
// The theory is integer arithmetic with comparisons and boolean structure —
// the fragment needed for the mini-IR's path constraints. String-length
// constraints are expressed over per-byte variables exactly as the paper's
// workaround does (footnote 2: "constrain the index at which the first '\0'
// resides").
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "solver/fp128.h"

namespace statsym::solver {

using ExprId = std::uint32_t;
using VarId = std::uint32_t;
inline constexpr ExprId kNoExpr = std::numeric_limits<ExprId>::max();

enum class ExprOp : std::uint8_t {
  kConst,  // imm
  kVar,    // var (VarId in imm)
  // Arithmetic (int64 wraparound semantics, matching ir::eval_binop).
  kAdd,
  kSub,
  kMul,
  kDiv,  // division by zero evaluates to 0 (screened before reaching here)
  kRem,
  kNeg,
  // Comparisons (result 0/1). kGt/kGe are normalised away at construction.
  kEq,
  kNe,
  kLt,
  kLe,
  // Boolean structure over truthiness (non-zero = true; result 0/1).
  kAnd,
  kOr,
  kNot,
  kIte,  // a ? b : c
};

const char* expr_op_name(ExprOp op);
bool is_cmp_op(ExprOp op);
bool is_bool_op(ExprOp op);  // cmp or and/or/not (result always 0/1)

struct VarInfo {
  std::string name;
  std::int64_t lo{std::numeric_limits<std::int64_t>::min()};
  std::int64_t hi{std::numeric_limits<std::int64_t>::max()};
  // Structural identity: fingerprint of (name, lo, hi). VarId deliberately
  // does not contribute, so the same declaration in two pools (or on two
  // sibling paths) has the same fingerprint.
  Fp128 fp{};
};

class ExprPool {
 public:
  ExprPool();

  // --- variables ---------------------------------------------------------
  // Interned: an exact (name, lo, hi) re-declaration returns the existing
  // VarId. Different bounds under the same name still mint a fresh variable.
  VarId new_var(std::string name, std::int64_t lo, std::int64_t hi);
  const VarInfo& var(VarId v) const { return vars_[v]; }
  std::size_t num_vars() const { return vars_.size(); }
  // Reverse lookup by structural fingerprint — how a cross-pool cached model
  // (var-fp keyed) is re-bound to this pool's VarIds. nullopt when this pool
  // never declared the variable.
  std::optional<VarId> find_var(const Fp128& fp) const;

  // --- construction (simplifying) ----------------------------------------
  ExprId constant(std::int64_t v);
  ExprId var_expr(VarId v);
  ExprId unary(ExprOp op, ExprId a);              // kNeg, kNot
  ExprId binary(ExprOp op, ExprId a, ExprId b);   // everything two-operand
  ExprId ite(ExprId c, ExprId t, ExprId f);

  ExprId true_expr() const { return true_; }
  ExprId false_expr() const { return false_; }

  // Convenience builders.
  ExprId add(ExprId a, ExprId b) { return binary(ExprOp::kAdd, a, b); }
  ExprId sub(ExprId a, ExprId b) { return binary(ExprOp::kSub, a, b); }
  ExprId mul(ExprId a, ExprId b) { return binary(ExprOp::kMul, a, b); }
  ExprId eq(ExprId a, ExprId b) { return binary(ExprOp::kEq, a, b); }
  ExprId ne(ExprId a, ExprId b) { return binary(ExprOp::kNe, a, b); }
  ExprId lt(ExprId a, ExprId b) { return binary(ExprOp::kLt, a, b); }
  ExprId le(ExprId a, ExprId b) { return binary(ExprOp::kLe, a, b); }
  ExprId gt(ExprId a, ExprId b) { return binary(ExprOp::kLt, b, a); }
  ExprId ge(ExprId a, ExprId b) { return binary(ExprOp::kLe, b, a); }
  ExprId land(ExprId a, ExprId b) { return binary(ExprOp::kAnd, a, b); }
  ExprId lor(ExprId a, ExprId b) { return binary(ExprOp::kOr, a, b); }
  ExprId lnot(ExprId a) { return unary(ExprOp::kNot, a); }

  // Coerces an arbitrary integer expression to a boolean one (e != 0).
  ExprId truthy(ExprId e);

  // --- inspection ----------------------------------------------------------
  ExprOp op(ExprId e) const { return nodes_[e].op; }
  bool is_const(ExprId e) const { return op(e) == ExprOp::kConst; }
  std::int64_t const_val(ExprId e) const { return nodes_[e].imm; }
  bool is_var(ExprId e) const { return op(e) == ExprOp::kVar; }
  VarId var_of(ExprId e) const { return static_cast<VarId>(nodes_[e].imm); }
  ExprId lhs(ExprId e) const { return nodes_[e].a; }
  ExprId rhs(ExprId e) const { return nodes_[e].b; }
  ExprId third(ExprId e) const { return nodes_[e].c; }

  // Structural fingerprint, computed once at intern time. Equal structure —
  // with variables identified by declaration, not VarId — means equal
  // fingerprint, in this pool or any other.
  const Fp128& fp(ExprId e) const { return nodes_[e].fp; }

  // Collects the variables occurring in `e` into `out`, deduplicated, in
  // first-occurrence DFS order (a pure function of the tree's structure, so
  // the order agrees across pools whatever ids they allocated first).
  void collect_vars(ExprId e, std::vector<VarId>& out) const;

  // The same list as collect_vars, computed once per node and kept for the
  // pool's lifetime: the span stays valid while the pool lives. Logically
  // const; the memo it fills is why the pool must stay single-owner.
  std::span<const VarId> vars_of(ExprId e) const;

  // Concrete evaluation under a total assignment (missing vars read 0).
  std::int64_t eval(ExprId e,
                    const std::unordered_map<VarId, std::int64_t>& asgn) const;

  std::string to_string(ExprId e) const;

  std::size_t num_nodes() const { return nodes_.size(); }

  // Raw interning used by construction after simplification decided the
  // final node shape. Exposed for the simplifier only.
  ExprId intern(ExprOp op, std::int64_t imm, ExprId a, ExprId b, ExprId c);

 private:
  struct Node {
    ExprOp op{ExprOp::kConst};
    std::int64_t imm{0};  // kConst value / kVar VarId
    ExprId a{kNoExpr}, b{kNoExpr}, c{kNoExpr};
    Fp128 fp{};
  };
  // Memoised vars_of list; n == kUnset until first computed.
  struct VarList {
    static constexpr std::uint32_t kUnset =
        std::numeric_limits<std::uint32_t>::max();
    const VarId* p{nullptr};
    std::uint32_t n{kUnset};
  };

  static std::size_t node_hash(ExprOp op, std::int64_t imm, ExprId a,
                               ExprId b, ExprId c);
  void grow_table();
  // Copies `vs` into block storage that never moves, so spans handed out by
  // vars_of survive later growth.
  std::span<const VarId> store_vars(std::span<const VarId> vs) const;

  std::vector<Node> nodes_;
  std::vector<VarInfo> vars_;
  // Open-addressing intern table of node ids (kNoExpr = empty slot), keyed
  // by the node fields themselves; power-of-two size, at most half full.
  std::vector<ExprId> table_;
  std::map<std::tuple<std::string, std::int64_t, std::int64_t>, VarId>
      var_intern_;
  std::unordered_map<Fp128, VarId, Fp128Hash> var_by_fp_;
  mutable std::vector<VarList> var_lists_;  // indexed by ExprId, grown lazily
  mutable std::vector<std::unique_ptr<VarId[]>> var_blocks_;
  mutable std::size_t var_block_used_{0};
  mutable std::size_t var_block_cap_{0};
  mutable std::vector<VarId> var_scratch_;
  ExprId true_{kNoExpr};
  ExprId false_{kNoExpr};
};

}  // namespace statsym::solver
