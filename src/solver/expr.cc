#include "solver/expr.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_set>

#include "solver/simplify.h"

namespace statsym::solver {

const char* expr_op_name(ExprOp op) {
  switch (op) {
    case ExprOp::kConst: return "const";
    case ExprOp::kVar: return "var";
    case ExprOp::kAdd: return "+";
    case ExprOp::kSub: return "-";
    case ExprOp::kMul: return "*";
    case ExprOp::kDiv: return "/";
    case ExprOp::kRem: return "%";
    case ExprOp::kNeg: return "neg";
    case ExprOp::kEq: return "==";
    case ExprOp::kNe: return "!=";
    case ExprOp::kLt: return "<";
    case ExprOp::kLe: return "<=";
    case ExprOp::kAnd: return "&&";
    case ExprOp::kOr: return "||";
    case ExprOp::kNot: return "!";
    case ExprOp::kIte: return "ite";
  }
  return "?";
}

bool is_cmp_op(ExprOp op) {
  return op == ExprOp::kEq || op == ExprOp::kNe || op == ExprOp::kLt ||
         op == ExprOp::kLe;
}

bool is_bool_op(ExprOp op) {
  return is_cmp_op(op) || op == ExprOp::kAnd || op == ExprOp::kOr ||
         op == ExprOp::kNot;
}

std::size_t ExprPool::node_hash(ExprOp op, std::int64_t imm, ExprId a,
                                ExprId b, ExprId c) {
  // splitmix64-style finaliser over the packed fields.
  std::uint64_t h = static_cast<std::uint64_t>(imm) * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(a) << 32 | b) + 0x632be59bd9b4e019ULL +
       (h << 6) + (h >> 2);
  h ^= (static_cast<std::uint64_t>(c) << 8 | static_cast<std::uint64_t>(op)) +
       0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h);
}

ExprPool::ExprPool() : table_(64, kNoExpr) {
  false_ = constant(0);
  true_ = constant(1);
}

VarId ExprPool::new_var(std::string name, std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  auto key = std::make_tuple(name, lo, hi);
  if (const auto it = var_intern_.find(key); it != var_intern_.end()) {
    return it->second;
  }
  VarInfo vi{std::move(name), lo, hi, {}};
  Fp128 fp{0x9159015a3070dd17ULL, 0x152fecd8f70e5939ULL};
  fp = fp_absorb(fp, fp_hash_str(vi.name));
  fp = fp_absorb(fp, static_cast<std::uint64_t>(lo));
  fp = fp_absorb(fp, static_cast<std::uint64_t>(hi));
  vi.fp = fp;
  const auto v = static_cast<VarId>(vars_.size());
  vars_.push_back(std::move(vi));
  var_intern_.emplace(std::move(key), v);
  var_by_fp_.emplace(fp, v);
  return v;
}

std::optional<VarId> ExprPool::find_var(const Fp128& fp) const {
  const auto it = var_by_fp_.find(fp);
  if (it == var_by_fp_.end()) return std::nullopt;
  return it->second;
}

void ExprPool::grow_table() {
  std::vector<ExprId> bigger(table_.size() * 2, kNoExpr);
  const std::size_t mask = bigger.size() - 1;
  for (ExprId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    std::size_t i = node_hash(n.op, n.imm, n.a, n.b, n.c) & mask;
    while (bigger[i] != kNoExpr) i = (i + 1) & mask;
    bigger[i] = id;
  }
  table_ = std::move(bigger);
}

ExprId ExprPool::intern(ExprOp op, std::int64_t imm, ExprId a, ExprId b,
                        ExprId c) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = node_hash(op, imm, a, b, c) & mask;
  for (;; i = (i + 1) & mask) {
    const ExprId id = table_[i];
    if (id == kNoExpr) break;
    const Node& n = nodes_[id];
    if (n.op == op && n.imm == imm && n.a == a && n.b == b && n.c == c) {
      return id;
    }
  }

  Fp128 fp{0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL};
  fp = fp_absorb(fp, static_cast<std::uint64_t>(op));
  switch (op) {
    case ExprOp::kConst:
      fp = fp_absorb(fp, static_cast<std::uint64_t>(imm));
      break;
    case ExprOp::kVar:
      // Identify by declaration, not VarId: fingerprints (and everything
      // keyed on them) agree across pools with different numbering.
      fp = fp_absorb(fp, vars_[static_cast<std::size_t>(imm)].fp);
      break;
    default:
      if (a != kNoExpr) fp = fp_absorb(fp, nodes_[a].fp);
      if (b != kNoExpr) fp = fp_absorb(fp, nodes_[b].fp);
      if (c != kNoExpr) fp = fp_absorb(fp, nodes_[c].fp);
      break;
  }

  const auto id = static_cast<ExprId>(nodes_.size());
  nodes_.push_back(Node{op, imm, a, b, c, fp});
  table_[i] = id;
  if (nodes_.size() * 2 > table_.size()) grow_table();
  return id;
}

ExprId ExprPool::constant(std::int64_t v) {
  return intern(ExprOp::kConst, v, kNoExpr, kNoExpr, kNoExpr);
}

ExprId ExprPool::var_expr(VarId v) {
  assert(v < vars_.size());
  return intern(ExprOp::kVar, static_cast<std::int64_t>(v), kNoExpr, kNoExpr,
                kNoExpr);
}

ExprId ExprPool::unary(ExprOp op, ExprId a) {
  return simplify_unary(*this, op, a);
}

ExprId ExprPool::binary(ExprOp op, ExprId a, ExprId b) {
  return simplify_binary(*this, op, a, b);
}

ExprId ExprPool::ite(ExprId c, ExprId t, ExprId f) {
  return simplify_ite(*this, c, t, f);
}

ExprId ExprPool::truthy(ExprId e) {
  if (is_bool_op(op(e))) return e;  // already 0/1-valued
  return ne(e, constant(0));
}

void ExprPool::collect_vars(ExprId e, std::vector<VarId>& out) const {
  // First-occurrence DFS order: a pure function of the tree, so every pool
  // reports the same sequence regardless of the ids it allocated. Small
  // fixed-capacity seen-buffer covers the common shallow expressions without
  // hashing; the set engages only past that.
  constexpr std::size_t kSmall = 24;
  ExprId small_seen[kSmall];
  std::size_t n_small = 0;
  std::unordered_set<ExprId> seen;
  auto mark = [&](ExprId id) -> bool {  // returns true when newly seen
    if (n_small < kSmall) {
      for (std::size_t i = 0; i < n_small; ++i) {
        if (small_seen[i] == id) return false;
      }
      small_seen[n_small++] = id;
      return true;
    }
    if (n_small == kSmall) {  // spill to the set once
      seen.insert(small_seen, small_seen + kSmall);
      ++n_small;
    }
    return seen.insert(id).second;
  };

  std::vector<ExprId> work;
  work.reserve(16);
  work.push_back(e);
  while (!work.empty()) {
    const ExprId cur = work.back();
    work.pop_back();
    if (!mark(cur)) continue;
    const Node& n = nodes_[cur];
    if (n.op == ExprOp::kVar) {
      const auto v = static_cast<VarId>(n.imm);
      bool dup = false;
      for (const VarId prev : out) {
        if (prev == v) { dup = true; break; }
      }
      if (!dup) out.push_back(v);
      continue;
    }
    // Push in reverse so a, b, c pop in source order (stable first-occurrence
    // sequencing for the variables).
    if (n.c != kNoExpr) work.push_back(n.c);
    if (n.b != kNoExpr) work.push_back(n.b);
    if (n.a != kNoExpr) work.push_back(n.a);
  }
}

std::span<const VarId> ExprPool::vars_of(ExprId e) const {
  if (var_lists_.size() <= e) var_lists_.resize(nodes_.size());
  VarList& memo = var_lists_[e];
  if (memo.n == VarList::kUnset) {
    var_scratch_.clear();
    collect_vars(e, var_scratch_);
    const std::span<const VarId> stored = store_vars(var_scratch_);
    memo.p = stored.data();
    memo.n = static_cast<std::uint32_t>(stored.size());
  }
  return {memo.p, memo.n};
}

std::span<const VarId> ExprPool::store_vars(std::span<const VarId> vs) const {
  if (vs.empty()) return {};
  if (var_block_cap_ - var_block_used_ < vs.size()) {
    constexpr std::size_t kBlock = 4096;
    var_block_cap_ = std::max(kBlock, vs.size());
    var_blocks_.push_back(std::make_unique<VarId[]>(var_block_cap_));
    var_block_used_ = 0;
  }
  VarId* out = var_blocks_.back().get() + var_block_used_;
  std::copy(vs.begin(), vs.end(), out);
  var_block_used_ += vs.size();
  return {out, vs.size()};
}

std::int64_t ExprPool::eval(
    ExprId e, const std::unordered_map<VarId, std::int64_t>& asgn) const {
  const Node& n = nodes_[e];
  switch (n.op) {
    case ExprOp::kConst:
      return n.imm;
    case ExprOp::kVar: {
      auto it = asgn.find(static_cast<VarId>(n.imm));
      return it == asgn.end() ? 0 : it->second;
    }
    case ExprOp::kNeg:
      return static_cast<std::int64_t>(
          0 - static_cast<std::uint64_t>(eval(n.a, asgn)));
    case ExprOp::kNot:
      return eval(n.a, asgn) == 0 ? 1 : 0;
    case ExprOp::kIte:
      return eval(n.a, asgn) != 0 ? eval(n.b, asgn) : eval(n.c, asgn);
    default:
      break;
  }
  const std::int64_t a = eval(n.a, asgn);
  const std::int64_t b = eval(n.b, asgn);
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (n.op) {
    case ExprOp::kAdd: return static_cast<std::int64_t>(ua + ub);
    case ExprOp::kSub: return static_cast<std::int64_t>(ua - ub);
    case ExprOp::kMul: return static_cast<std::int64_t>(ua * ub);
    case ExprOp::kDiv:
      if (b == 0) return 0;  // screened before expr construction
      if (a == INT64_MIN && b == -1) return INT64_MIN;
      return a / b;
    case ExprOp::kRem:
      if (b == 0) return 0;
      if (a == INT64_MIN && b == -1) return 0;
      return a % b;
    case ExprOp::kEq: return a == b;
    case ExprOp::kNe: return a != b;
    case ExprOp::kLt: return a < b;
    case ExprOp::kLe: return a <= b;
    case ExprOp::kAnd: return (a != 0) && (b != 0);
    case ExprOp::kOr: return (a != 0) || (b != 0);
    default:
      assert(false && "unhandled op");
      return 0;
  }
}

std::string ExprPool::to_string(ExprId e) const {
  const Node& n = nodes_[e];
  switch (n.op) {
    case ExprOp::kConst:
      return std::to_string(n.imm);
    case ExprOp::kVar:
      return vars_[static_cast<std::size_t>(n.imm)].name;
    case ExprOp::kNeg:
      return "-(" + to_string(n.a) + ")";
    case ExprOp::kNot:
      return "!(" + to_string(n.a) + ")";
    case ExprOp::kIte:
      return "(" + to_string(n.a) + " ? " + to_string(n.b) + " : " +
             to_string(n.c) + ")";
    default:
      return "(" + to_string(n.a) + " " + expr_op_name(n.op) + " " +
             to_string(n.b) + ")";
  }
}

}  // namespace statsym::solver
