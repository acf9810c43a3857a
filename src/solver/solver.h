// Constraint solver over the expression DAG.
//
// The STP stand-in: decides satisfiability of conjunctions of boolean
// expressions and produces models (used to generate the concrete crashing
// inputs the paper reports). The algorithm is interval constraint
// propagation (HC4-style narrowing) to a fixpoint, followed by
// branch-and-bound search that bisects variable domains. Over the bounded
// domains used by the mini-IR programs (input bytes in [0,255], lengths and
// counters in small ranges) the procedure is complete given enough budget;
// exhausting the budget yields kUnknown, which callers treat conservatively.
//
// A query-optimization layer sits between check()/check_with() and that
// decision procedure: independence slicing (solver/slicer.h) partitions each
// query into variable-disjoint sub-queries, and every slice probes the
// per-owner local cache, then the cross-worker shared cache (both
// solver/cache.h), before the procedure is invoked. Canonical solves are pure
// functions of the slice structure (RNG seeded from the slice digest), so
// any cache hit is bit-identical to the solve it replaces and a slice's
// answer never depends on the solver's query history; see DESIGN.md
// §"Solver" for the determinism argument.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "solver/cache.h"
#include "solver/expr.h"
#include "solver/interval.h"
#include "solver/result.h"
#include "solver/slicer.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace statsym::solver {

// Sparse variable-domain map layered over the pool's declared domains.
//
// Two-tier copy-on-write (DESIGN.md §13): a mutable overlay private to the
// owner plus an optional frozen chain of immutable base layers shared with
// fork siblings. Solver-internal maps never fork, keep a null chain and
// behave exactly like the old flat map (plain copies stay cheap: the copy
// shares the chain pointer and duplicates only the overlay). Path-constraint
// maps fork at every state clone, so a fork copies O(overlay) entries
// instead of every domain ever narrowed on the path.
class DomainMap {
 public:
  Interval get(VarId v, const ExprPool& p) const {
    if (const auto it = map_.find(v); it != map_.end()) return it->second;
    for (const Layer* l = base_.get(); l != nullptr; l = l->prev.get()) {
      if (const auto it = l->map.find(v); it != l->map.end()) {
        return it->second;
      }
    }
    const VarInfo& vi = p.var(v);
    return {vi.lo, vi.hi};
  }

  void set(VarId v, Interval iv) {
    auto [it, inserted] = map_.try_emplace(v, iv);
    if (!inserted) {
      if (!(it->second == iv)) {
        it->second = iv;
        ++version_;
      }
      return;
    }
    // First overlay write for v: the change counter moves only when the
    // value differs from what the frozen chain already recorded, preserving
    // the flat map's quiescence semantics across forks.
    for (const Layer* l = base_.get(); l != nullptr; l = l->prev.get()) {
      if (const auto cit = l->map.find(v); cit != l->map.end()) {
        if (!(cit->second == iv)) ++version_;
        return;
      }
    }
    ++version_;
  }

  // Monotone change counter: compare across a propagation sweep to detect
  // quiescence without snapshotting the map.
  std::uint64_t version() const { return version_; }

  // Freezes the overlay into the shared chain and returns a sibling sharing
  // every narrowing recorded so far. Flattens when the chain gets deep so
  // get() stays O(small).
  DomainMap fork() {
    if (!map_.empty()) {
      const std::uint32_t depth = base_ ? base_->depth + 1 : 0;
      auto layer = std::make_shared<Layer>();
      if (depth >= kMaxDepth) {
        // Merge oldest→newest so newer narrowings win.
        std::vector<const Layer*> chain;
        for (const Layer* l = base_.get(); l != nullptr; l = l->prev.get()) {
          chain.push_back(l);
        }
        for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
          for (const auto& [v, iv] : (*rit)->map) layer->map[v] = iv;
        }
        for (const auto& [v, iv] : map_) layer->map[v] = iv;
        base_count_ = layer->map.size();
      } else {
        layer->prev = base_;
        layer->depth = depth;
        layer->map = std::move(map_);
        base_count_ += layer->map.size();
      }
      base_ = std::move(layer);
      map_.clear();
    }
    return *this;
  }

  // Approximate heap footprint, used for KLEE-style state memory accounting.
  // Counts the full logical contents (chain + overlay): the budget tracks
  // what the path retains, shared or not.
  std::size_t byte_size() const {
    return (map_.size() + base_count_) * (sizeof(VarId) + sizeof(Interval) + 16);
  }

  // Bytes a fork/copy actually duplicates (the overlay; the chain is shared).
  std::size_t shallow_bytes() const {
    return map_.size() * (sizeof(VarId) + sizeof(Interval) + 16);
  }

 private:
  struct Layer {
    std::shared_ptr<const Layer> prev;
    std::unordered_map<VarId, Interval> map;
    std::uint32_t depth{0};
  };
  static constexpr std::uint32_t kMaxDepth = 8;

  std::unordered_map<VarId, Interval> map_;  // mutable overlay
  std::shared_ptr<const Layer> base_;        // frozen shared chain
  std::size_t base_count_{0};  // entries across the chain (with shadowing)
  std::uint64_t version_{0};
};

// Interval evaluation of an expression under a domain map. Boolean-valued
// operators yield [0,0], [1,1] or [0,1].
Interval eval_interval(const ExprPool& p, ExprId e, const DomainMap& d);

// Evaluation context with memoisation. One context serves one top-level
// propagate() call: narrowing a variable mid-propagation leaves memoised
// intervals stale-but-wider, which keeps the derived targets sound (they
// over-approximate), merely a little less precise. Without the memo,
// narrowing a deep expression spine re-evaluates sibling subtrees at every
// level — O(n²) on the accumulator expressions the apps build in loops.
class EvalCtx {
 public:
  EvalCtx(const ExprPool& p, const DomainMap& d) : p_(p), d_(d) {}
  Interval eval(ExprId e);

 private:
  const ExprPool& p_;
  const DomainMap& d_;
  std::unordered_map<ExprId, Interval> memo_;
};

// Narrows `d` under the assumption that boolean expression `e` has truth
// value `want`. Returns false when a contradiction (empty domain) is
// derived. One pass; drive to fixpoint by re-running while domains change.
bool propagate(const ExprPool& p, ExprId e, bool want, DomainMap& d);

struct SolverStats {
  std::uint64_t queries{0};
  std::uint64_t sat{0};
  std::uint64_t unsat{0};
  std::uint64_t unknown{0};
  // Query-optimization layer (per sliced sub-query, in probe order):
  std::uint64_t cache_hits{0};        // local per-slice cache hits
  // Always 0: model reuse is gone. Kept only because perfbench reads it;
  // remove with that read in the next benchmark-defining change.
  std::uint64_t model_reuse_hits{0};
  std::uint64_t shared_cache_hits{0};  // cross-worker shared cache hits
  // Sliced sub-queries decided; a query stops at its first unsat slice, so
  // slices == cache_hits + shared_cache_hits + solves.
  std::uint64_t slices{0};
  std::uint64_t multi_slice_queries{0};  // queries that split into >1 slice
  std::uint64_t solves{0};            // full decision-procedure invocations
  double solve_seconds{0.0};          // wall time inside those invocations
  std::uint64_t search_nodes{0};
  std::uint64_t propagation_rounds{0};
  // Branch queries the symbolic executor never issued because the static
  // analysis (src/analysis/) had already decided the branch.
  std::uint64_t static_prunes{0};

  SolverStats& operator+=(const SolverStats& o) {
    queries += o.queries;
    sat += o.sat;
    unsat += o.unsat;
    unknown += o.unknown;
    cache_hits += o.cache_hits;
    shared_cache_hits += o.shared_cache_hits;
    slices += o.slices;
    multi_slice_queries += o.multi_slice_queries;
    solves += o.solves;
    solve_seconds += o.solve_seconds;
    search_nodes += o.search_nodes;
    propagation_rounds += o.propagation_rounds;
    static_prunes += o.static_prunes;
    return *this;
  }

  // Fraction of sliced sub-queries answered without the decision procedure.
  double fast_path_rate() const {
    const std::uint64_t hits = cache_hits + shared_cache_hits;
    return slices == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(slices);
  }
  // Estimated solver wall time the fast paths avoided (hits × mean solve).
  double solve_seconds_saved() const {
    if (solves == 0) return 0.0;
    const std::uint64_t hits = cache_hits + shared_cache_hits;
    return static_cast<double>(hits) * (solve_seconds /
                                        static_cast<double>(solves));
  }
};

struct SolverOptions {
  // Maximum branch-and-bound nodes per query before giving up (kUnknown).
  std::uint64_t max_search_nodes{4'000};
  // Maximum propagation sweeps over the constraint set per fixpoint.
  int max_fixpoint_rounds{8};
  // Wall-clock deadline per query; exceeded searches return kUnknown
  // (callers treat unknown conservatively). Keeps one pathological query
  // from starving the whole exploration.
  double max_query_seconds{0.25};
  // Random full assignments attempted per search node before bisecting —
  // very effective on wide disjunctions ("some byte is uppercase") where
  // boundary probes (lo/hi/mid) systematically miss.
  int random_model_tries{8};
  std::uint64_t seed{0x5eed};
  // Disables the search phase: pure interval propagation. Faster but
  // incomplete — kept for the ablation benchmark.
  bool propagation_only{false};
  // --- query-optimization layer (see DESIGN.md §"Solver") -----------------
  // Partition each query into variable-independence slices and decide (and
  // cache) them separately.
  bool enable_slicing{true};
};

class Solver {
 public:
  explicit Solver(ExprPool& pool, SolverOptions opts = {});

  // Optional per-owner query cache (see solver/cache.h). Entries record
  // this solver's own returned results; safe for any single-threaded owner.
  void set_cache(QueryCache* cache) { cache_ = cache; }
  // Optional cross-worker cache. Receives only canonical solve results and
  // must outlive the solver; safe to share across threads.
  void set_shared_cache(SharedQueryCache* cache) { shared_ = cache; }
  // Optional structured tracing (obs/trace.h): one kSolverQuery event per
  // check(), one kSolverSlice event per sliced sub-query. Shared-cache hits
  // and canonical solves report the same level (they are bit-identical by
  // construction), so the event stream stays schedule-invariant.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }

  // Decides the conjunction of `constraints`. With slicing enabled the set
  // is partitioned into independent sub-queries decided (and cached)
  // separately; the combined verdict and merged model are equivalent to the
  // whole-set solve.
  SolveResult check(std::span<const ExprId> constraints);

  // Convenience: satisfiability of `constraints ∧ extra`.
  SolveResult check_with(std::span<const ExprId> constraints, ExprId extra);

  const SolverStats& stats() const { return stats_; }
  ExprPool& pool() { return pool_; }

 private:
  // Per-query context of a canonical solve: the digest-ordered constraints
  // and the canonical variable order. Each constraint's own variables come
  // from ExprPool::vars_of.
  struct QueryCtx {
    std::vector<ExprId> cs;
    std::vector<VarId> all_vars;
  };

  // check() and check_with(): drops constant-true constraints (and `extra`
  // when it is kNoExpr), then slices and decides.
  SolveResult check_impl(std::span<const ExprId> constraints, ExprId extra);

  // Decides one independence slice: local cache, then shared cache, then
  // canonical solve. Every step returns the canonical answer, so the result
  // is a pure function of the slice (DESIGN.md §"Solver").
  SolveResult solve_slice(const Slice& slice);

  // The canonical decision procedure on one slice: constraints in
  // fingerprint order, RNG seeded from the slice digest — a pure function
  // of the slice structure, identical in every worker.
  SolveResult solve_canonical(const Slice& slice,
                              std::span<const std::size_t> order,
                              const Fp128& slice_fp);

  // Runs propagation over all constraints to a fixpoint. Returns false on
  // contradiction.
  bool fixpoint(const QueryCtx& ctx, DomainMap& d);

  // Attempts cheap candidate models (domain boundaries, midpoints, random
  // samples). Returns true and fills `model` when one satisfies everything.
  bool try_models(const QueryCtx& ctx, const DomainMap& d, Model& model);

  // Greedy repair of a failing assignment against counting constraints
  // (K <= Σ indicators, Σ <= K). Returns true when `m` satisfies the whole
  // query after repair.
  bool repair_model(const QueryCtx& ctx, const DomainMap& d, Model& m);

  // Recursive bisection search. Returns kSat/kUnsat, or kUnknown when the
  // node budget runs out.
  Sat search(const QueryCtx& ctx, DomainMap d, Model& model,
             std::uint64_t& budget);

  // Picks the variable to branch on: smallest non-point domain among the
  // variables of undecided constraints. Returns false if all decided.
  // When an undecided constraint has the shape `var != const` with the
  // constant strictly inside the domain, the constant is reported as a
  // *hole*: splitting there resolves the constraint in one node, where
  // midpoint bisection would need log(width) nodes per disequality.
  bool pick_branch_var(const QueryCtx& ctx, const DomainMap& d, VarId& out,
                       bool& has_hole, std::int64_t& hole) const;

  ExprPool& pool_;
  SolverOptions opts_;
  SolverStats stats_;
  QueryCache* cache_{nullptr};
  SharedQueryCache* shared_{nullptr};
  obs::TraceBuffer* trace_{nullptr};
  ExprFingerprinter fp_;
  Fp128 opts_salt_;  // namespaces shared-cache keys by option tier
  // Reseeded per canonical solve from the slice digest, so every solve is a
  // pure function of the slice (cache hit ≡ recomputation).
  Rng rng_;
  Stopwatch query_sw_;  // restarted per check(); read by search()

  // Scratch reused across queries — owned here rather than thread_local, so
  // an idle serve pool thread keeps none of it alive.
  Slicer slicer_;
  std::vector<ExprId> cs_buf_;          // check(): non-constant constraints
  std::vector<ExprId> sorted_buf_;      // solve_slice(): local cache key
  std::vector<Fp128> fps_buf_;          // solve_slice(): per-constraint digest
  std::vector<std::size_t> order_buf_;  // solve_slice(): digest order
  std::vector<Fp128> sorted_fps_buf_;   // solve_slice(): shared cache key
  QueryCtx ctx_;                        // solve_canonical()
  VarMarks var_marks_;                  // solve_canonical(): variable order
};

}  // namespace statsym::solver
