// Query caches for the solver (the KLEE counterexample-cache analogue).
//
// Two layers with different keys and lifetimes:
//
//  * QueryCache — one solver's own (today only the concolic negation
//    solver's, one per followed run), keyed on the *sorted constraint id
//    vector* of a sliced sub-query. Hash-consing makes ExprIds canonical
//    within a pool, so the sorted vector is a canonical key there. Entries
//    store the full id vector and verify it on lookup: a 64-bit hash
//    collision returns a miss, never another query's result. Keys carry no
//    budget-tier salt, so one QueryCache must never serve two solvers of
//    different tiers.
//
//  * SharedQueryCache — one instance shared by every solver of an
//    analysis (its candidates and engine lanes) and, in service mode, by
//    every request for the same program, which the serve pool may run
//    concurrently. ExprIds are pool-local, so keys are 128-bit *structural
//    fingerprints* of the sliced sub-query: a digest over the expression
//    DAG in which variables contribute (name, domain) — never VarId. Stored
//    models are therefore keyed by variable fingerprint and re-bound to the
//    looking pool's VarIds on lookup (ExprPool::find_var), which lets hits
//    transfer between pools that allocated their variables in different
//    orders. Shards with independent locks keep worker contention low.
//
// Only *canonical* results enter the shared cache — results computed by the
// deterministic per-query decision procedure, never budget-limited
// kUnknowns — so a shared hit is bit-identical to the solve the worker would
// otherwise have performed. That invariant is what keeps verdicts
// independent of worker timing; see DESIGN.md §"Solver".
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "solver/expr.h"
#include "solver/fp128.h"
#include "solver/result.h"

namespace statsym::solver {

class QueryCache {
 public:
  // FNV-1a over the id sequence. Input must be sorted for canonical keys.
  static std::uint64_t key_of(std::span<const ExprId> sorted_ids);

  const SolveResult* lookup(std::span<const ExprId> sorted_ids) const;
  void insert(std::span<const ExprId> sorted_ids, const SolveResult& result);

  // Keyed variants: the regression seam for hash collisions. Two distinct
  // id vectors inserted under one forced key must each resolve to their own
  // result (and unknown vectors to a miss) — the pre-verification cache
  // returned whichever entry owned the key.
  const SolveResult* lookup_with_key(std::uint64_t key,
                                     std::span<const ExprId> sorted_ids) const;
  void insert_with_key(std::uint64_t key, std::span<const ExprId> sorted_ids,
                       const SolveResult& result);

  std::size_t size() const { return entries_; }
  void clear() {
    map_.clear();
    entries_ = 0;
  }

 private:
  struct Entry {
    std::vector<ExprId> ids;  // verified on lookup
    SolveResult result;
  };
  // Bucket list per key: colliding queries coexist instead of clobbering.
  std::unordered_map<std::uint64_t, std::vector<Entry>> map_;
  std::size_t entries_{0};
};

// Combines a sequence of constraint digests (ExprPool::fp, pre-sorted by the
// caller for a canonical key) into one query digest. `salt` namespaces the
// key — the solver mixes in its option tier so fork-budget and
// validation-budget results never alias.
Fp128 combine_fps(std::span<const Fp128> sorted_fps, const Fp128& salt);

// One cache entry in pool-independent form: the full 128-bit combined key,
// the sorted per-constraint digests it verifies against, and the result with
// its model keyed by variable fingerprint. This is the unit the disk store
// (solver/cache_store.h) serialises — nothing in it references an ExprPool,
// so an entry written by one process is meaningful to any other.
struct PortableCacheEntry {
  Fp128 key;
  std::vector<Fp128> cs_fps;
  Sat sat{Sat::kUnknown};
  std::vector<std::pair<Fp128, std::int64_t>> model;  // sorted by var fp
};

// Thread-safe sharded cache shared across executors and across concurrent
// serve requests.
class SharedQueryCache {
 public:
  explicit SharedQueryCache(std::size_t shards = 16);

  // On hit rebuilds the stored result against `pool` (models are stored
  // keyed by variable fingerprint and re-bound via ExprPool::find_var) and
  // copies it into `out`. `cs_fps` (the sorted per-constraint digests) is
  // compared against the stored vector, so even a combined-key collision
  // cannot cross-wire two queries; a model variable the looking pool never
  // declared turns the probe into a miss.
  bool lookup(const ExprPool& pool, const Fp128& key,
              std::span<const Fp128> cs_fps, SolveResult& out) const;
  void insert(const ExprPool& pool, const Fp128& key,
              std::span<const Fp128> cs_fps, const SolveResult& result);

  std::size_t size() const;

  // Snapshot of every entry in pool-independent form, sorted by (key,
  // cs_fps) so two caches holding the same entries serialise byte-identically
  // regardless of insertion schedule. Used by the disk store.
  std::vector<PortableCacheEntry> export_entries() const;

  // Re-inserts a portable entry (e.g. one loaded from the disk store).
  // Deduplicates exactly like insert(): an existing entry with the same key
  // and constraint digests wins, so importing over a live cache never
  // replaces a result a worker may already have observed. kUnknown results
  // are refused — only canonical sat/unsat verdicts may enter, the same
  // contract insert() relies on (DESIGN.md §"Solver").
  void import_entry(const PortableCacheEntry& e);

  struct Counters {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t insertions{0};
  };
  Counters counters() const;

 private:
  struct Entry {
    Fp128 key;  // full combined key (the map is bucketed by key.lo only)
    std::vector<Fp128> cs_fps;
    Sat sat{Sat::kUnknown};
    // Model keyed by variable fingerprint, sorted — pool-independent.
    std::vector<std::pair<Fp128, std::int64_t>> model;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::vector<Entry>> map;
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t insertions{0};
  };

  Shard& shard_of(const Fp128& key) const {
    return shards_[static_cast<std::size_t>(key.hi) % shards_.size()];
  }

  // deque: Shard holds a mutex and must never be moved.
  mutable std::deque<Shard> shards_;
};

}  // namespace statsym::solver
