#include "solver/cache.h"

#include <algorithm>

namespace statsym::solver {

namespace {

bool ids_equal(std::span<const ExprId> a, const std::vector<ExprId>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

// --- QueryCache ------------------------------------------------------------

std::uint64_t QueryCache::key_of(std::span<const ExprId> sorted_ids) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (ExprId id : sorted_ids) {
    h ^= id;
    h *= 0x100000001b3ULL;
  }
  // Never return 0 so callers can use 0 as "no key".
  return h == 0 ? 1 : h;
}

const SolveResult* QueryCache::lookup(
    std::span<const ExprId> sorted_ids) const {
  return lookup_with_key(key_of(sorted_ids), sorted_ids);
}

const SolveResult* QueryCache::lookup_with_key(
    std::uint64_t key, std::span<const ExprId> sorted_ids) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  for (const Entry& e : it->second) {
    if (ids_equal(sorted_ids, e.ids)) return &e.result;
  }
  return nullptr;
}

void QueryCache::insert(std::span<const ExprId> sorted_ids,
                        const SolveResult& result) {
  insert_with_key(key_of(sorted_ids), sorted_ids, result);
}

void QueryCache::insert_with_key(std::uint64_t key,
                                 std::span<const ExprId> sorted_ids,
                                 const SolveResult& result) {
  auto& bucket = map_[key];
  for (Entry& e : bucket) {
    if (ids_equal(sorted_ids, e.ids)) {
      e.result = result;
      return;
    }
  }
  bucket.push_back(
      Entry{{sorted_ids.begin(), sorted_ids.end()}, result});
  ++entries_;
}

// --- combine_fps -----------------------------------------------------------

Fp128 combine_fps(std::span<const Fp128> sorted_fps, const Fp128& salt) {
  Fp128 h{0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL};
  h = fp_absorb(h, salt);
  h = fp_absorb(h, static_cast<std::uint64_t>(sorted_fps.size()));
  for (const Fp128& fp : sorted_fps) h = fp_absorb(h, fp);
  return h;
}

// --- SharedQueryCache ------------------------------------------------------

SharedQueryCache::SharedQueryCache(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

bool SharedQueryCache::lookup(const ExprPool& pool, const Fp128& key,
                              std::span<const Fp128> cs_fps,
                              SolveResult& out) const {
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key.lo);
  if (it != s.map.end()) {
    for (const Entry& e : it->second) {
      if (!std::equal(cs_fps.begin(), cs_fps.end(), e.cs_fps.begin(),
                      e.cs_fps.end())) {
        continue;
      }
      // Re-bind the fingerprint-keyed model to this pool's VarIds. A
      // variable the looking pool never declared means the entry cannot be
      // expressed here; fall through to a miss rather than return a model
      // with holes.
      SolveResult res;
      res.sat = e.sat;
      bool bindable = true;
      for (const auto& [vfp, val] : e.model) {
        const auto v = pool.find_var(vfp);
        if (!v) {
          bindable = false;
          break;
        }
        res.model.emplace(*v, val);
      }
      if (!bindable) break;
      out = std::move(res);
      ++s.hits;
      return true;
    }
  }
  ++s.misses;
  return false;
}

void SharedQueryCache::insert(const ExprPool& pool, const Fp128& key,
                              std::span<const Fp128> cs_fps,
                              const SolveResult& result) {
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto& bucket = s.map[key.lo];
  for (const Entry& e : bucket) {
    // Canonical solves are pure functions of the query, so a racing
    // duplicate insert carries an identical result; keep the first.
    if (std::equal(cs_fps.begin(), cs_fps.end(), e.cs_fps.begin(),
                   e.cs_fps.end())) {
      return;
    }
  }
  Entry entry;
  entry.key = key;
  entry.cs_fps.assign(cs_fps.begin(), cs_fps.end());
  entry.sat = result.sat;
  entry.model.reserve(result.model.size());
  for (const auto& [v, val] : result.model) {
    entry.model.emplace_back(pool.var(v).fp, val);
  }
  std::sort(entry.model.begin(), entry.model.end());
  bucket.push_back(std::move(entry));
  ++s.insertions;
}

std::vector<PortableCacheEntry> SharedQueryCache::export_entries() const {
  std::vector<PortableCacheEntry> out;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [lo, bucket] : s.map) {
      for (const Entry& e : bucket) {
        out.push_back(PortableCacheEntry{e.key, e.cs_fps, e.sat, e.model});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PortableCacheEntry& a, const PortableCacheEntry& b) {
              if (!(a.key == b.key)) return a.key < b.key;
              return std::lexicographical_compare(
                  a.cs_fps.begin(), a.cs_fps.end(), b.cs_fps.begin(),
                  b.cs_fps.end());
            });
  return out;
}

void SharedQueryCache::import_entry(const PortableCacheEntry& e) {
  if (e.sat == Sat::kUnknown) return;  // never cacheable, never importable
  Shard& s = shard_of(e.key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto& bucket = s.map[e.key.lo];
  for (const Entry& have : bucket) {
    if (std::equal(e.cs_fps.begin(), e.cs_fps.end(), have.cs_fps.begin(),
                   have.cs_fps.end())) {
      return;  // live entry wins; imports never clobber
    }
  }
  Entry entry{e.key, e.cs_fps, e.sat, e.model};
  std::sort(entry.model.begin(), entry.model.end());  // lookup re-binds in order
  bucket.push_back(std::move(entry));
  ++s.insertions;
}

std::size_t SharedQueryCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.insertions;
  }
  return n;
}

SharedQueryCache::Counters SharedQueryCache::counters() const {
  Counters c;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    c.hits += s.hits;
    c.misses += s.misses;
    c.insertions += s.insertions;
  }
  return c;
}

}  // namespace statsym::solver
