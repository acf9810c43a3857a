// The Predicate Manager (§VI-B): fits every (location, variable) predicate
// from sufficient statistics, ranks them by confidence score (Fig. 5 step
// (d)), and serves per-location score queries to the path constructor and
// the guided symbolic executor.
//
// build() reads the sufficient statistics in place and keeps only the
// ranked predicates and per-location scores. Every predicate is fitted at
// kWilsonZ (stats/wilson.h).
#pragma once

#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "stats/predicate.h"
#include "stats/suff_stats.h"

namespace statsym::stats {

class PredicateManager {
 public:
  // Fits and ranks every predicate from `suff`, replacing any earlier fit.
  // Optionally emits one kPredicateFit trace event per ranked predicate
  // (rank order, so the stream is independent of fit order).
  void build(const SuffStats& suff, obs::TraceBuffer* trace = nullptr);

  // All surviving predicates, best first.
  const std::vector<Predicate>& ranked() const { return ranked_; }

  std::vector<Predicate> top(std::size_t k) const;

  // Predicates at a specific location, best first.
  std::vector<Predicate> at(monitor::LocId loc) const;

  // Highest predicate score at a location (0 when none) — the node score
  // used for skeleton/detour selection (§V-B step 1).
  double loc_score(monitor::LocId loc) const;

 private:
  std::vector<Predicate> ranked_;
  std::unordered_map<monitor::LocId, double> loc_scores_;
};

}  // namespace statsym::stats
