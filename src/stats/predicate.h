// Predicates over logged program state, and threshold fitting (§V-A).
//
// For a variable `a` at an instrumented location with value sets C (correct
// runs) and F (faulty runs), the paper constructs x = {a ∈ P} minimising the
// quantification error  E = |P ∩ C| + |Pᶜ ∩ F|  (Eq. 1), then scores it by
// s = |P(x|C) − P(x|F)| (Eq. 2). For scalar observations, the optimal P of
// threshold form is found by scanning candidate cut points (midpoints of
// adjacent distinct observed values) in both directions (a > σ and a < σ).
//
// The fit consumes the class-conditional value *histograms* of a VarSuff
// (stats/suff_stats.h) — the sufficient statistics — so it costs
// O(distinct values), is independent of how many runs were ingested, and is
// byte-identical whether those histograms were built in one batch or merged
// from shards in any order.
//
// A variable observed in correct runs but never in faulty runs gets the
// paper's "a < -infinity" predicate (Table V, P7–P10): the location is
// evidence of *non*-failure, the score being the observation-rate gap.
#pragma once

#include <string>
#include <vector>

#include "stats/suff_stats.h"
#include "stats/wilson.h"

namespace statsym::stats {

enum class PredKind : std::uint8_t {
  kGt,         // value > threshold
  kLt,         // value < threshold
  kUnreached,  // "value < -infinity": (loc,var) never observed in faulty runs
};

struct Predicate {
  monitor::LocId loc{monitor::kNoLoc};
  std::string var;  // display key, e.g. "len(suspect FUNCPARAM)"
  monitor::VarKind kind{monitor::VarKind::kGlobal};
  bool is_len{false};
  PredKind pk{PredKind::kGt};
  double threshold{0.0};

  double score{0.0};     // Eq. 2 confidence score
  double p_correct{0.0};  // P(x | C)
  double p_faulty{0.0};   // P(x | F)
  std::size_t error{0};   // Eq. 1 quantification error on the samples

  // Sample support behind p_correct / p_faulty (samples for threshold
  // predicates, runs for the observation-rate kinds).
  std::size_t n_correct{0};
  std::size_t n_faulty{0};
  // Starvation-aware score: a Wilson lower confidence bound on |P(x|C) −
  // P(x|F)| (stats/wilson.h). The plug-in Eq. 2 score treats 7-of-10
  // samples the same as 700-of-1000; under log starvation that lets
  // accidental separators reach guidance-grade scores, and injecting them
  // suspends every on-path state. score_lcb shrinks toward 0 as support
  // thins (score_lcb <= score always, converging to score as samples grow),
  // so consumers that *act* on a predicate gate on it, while
  // ranking/reporting keep the paper's score.
  double score_lcb{0.0};

  bool holds(double v) const {
    switch (pk) {
      case PredKind::kGt: return v > threshold;
      case PredKind::kLt: return v < threshold;
      case PredKind::kUnreached: return false;
    }
    return false;
  }

  // "len(suspect FUNCPARAM) > 536.5" (paper Table V style).
  std::string display() const;

  // Recomputes the Wilson bound from the stored rates and support through
  // stats::gap_lcb, branch-aware (the observation-rate kinds compare rates,
  // not per-sample probabilities). fit_predicate sets score_lcb with it, so
  // for any fitted predicate, calling this with the fitting z reproduces
  // the stored score_lcb exactly.
  double recompute_score_lcb(double confidence_z) const;
};

// Fits the best threshold predicate for one (loc, var) sufficient-statistic
// entry. Requires at least one sample in each class; for the unreached case
// (no faulty samples) returns the kUnreached predicate scored by the
// observation-rate difference. Returns false when no meaningful predicate
// exists (e.g. no correct samples either, or zero score). confidence_z
// controls the score_lcb shrinkage (0 makes score_lcb == score).
bool fit_predicate(const VarSuff& vs, std::size_t num_correct_runs,
                   std::size_t num_faulty_runs, Predicate& out,
                   double confidence_z = kWilsonZ);

}  // namespace statsym::stats
