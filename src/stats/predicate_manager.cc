#include "stats/predicate_manager.h"

#include <algorithm>
#include <cmath>

namespace statsym::stats {

namespace {

// Predicates scoring below this are dropped outright.
constexpr double kScoreFloor = 1e-9;

}  // namespace

void PredicateManager::build(const SuffStats& suff, obs::TraceBuffer* trace) {
  ranked_.clear();
  loc_scores_.clear();

  for (const auto& [key, vs] : suff.vars()) {
    Predicate p;
    if (!fit_predicate(vs, suff.num_correct_runs(), suff.num_faulty_runs(),
                       p)) {
      continue;
    }
    if (p.score < kScoreFloor) continue;
    ranked_.push_back(std::move(p));
  }

  std::stable_sort(ranked_.begin(), ranked_.end(),
                   [&](const Predicate& a, const Predicate& b) {
                     if (a.score != b.score) return a.score > b.score;
                     // At equal raw score, better-supported wins (higher
                     // confidence lower bound).
                     if (a.score_lcb != b.score_lcb) {
                       return a.score_lcb > b.score_lcb;
                     }
                     // Threshold predicates outrank unreached ones at equal
                     // score (the ordering in the paper's Table V).
                     if ((a.pk == PredKind::kUnreached) !=
                         (b.pk == PredKind::kUnreached)) {
                       return b.pk == PredKind::kUnreached;
                     }
                     if (a.loc != b.loc) return a.loc < b.loc;
                     return a.var < b.var;
                   });

  for (const auto& p : ranked_) {
    auto [it, inserted] = loc_scores_.try_emplace(p.loc, p.score);
    if (!inserted) it->second = std::max(it->second, p.score);
  }

  if (trace != nullptr) {
    for (std::size_t i = 0; i < ranked_.size(); ++i) {
      const Predicate& p = ranked_[i];
      trace->emit(obs::EventKind::kPredicateFit,
                  static_cast<std::int64_t>(i),
                  static_cast<std::int64_t>(p.loc),
                  std::llround(p.score * 1e6), p.display());
    }
  }
}

std::vector<Predicate> PredicateManager::top(std::size_t k) const {
  return {ranked_.begin(),
          ranked_.begin() + static_cast<std::ptrdiff_t>(
                                std::min(k, ranked_.size()))};
}

std::vector<Predicate> PredicateManager::at(monitor::LocId loc) const {
  std::vector<Predicate> out;
  for (const auto& p : ranked_) {
    if (p.loc == loc) out.push_back(p);
  }
  return out;
}

double PredicateManager::loc_score(monitor::LocId loc) const {
  auto it = loc_scores_.find(loc);
  return it == loc_scores_.end() ? 0.0 : it->second;
}

}  // namespace statsym::stats
