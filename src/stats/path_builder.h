// Candidate vulnerable-path construction (§V-B, §VI-B).
//
// From the mined transition graph and the ranked predicates:
//   1. *Skeleton*: among acyclic paths from an entry node (no incoming
//      transition) to the failure node, the one with the largest average
//      node score (node score = best predicate score at that location).
//   2. *Detours*: path segments branching off the skeleton that visit
//      high-confidence predicate locations not on the skeleton, classified
//      by their skeleton attach indices into forward (start < end),
//      backward (start > end) and loop (start == end) types; per
//      (attach location, type) only the best-average-score detour is kept.
//   3. *Candidate paths*: the skeleton joined with subsets of detours,
//      ranked by average predicate score — the list handed one-by-one to
//      the guided symbolic executor (Fig. 5 step (e)).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "stats/predicate_manager.h"
#include "stats/transition_graph.h"

namespace statsym::stats {

struct Detour {
  enum class Type : std::uint8_t { kForward, kBackward, kLoop };

  std::size_t start_idx{0};  // skeleton index the detour leaves from
  std::size_t end_idx{0};    // skeleton index it rejoins
  std::vector<monitor::LocId> via;  // off-skeleton nodes visited, in order
  double avg_score{0.0};

  Type type() const {
    if (start_idx < end_idx) return Type::kForward;
    if (start_idx > end_idx) return Type::kBackward;
    return Type::kLoop;
  }
};

const char* detour_type_name(Detour::Type t);

struct CandidatePath {
  std::vector<monitor::LocId> nodes;
  double avg_score{0.0};
  std::size_t num_detours{0};
};

struct PathConstruction {
  std::vector<monitor::LocId> skeleton;
  std::vector<Detour> detours;
  std::vector<CandidatePath> candidates;  // ranked, best first
  monitor::LocId failure{monitor::kNoLoc};
};

class PathBuilder {
 public:
  PathBuilder(const TransitionGraph& graph, const PredicateManager& preds);

  // Builds skeleton, detours and the ranked candidate list toward
  // `failure`. Returns nullopt when no entry→failure path exists.
  // Optionally emits one kCandidateRanked trace event per candidate, in
  // rank order, plus a kNote for the skeleton.
  std::optional<PathConstruction> build(
      monitor::LocId failure, obs::TraceBuffer* trace = nullptr) const;

 private:
  std::vector<monitor::LocId> find_skeleton(monitor::LocId failure) const;
  std::vector<Detour> find_detours(
      const std::vector<monitor::LocId>& skeleton) const;
  CandidatePath join(const std::vector<monitor::LocId>& skeleton,
                     const std::vector<const Detour*>& detours) const;
  double avg_score(const std::vector<monitor::LocId>& nodes) const;

  const TransitionGraph& graph_;
  const PredicateManager& preds_;
};

}  // namespace statsym::stats
