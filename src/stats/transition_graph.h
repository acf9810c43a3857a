// Location-transition mining (§V-B, Eq. 3).
//
// Because logging is partial, the control structure between instrumented
// locations must be reconstructed statistically: for locations ei, ej the
// confidence of the transition ei → ej is µ(ei,ej) = o(ei→ej) / o(ei),
// where o counts (consecutive-record) occurrences across the faulty logs —
// an association-rule-mining formulation. Edges with statistically
// significant confidence form the dynamic control-flow graph over which
// skeletons and detours are extracted.
//
// The o(·) tallies are plain sums over runs (TransSuff in
// stats/suff_stats.h), so build() mines the graph straight from the
// sufficient statistics without revisiting any log.
#pragma once

#include <unordered_map>
#include <vector>

#include "stats/suff_stats.h"

namespace statsym::stats {

struct TransitionGraphOptions {
  // µ significance threshold. Kept low: a transition leaving a hot loop
  // cluster (o(ei) in the thousands) toward a once-per-run successor has
  // tiny µ yet is structurally essential; support (min_count) carries the
  // significance instead.
  double min_confidence{0.002};
  std::size_t min_count{2};  // minimum o(ei→ej) support
  // Use faulty runs only (the paper mines transitions from faulty
  // executions); correct runs may be included for denser graphs.
  bool faulty_only{true};
};

struct Edge {
  monitor::LocId to{monitor::kNoLoc};
  double confidence{0.0};  // µ(from, to)
  std::size_t count{0};    // o(from → to)
};

class TransitionGraph {
 public:
  explicit TransitionGraph(TransitionGraphOptions opts = {});

  // Mines nodes and edges from the transition tallies in `suff` (faulty
  // runs only, or both classes when faulty_only is off), replacing any
  // earlier graph.
  void build(const SuffStats& suff);

  // All nodes observed (in the runs used for mining).
  const std::vector<monitor::LocId>& nodes() const { return nodes_; }

  const std::vector<Edge>& successors(monitor::LocId loc) const;
  std::vector<monitor::LocId> predecessors(monitor::LocId loc) const;

  std::size_t occurrences(monitor::LocId loc) const;

  // Nodes without incoming edges — candidate program entry points (§V-B
  // step 1).
  std::vector<monitor::LocId> entry_nodes() const;

  // Robust entry candidate: the most frequent *first record* of the mined
  // logs. Partial logging fabricates in-degree-0 nodes deep inside the
  // program (their only incoming transition fell below the significance
  // threshold), so skeletons anchored on raw in-degree make short, bogus
  // paths win; the empirical first record pins the real program entry.
  std::vector<monitor::LocId> entry_candidates() const;

  // The failure point. When the module is supplied, the fault function
  // recorded in the faulty logs (the crash report, which real deployments
  // have) pins it to that function's entry; the fallback is the most
  // frequent final record among faulty logs, which degrades under heavy
  // sampling when hot-loop records crowd out the true last event.
  // Returns kNoLoc when there are no faulty logs.
  static monitor::LocId failure_node(const SuffStats& suff,
                                     const ir::Module* m = nullptr);

  bool has_edge(monitor::LocId a, monitor::LocId b) const;

 private:
  TransitionGraphOptions opts_;
  std::vector<monitor::LocId> nodes_;
  std::unordered_map<monitor::LocId, std::vector<Edge>> adj_;
  std::unordered_map<monitor::LocId, std::size_t> occ_;
  // Modal first record of the mined runs; kNoLoc when none were mined.
  monitor::LocId modal_first_{monitor::kNoLoc};
  static const std::vector<Edge> kNoEdges;
};

}  // namespace statsym::stats
