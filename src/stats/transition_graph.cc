#include "stats/transition_graph.h"

#include <algorithm>
#include <set>

namespace statsym::stats {

const std::vector<Edge> TransitionGraph::kNoEdges;

TransitionGraph::TransitionGraph(TransitionGraphOptions opts) : opts_(opts) {}

void TransitionGraph::build(const SuffStats& suff) {
  nodes_.clear();
  adj_.clear();
  occ_.clear();
  modal_first_ = monitor::kNoLoc;

  // The mined tallies: the faulty runs' own, read in place, or both classes
  // folded together when correct runs are mined too. Counts are sums, so
  // the fold reproduces single-pass tallies exactly.
  TransSuff both;
  const TransSuff* mined = &suff.trans(true);
  if (!opts_.faulty_only) {
    both.merge(suff.trans(true));
    both.merge(suff.trans(false));
    mined = &both;
  }

  // Ties go to the smallest location (first in map order).
  std::uint64_t best_first = 0;
  for (const auto& [loc, n] : mined->first_counts) {
    if (n > best_first) {
      modal_first_ = loc;
      best_first = n;
    }
  }
  for (const auto& [loc, n] : mined->occ) {
    occ_[loc] = static_cast<std::size_t>(n);
    nodes_.push_back(loc);  // map order: sorted
  }

  for (const auto& [pair, count] : mined->pairs) {
    if (count < opts_.min_count) continue;
    const std::size_t from_occ = occurrences(pair.first);
    const double mu =
        from_occ == 0 ? 0.0
                      : static_cast<double>(count) / static_cast<double>(from_occ);
    if (mu < opts_.min_confidence) continue;
    adj_[pair.first].push_back(
        {pair.second, mu, static_cast<std::size_t>(count)});
  }
  for (auto& [loc, edges] : adj_) {
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      if (a.confidence != b.confidence) return a.confidence > b.confidence;
      return a.to < b.to;
    });
  }
}

const std::vector<Edge>& TransitionGraph::successors(monitor::LocId loc) const {
  auto it = adj_.find(loc);
  return it == adj_.end() ? kNoEdges : it->second;
}

std::vector<monitor::LocId> TransitionGraph::predecessors(
    monitor::LocId loc) const {
  std::vector<monitor::LocId> out;
  for (const auto& [from, edges] : adj_) {
    for (const Edge& e : edges) {
      if (e.to == loc) {
        out.push_back(from);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t TransitionGraph::occurrences(monitor::LocId loc) const {
  auto it = occ_.find(loc);
  return it == occ_.end() ? 0 : it->second;
}

std::vector<monitor::LocId> TransitionGraph::entry_nodes() const {
  std::set<monitor::LocId> has_incoming;
  for (const auto& [from, edges] : adj_) {
    for (const Edge& e : edges) {
      // Self-loops do not make a node non-entry.
      if (e.to != from) has_incoming.insert(e.to);
    }
  }
  std::vector<monitor::LocId> out;
  for (monitor::LocId n : nodes_) {
    if (!has_incoming.contains(n)) out.push_back(n);
  }
  return out;
}

std::vector<monitor::LocId> TransitionGraph::entry_candidates() const {
  // The modal first record is the program entry with overwhelming
  // probability: any other location opens a log only when sampling dropped
  // every earlier record, which is geometrically less likely per position.
  // Anchoring the skeleton at the true entry also counters the
  // short-path bias of the max-average-score criterion — paths starting
  // mid-program consist purely of high-scoring post-fault-relevant nodes
  // and would otherwise always win over the real entry-to-failure route.
  if (modal_first_ == monitor::kNoLoc) return entry_nodes();
  return {modal_first_};
}

monitor::LocId TransitionGraph::failure_node(const SuffStats& suff,
                                             const ir::Module* m) {
  if (m != nullptr) {
    std::string best_fn;
    std::uint64_t best_fn_n = 0;
    for (const auto& [fn, n] : suff.fault_fn_counts()) {
      if (n > best_fn_n) {
        best_fn = fn;
        best_fn_n = n;
      }
    }
    if (!best_fn.empty()) {
      const ir::FuncId f = m->find_function(best_fn);
      if (f != ir::kNoFunc) return monitor::enter_loc(f);
    }
  }
  monitor::LocId best = monitor::kNoLoc;
  std::uint64_t best_n = 0;
  for (const auto& [loc, n] : suff.trans(true).last_counts) {
    if (n > best_n) {
      best = loc;
      best_n = n;
    }
  }
  return best;
}

bool TransitionGraph::has_edge(monitor::LocId a, monitor::LocId b) const {
  for (const Edge& e : successors(a)) {
    if (e.to == b) return true;
  }
  return false;
}

}  // namespace statsym::stats
