#include "stats/path_builder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace statsym::stats {

namespace {

// Off-skeleton locations qualify as detour targets when their score is at
// least this fraction of the best skeleton node score.
constexpr double kDetourScoreRatio = 0.5;
// Bounded-search limits.
constexpr std::size_t kMaxSkeletonPaths = 20'000;
constexpr std::size_t kMaxDfsSteps = 2'000'000;  // visits across the search
constexpr std::size_t kMaxSkeletonLen = 256;
constexpr std::size_t kMaxDetourHops = 6;
constexpr std::size_t kMaxCandidates = 64;

}  // namespace

const char* detour_type_name(Detour::Type t) {
  switch (t) {
    case Detour::Type::kForward: return "forward";
    case Detour::Type::kBackward: return "backward";
    case Detour::Type::kLoop: return "loop";
  }
  return "?";
}

PathBuilder::PathBuilder(const TransitionGraph& graph,
                         const PredicateManager& preds)
    : graph_(graph), preds_(preds) {}

double PathBuilder::avg_score(const std::vector<monitor::LocId>& nodes) const {
  if (nodes.empty()) return 0.0;
  double total = 0.0;
  for (monitor::LocId n : nodes) total += preds_.loc_score(n);
  return total / static_cast<double>(nodes.size());
}

std::vector<monitor::LocId> PathBuilder::find_skeleton(
    monitor::LocId failure) const {
  // Bounded DFS enumerating acyclic entry→failure paths, keeping the best
  // average-score one. Falls back to *all* nodes as potential starts when no
  // entry (in-degree 0) node reaches the failure point.
  const std::vector<monitor::LocId> starts = graph_.entry_candidates();

  // Dense tables indexed by LocId, filled once: successor lists and node
  // scores. The size covers every node, start and the failure point, and
  // grows while filling to cover each successor list's targets.
  std::size_t n = 0;
  auto cover = [&n](monitor::LocId id) {
    if (id >= 0) n = std::max(n, static_cast<std::size_t>(id) + 1);
  };
  for (monitor::LocId v : graph_.nodes()) cover(v);
  for (monitor::LocId s : starts) cover(s);
  cover(failure);
  std::vector<const std::vector<Edge>*> succ;
  std::vector<double> score;
  for (std::size_t id = 0; id < n; ++id) {
    const auto loc = static_cast<monitor::LocId>(id);
    succ.push_back(&graph_.successors(loc));
    score.push_back(preds_.loc_score(loc));
    for (const Edge& e : *succ.back()) cover(e.to);
  }
  std::vector<char> on_path(n, 0);

  std::vector<monitor::LocId> best;
  double best_score = -1.0;
  std::size_t enumerated = 0;
  std::size_t steps = 0;  // global work budget over all starts

  std::vector<monitor::LocId> path;

  // `prefix` is the score sum of the path before `cur`, added left to right
  // as avg_score adds, so a found path's average equals avg_score(path).
  auto dfs = [&](auto&& self, monitor::LocId cur, double prefix) -> void {
    if (enumerated >= kMaxSkeletonPaths) return;
    if (++steps >= kMaxDfsSteps) return;
    if (path.size() >= kMaxSkeletonLen) return;
    const auto idx = static_cast<std::size_t>(cur);
    const double sum = prefix + score[idx];
    path.push_back(cur);
    on_path[idx] = 1;
    if (cur == failure) {
      ++enumerated;
      const double s = sum / static_cast<double>(path.size());
      if (s > best_score ||
          (s == best_score &&
           (best.empty() || path.size() < best.size()))) {
        best_score = s;
        best = path;
      }
    } else {
      for (const Edge& e : *succ[idx]) {
        if (on_path[static_cast<std::size_t>(e.to)] != 0) continue;
        self(self, e.to, sum);
      }
    }
    on_path[idx] = 0;
    path.pop_back();
  };

  for (monitor::LocId s : starts) dfs(dfs, s, 0.0);
  if (best.empty()) {
    for (monitor::LocId s : graph_.nodes()) {
      if (s == failure) continue;
      dfs(dfs, s, 0.0);
    }
  }
  if (best.empty() && graph_.occurrences(failure) > 0) {
    best = {failure};  // degenerate single-node path
  }
  return best;
}

std::vector<Detour> PathBuilder::find_detours(
    const std::vector<monitor::LocId>& skeleton) const {
  std::vector<Detour> out;
  if (skeleton.empty()) return out;

  std::map<monitor::LocId, std::size_t> skel_index;
  for (std::size_t i = 0; i < skeleton.size(); ++i) {
    skel_index.emplace(skeleton[i], i);  // first occurrence wins
  }

  double best_skel_score = 0.0;
  for (monitor::LocId n : skeleton) {
    best_skel_score = std::max(best_skel_score, preds_.loc_score(n));
  }
  const double floor = best_skel_score * kDetourScoreRatio;

  // High-score locations not on the skeleton are the detour targets.
  std::vector<monitor::LocId> targets;
  for (monitor::LocId n : graph_.nodes()) {
    if (skel_index.contains(n)) continue;
    const double s = preds_.loc_score(n);
    if (s > 0.0 && s >= floor) targets.push_back(n);
  }

  // For each target, bounded BFS from skeleton nodes to the target and from
  // the target back to the skeleton gives the attach points.
  auto bfs_segment = [&](monitor::LocId from, monitor::LocId to,
                         std::vector<monitor::LocId>& via) -> bool {
    // BFS over off-skeleton intermediate nodes only (the detour body must
    // leave the skeleton).
    std::map<monitor::LocId, monitor::LocId> parent;
    std::vector<monitor::LocId> frontier{from};
    parent[from] = from;
    for (std::size_t hop = 0; hop < kMaxDetourHops; ++hop) {
      std::vector<monitor::LocId> next;
      for (monitor::LocId cur : frontier) {
        for (const Edge& e : graph_.successors(cur)) {
          if (parent.contains(e.to)) continue;
          parent[e.to] = cur;
          if (e.to == to) {
            // Reconstruct intermediates (exclusive of endpoints).
            std::vector<monitor::LocId> rev;
            for (monitor::LocId n = parent[to]; n != from; n = parent[n]) {
              rev.push_back(n);
            }
            via.assign(rev.rbegin(), rev.rend());
            return true;
          }
          if (!skel_index.contains(e.to)) next.push_back(e.to);
        }
      }
      frontier = std::move(next);
      if (frontier.empty()) break;
    }
    return false;
  };

  std::vector<Detour> all;
  for (monitor::LocId target : targets) {
    // Best (shortest) way in from the skeleton and back out to it.
    for (monitor::LocId s_in : skeleton) {
      std::vector<monitor::LocId> via_in;
      if (!bfs_segment(s_in, target, via_in)) continue;
      for (monitor::LocId s_out : skeleton) {
        std::vector<monitor::LocId> via_out;
        if (!bfs_segment(target, s_out, via_out)) continue;
        Detour d;
        d.start_idx = skel_index.at(s_in);
        d.end_idx = skel_index.at(s_out);
        d.via = via_in;
        d.via.push_back(target);
        d.via.insert(d.via.end(), via_out.begin(), via_out.end());
        d.avg_score = avg_score(d.via);
        all.push_back(std::move(d));
        break;  // first (nearest) rejoin point suffices for this entry
      }
      break;  // first (nearest) leave point suffices for this target
    }
  }

  // Per (attach location, type) keep only the best-average-score detour —
  // the paper's per-type heuristic (§VI-B).
  std::map<std::pair<std::size_t, Detour::Type>, Detour> best;
  for (auto& d : all) {
    const auto key = std::make_pair(d.start_idx, d.type());
    auto it = best.find(key);
    if (it == best.end() || d.avg_score > it->second.avg_score) {
      best[key] = std::move(d);
    }
  }
  // De-duplicate detours that ended up with identical node sequences.
  std::set<std::vector<monitor::LocId>> seen;
  for (auto& [key, d] : best) {
    if (seen.insert(d.via).second) out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(), [](const Detour& a, const Detour& b) {
    if (a.avg_score != b.avg_score) return a.avg_score > b.avg_score;
    return a.start_idx < b.start_idx;
  });
  return out;
}

CandidatePath PathBuilder::join(
    const std::vector<monitor::LocId>& skeleton,
    const std::vector<const Detour*>& detours) const {
  // Detours are applied in skeleton order. A forward detour replaces the
  // skeleton segment it straddles; backward and loop detours splice a cycle
  // in at their start index. Overlapping forward detours are skipped.
  std::vector<const Detour*> ordered(detours.begin(), detours.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const Detour* a, const Detour* b) {
              if (a->start_idx != b->start_idx) {
                return a->start_idx < b->start_idx;
              }
              return a->avg_score > b->avg_score;
            });

  CandidatePath cp;
  std::size_t i = 0;
  std::size_t applied = 0;
  while (i < skeleton.size()) {
    cp.nodes.push_back(skeleton[i]);
    bool advanced = false;
    for (const Detour* d : ordered) {
      if (d->start_idx != i) continue;
      switch (d->type()) {
        case Detour::Type::kForward:
          cp.nodes.insert(cp.nodes.end(), d->via.begin(), d->via.end());
          i = d->end_idx;  // resume at rejoin point
          ++applied;
          advanced = true;
          break;
        case Detour::Type::kBackward:
        case Detour::Type::kLoop:
          // Splice the excursion and the replay of skeleton[end..start].
          cp.nodes.insert(cp.nodes.end(), d->via.begin(), d->via.end());
          for (std::size_t k = d->end_idx; k <= i && k < skeleton.size();
               ++k) {
            cp.nodes.push_back(skeleton[k]);
          }
          ++applied;
          break;
      }
      if (advanced) break;
    }
    if (!advanced) ++i;
  }
  cp.num_detours = applied;
  cp.avg_score = avg_score(cp.nodes);
  return cp;
}

std::optional<PathConstruction> PathBuilder::build(
    monitor::LocId failure, obs::TraceBuffer* trace) const {
  PathConstruction pc;
  pc.failure = failure;
  pc.skeleton = find_skeleton(failure);
  if (pc.skeleton.empty()) return std::nullopt;
  pc.detours = find_detours(pc.skeleton);

  // Candidate set: skeleton + all detours, skeleton + each single detour,
  // bare skeleton — ranked by average predicate score.
  std::vector<CandidatePath> cands;
  {
    std::vector<const Detour*> all;
    for (const auto& d : pc.detours) all.push_back(&d);
    if (!all.empty()) cands.push_back(join(pc.skeleton, all));
  }
  for (const auto& d : pc.detours) {
    cands.push_back(join(pc.skeleton, {&d}));
  }
  cands.push_back(join(pc.skeleton, {}));

  std::stable_sort(cands.begin(), cands.end(),
                   [](const CandidatePath& a, const CandidatePath& b) {
                     return a.avg_score > b.avg_score;
                   });
  // Drop exact duplicates (e.g. a detour that failed to apply).
  std::set<std::vector<monitor::LocId>> seen;
  for (auto& c : cands) {
    if (pc.candidates.size() >= kMaxCandidates) break;
    if (seen.insert(c.nodes).second) pc.candidates.push_back(std::move(c));
  }

  if (trace != nullptr) {
    trace->emit(obs::EventKind::kNote,
                static_cast<std::int64_t>(pc.skeleton.size()),
                static_cast<std::int64_t>(pc.detours.size()),
                static_cast<std::int64_t>(failure), "skeleton");
    for (std::size_t i = 0; i < pc.candidates.size(); ++i) {
      const CandidatePath& c = pc.candidates[i];
      trace->emit(obs::EventKind::kCandidateRanked,
                  static_cast<std::int64_t>(i),
                  static_cast<std::int64_t>(c.nodes.size()),
                  std::llround(c.avg_score * 1e6));
    }
  }
  return pc;
}

}  // namespace statsym::stats
