#include "symexec/searcher.h"

namespace statsym::symexec {

const char* searcher_kind_name(SearcherKind k) {
  switch (k) {
    case SearcherKind::kDFS: return "dfs";
    case SearcherKind::kBFS: return "bfs";
    case SearcherKind::kRandomPath: return "random-path";
    case SearcherKind::kCoverageOptimized: return "coverage";
  }
  return "?";
}

std::optional<SearcherKind> parse_searcher_kind(std::string_view s) {
  if (s == "dfs") return SearcherKind::kDFS;
  if (s == "bfs") return SearcherKind::kBFS;
  if (s == "random") return SearcherKind::kRandomPath;
  if (s == "coverage") return SearcherKind::kCoverageOptimized;
  return std::nullopt;
}

State* DfsSearcher::select() {
  if (stack_.empty()) return nullptr;
  State* st = stack_.back();
  stack_.pop_back();
  return st;
}

State* BfsSearcher::select() {
  if (queue_.empty()) return nullptr;
  State* st = queue_.front();
  queue_.pop_front();
  return st;
}

State* RandomPathSearcher::select() {
  if (states_.empty()) return nullptr;
  const std::size_t i = static_cast<std::size_t>(
      rng_.uniform(0, static_cast<std::int64_t>(states_.size()) - 1));
  State* st = states_[i];
  states_[i] = states_.back();
  states_.pop_back();
  return st;
}

void CoverageSearcher::note_visit(ir::FuncId f, ir::BlockId b) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f)) << 32) |
      static_cast<std::uint32_t>(b);
  ++visit_counts_[key];
}

std::uint64_t CoverageSearcher::visits(ir::FuncId f, ir::BlockId b) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f)) << 32) |
      static_cast<std::uint32_t>(b);
  auto it = visit_counts_.find(key);
  return it == visit_counts_.end() ? 0 : it->second;
}

State* CoverageSearcher::select() {
  if (states_.empty()) return nullptr;
  std::vector<double> weights;
  weights.reserve(states_.size());
  for (const State* st : states_) {
    const Frame& f = st->top();
    weights.push_back(1.0 / (1.0 + static_cast<double>(visits(f.func, f.block))));
  }
  const std::size_t i = rng_.weighted_pick(weights);
  State* st = states_[i];
  states_[i] = states_.back();
  states_.pop_back();
  return st;
}

std::unique_ptr<Searcher> make_searcher(SearcherKind kind, Rng rng) {
  switch (kind) {
    case SearcherKind::kDFS:
      return std::make_unique<DfsSearcher>();
    case SearcherKind::kBFS:
      return std::make_unique<BfsSearcher>();
    case SearcherKind::kRandomPath:
      return std::make_unique<RandomPathSearcher>(rng);
    case SearcherKind::kCoverageOptimized:
      return std::make_unique<CoverageSearcher>(rng);
  }
  return nullptr;
}

}  // namespace statsym::symexec
