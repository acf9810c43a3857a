// State-scheduling policies (KLEE's "searchers", §VI-C).
//
// The executor owns states; searchers only hold non-owning pointers and
// decide which state runs next. Implemented policies mirror the ones the
// paper lists for KLEE: DFS, BFS, random-path selection, and a
// coverage-optimised heuristic. StatSym's guided searcher lives in
// src/statsym/ and implements this same interface.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "support/rng.h"
#include "symexec/state.h"

namespace statsym::symexec {

class Searcher {
 public:
  virtual ~Searcher() = default;

  // Hands a state to the searcher (newly forked or re-queued after a slice).
  virtual void add(State* st) = 0;

  // Removes and returns the next state to execute; nullptr when empty.
  virtual State* select() = 0;

  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
};

enum class SearcherKind : std::uint8_t {
  kDFS,
  kBFS,
  kRandomPath,
  kCoverageOptimized,
};

const char* searcher_kind_name(SearcherKind k);
// The command-line spelling (`statsym pure --searcher`): dfs, bfs, random or
// coverage. Any other name yields nullopt.
std::optional<SearcherKind> parse_searcher_kind(std::string_view s);

class DfsSearcher final : public Searcher {
 public:
  void add(State* st) override { stack_.push_back(st); }
  State* select() override;
  bool empty() const override { return stack_.empty(); }
  std::size_t size() const override { return stack_.size(); }

 private:
  std::vector<State*> stack_;
};

class BfsSearcher final : public Searcher {
 public:
  void add(State* st) override { queue_.push_back(st); }
  State* select() override;
  bool empty() const override { return queue_.empty(); }
  std::size_t size() const override { return queue_.size(); }

 private:
  std::deque<State*> queue_;
};

// Uniform random choice among pending states (KLEE's random-path flavour
// without the process-tree weighting; with our fork discipline the pending
// set approximates the tree frontier).
class RandomPathSearcher final : public Searcher {
 public:
  explicit RandomPathSearcher(Rng rng) : rng_(rng) {}
  void add(State* st) override { states_.push_back(st); }
  State* select() override;
  bool empty() const override { return states_.empty(); }
  std::size_t size() const override { return states_.size(); }

 private:
  std::vector<State*> states_;
  Rng rng_;
};

// Coverage-optimised: weights states inversely to how often their current
// basic block has been visited across the whole exploration, favouring
// states about to execute fresh code.
class CoverageSearcher final : public Searcher {
 public:
  explicit CoverageSearcher(Rng rng) : rng_(rng) {}

  void add(State* st) override { states_.push_back(st); }
  State* select() override;
  bool empty() const override { return states_.empty(); }
  std::size_t size() const override { return states_.size(); }

  // Executor reports every visited (function, block).
  void note_visit(ir::FuncId f, ir::BlockId b);

 private:
  std::uint64_t visits(ir::FuncId f, ir::BlockId b) const;

  std::vector<State*> states_;
  std::unordered_map<std::uint64_t, std::uint64_t> visit_counts_;
  Rng rng_;
};

// Factory for the built-in policies.
std::unique_ptr<Searcher> make_searcher(SearcherKind kind, Rng rng);

}  // namespace statsym::symexec
