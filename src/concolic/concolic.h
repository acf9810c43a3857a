// Concolic (dynamic symbolic) execution backend — the engine race's third
// lane (DESIGN.md §11).
//
// Exploration runs the SAGE-style generational search the symbolic-execution
// survey describes as the complement of static forking: execute the program
// on a *concrete* input while shadow-recording the symbolic condition of
// every decision (symexec's follow mode — one state, no forks, no fork-time
// solver queries), then for every decision index >= the input's generation
// bound, solve `path-prefix ∧ ¬condition` and turn each model into a new
// concrete input one branch away from the followed path. The worklist is a
// priority frontier seeded with the all-defaults input. A FrontierRanker
// keys each derived input by its gap vector (how far it falls from the
// statistics' predicates); smaller vectors run first and equal ones run in
// enqueue order. Without a ranker every vector is empty, so the search
// expands generation by generation in plain FIFO order.
//
// Determinism contract: the driver is internally sequential, the worklist
// order is a pure function of the followed paths and the ranker's gaps
// (themselves pure functions of input, predicates and module), negation
// queries go through the probe cascade whose canonical solves are pure
// functions of the slice (solver/solver.h), and every per-run RNG stream
// derives from (options.seed, run index). Results are therefore
// byte-identical from run to run, and lanes that ran before it (warming the
// shared query cache) never perturb what it reports.
//
// Resource integration mirrors SymExecutor: a SharedBudget bounds the
// lane's instructions together with the lanes before it (each follow run
// checks and adds to it like any executor, and the lane checks it before
// every run), the SharedQueryCache serves the negation solver (follow runs
// issue no query) and is shared with the symbolic lanes, and an
// obs::TraceBuffer receives one kConcolicRun event per run, the per-run
// executor events and one kSolverQuery event per negation, which carries its
// verdict.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "solver/cache.h"
#include "solver/solver.h"
#include "symexec/executor.h"

namespace statsym::concolic {

struct ConcolicOptions {
  // Per-run execution options (budgets, target_function).
  // `max_seconds` bounds the whole lane, not one run; stop_at_first_fault
  // and searcher are ignored (follow mode runs exactly one path).
  symexec::ExecOptions exec{};
  // Concrete executions before the lane reports budget exhaustion.
  std::size_t max_runs{512};
  std::uint64_t seed{1};
};

struct ConcolicStats {
  std::uint64_t runs{0};              // concrete executions performed
  std::uint64_t decisions{0};         // decision points recorded, summed
  std::uint64_t negations_tried{0};
  std::uint64_t negations_sat{0};
  std::uint64_t negations_unsat{0};
  std::uint64_t negations_unknown{0};
  std::uint64_t inputs_deduped{0};    // SAT models that re-derived a seen input
  std::uint64_t frontier_peak{0};
  std::uint64_t instructions{0};      // summed over follow runs
  double seconds{0.0};
};

struct ConcolicResult {
  symexec::Termination termination{symexec::Termination::kExhausted};
  std::optional<symexec::VulnPath> vuln;
  ConcolicStats stats;
  solver::SolverStats solver_stats;
};

// Orders the concolic frontier: one gap per guiding predicate for a derived
// input, compared lexicographically, smaller first. Must be a pure function
// of the input (the frontier order, and so the lane's result, depends on it).
class FrontierRanker {
 public:
  virtual ~FrontierRanker() = default;
  virtual std::vector<double> gaps(const interp::RuntimeInput& in) const = 0;
};

// Renders a RuntimeInput as a canonical single-line key (used for worklist
// dedup; exposed for tests).
std::string input_key(const interp::RuntimeInput& in);

// The all-defaults seed input for a spec: concrete argv/env entries keep
// their fixed strings, symbolic ones start empty, and sym_ints/sym_bufs
// start at their interpreter defaults (domain minimum / empty). Exposed so
// the fuzz harness replays the exact generation-0 input.
interp::RuntimeInput seed_input(const symexec::SymInputSpec& spec);

class ConcolicExecutor {
 public:
  ConcolicExecutor(const ir::Module& m, symexec::SymInputSpec spec,
                   ConcolicOptions opts);

  // Same integration points as SymExecutor; all must outlive run().
  void set_shared_budget(symexec::SharedBudget* budget) { budget_ = budget; }
  void set_shared_solver_cache(solver::SharedQueryCache* cache) {
    shared_cache_ = cache;
  }
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }
  // Null (the default) keeps the plain FIFO order.
  void set_ranker(const FrontierRanker* ranker) { ranker_ = ranker; }

  ConcolicResult run();

 private:
  const ir::Module& m_;
  symexec::SymInputSpec spec_;
  ConcolicOptions opts_;
  symexec::SharedBudget* budget_{nullptr};
  solver::SharedQueryCache* shared_cache_{nullptr};
  obs::TraceBuffer* trace_{nullptr};
  const FrontierRanker* ranker_{nullptr};
};

}  // namespace statsym::concolic
