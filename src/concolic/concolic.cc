#include "concolic/concolic.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "support/rng.h"
#include "support/stopwatch.h"

namespace statsym::concolic {

// Canonical, collision-free rendering (length-prefixed strings, map order).
std::string input_key(const interp::RuntimeInput& in) {
  std::ostringstream os;
  os << "a" << in.argv.size();
  for (const auto& s : in.argv) os << '|' << s.size() << ':' << s;
  os << "|e";
  for (const auto& [k, v] : in.env) os << '|' << k << '=' << v.size() << ':' << v;
  os << "|i";
  for (const auto& [k, v] : in.sym_ints) os << '|' << k << '=' << v;
  os << "|b";
  for (const auto& [k, v] : in.sym_bufs) {
    os << '|' << k << '=' << v.size() << ':' << v;
  }
  return os.str();
}

interp::RuntimeInput seed_input(const symexec::SymInputSpec& spec) {
  interp::RuntimeInput in;
  for (const auto& a : spec.argv) {
    in.argv.push_back(a.symbolic ? std::string() : a.concrete);
  }
  for (const auto& [name, s] : spec.env) {
    in.env[name] = s.symbolic ? std::string() : s.concrete;
  }
  // sym_ints / sym_bufs stay empty: the interpreter and follow mode both
  // default missing entries to the domain minimum / all-NUL content.
  return in;
}

ConcolicExecutor::ConcolicExecutor(const ir::Module& m,
                                   symexec::SymInputSpec spec,
                                   ConcolicOptions opts)
    : m_(m), spec_(std::move(spec)), opts_(opts) {}

ConcolicResult ConcolicExecutor::run() {
  ConcolicResult result;
  ConcolicStats& cs = result.stats;
  Stopwatch sw;

  // A queued concrete input plus its generation bound: decisions before the
  // bound were already negated by an ancestor run and are not re-negated —
  // the standard generational-search de-duplication. The frontier is keyed
  // by (gap vector, enqueue sequence number): the ranker's order first, FIFO
  // among equal gaps, and plain FIFO when there is no ranker.
  struct WorkItem {
    interp::RuntimeInput input;
    std::size_t bound{0};
  };
  using Key = std::pair<std::vector<double>, std::uint64_t>;
  std::map<Key, WorkItem> frontier;
  std::uint64_t enqueued = 0;
  std::set<std::string> seen;

  {
    interp::RuntimeInput seed = seed_input(spec_);
    seen.insert(input_key(seed));
    frontier.emplace(Key{{}, enqueued++}, WorkItem{std::move(seed), 0});
  }
  cs.frontier_peak = 1;

  // One expression pool for every follow run of the lane: the input
  // variables are interned once and path expressions hash-cons across runs.
  // Only structure-derived values (fingerprints, first-occurrence variable
  // orders) reach results and traces, never pool ids, so each run behaves
  // exactly as it would on a fresh pool.
  solver::ExprPool pool;

  symexec::Termination term = symexec::Termination::kExhausted;
  bool done = false;
  while (!frontier.empty() && !done) {
    if (sw.elapsed_seconds() > opts_.exec.max_seconds) {
      term = symexec::Termination::kTimeout;
      break;
    }
    if (budget_ != nullptr &&
        budget_->instructions > budget_->max_instructions) {
      term = symexec::Termination::kInstrLimit;
      break;
    }
    if (cs.runs >= opts_.max_runs) {
      term = symexec::Termination::kRunLimit;
      break;
    }

    WorkItem item = std::move(frontier.extract(frontier.begin()).mapped());

    // --- one concrete execution under the symbolic shadow ------------------
    symexec::ExecOptions eo = opts_.exec;
    eo.stop_at_first_fault = true;
    eo.wake_suspended = false;
    eo.seed = derive_seed(opts_.seed, cs.runs);
    eo.max_seconds =
        std::max(0.0, opts_.exec.max_seconds - sw.elapsed_seconds());
    symexec::SymExecutor ex(m_, spec_, eo, &pool);
    ex.set_follow_input(item.input);
    if (budget_ != nullptr) ex.set_shared_budget(budget_);
    if (shared_cache_ != nullptr) ex.set_shared_solver_cache(shared_cache_);
    if (trace_ != nullptr) ex.set_trace(trace_);

    const std::uint64_t run_idx = cs.runs;
    symexec::ExecResult er = ex.run();
    ++cs.runs;
    cs.decisions += ex.decisions().size();
    cs.instructions += er.stats.instructions;
    result.solver_stats += er.solver_stats;
    const bool faulted =
        er.termination == symexec::Termination::kFoundFault &&
        er.vuln.has_value();
    if (trace_ != nullptr) {
      trace_->emit(obs::EventKind::kConcolicRun,
                   static_cast<std::int64_t>(run_idx),
                   static_cast<std::int64_t>(ex.decisions().size()),
                   faulted ? 1 : 0);
    }
    if (faulted) {
      // The frontier order is a pure function of the inputs, so the first
      // faulting run is canonical: the lane's deterministic winner.
      result.vuln = std::move(er.vuln);
      term = symexec::Termination::kFoundFault;
      break;
    }

    // --- generational expansion: negate the suffix decisions ---------------
    const std::vector<symexec::Decision>& decs = ex.decisions();
    const std::vector<solver::ExprId>& path = ex.followed_path();
    solver::QueryCache run_cache;
    solver::Solver neg(pool, opts_.negation_solver_opts);
    neg.set_cache(&run_cache);
    if (shared_cache_ != nullptr) neg.set_shared_cache(shared_cache_);
    if (trace_ != nullptr) neg.set_trace(trace_);

    for (std::size_t i = item.bound; i < decs.size(); ++i) {
      if (sw.elapsed_seconds() > opts_.exec.max_seconds) {
        term = symexec::Termination::kTimeout;
        done = true;
        break;
      }
      if (frontier.size() >= opts_.max_frontier) break;
      ++cs.negations_tried;
      const std::size_t plen = std::min(decs[i].pc_prefix, path.size());
      const auto res = neg.check_with(
          std::span<const solver::ExprId>(path.data(), plen), decs[i].negated);
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kConcolicNegation,
                     static_cast<std::int64_t>(run_idx),
                     static_cast<std::int64_t>(i),
                     res.sat == solver::Sat::kSat     ? 0
                     : res.sat == solver::Sat::kUnsat ? 1
                                                      : 2);
      }
      if (res.sat == solver::Sat::kSat) {
        ++cs.negations_sat;
        interp::RuntimeInput next = ex.input_from_model(res.model);
        if (seen.insert(input_key(next)).second) {
          std::vector<double> gaps;
          if (ranker_ != nullptr) gaps = ranker_->gaps(next);
          frontier.emplace(Key{std::move(gaps), enqueued++},
                           WorkItem{std::move(next), i + 1});
          cs.frontier_peak =
              std::max<std::uint64_t>(cs.frontier_peak, frontier.size());
        } else {
          ++cs.inputs_deduped;
        }
      } else if (res.sat == solver::Sat::kUnsat) {
        ++cs.negations_unsat;
      } else {
        ++cs.negations_unknown;
      }
    }
    result.solver_stats += neg.stats();
  }

  cs.seconds = sw.elapsed_seconds();
  result.termination = term;
  return result;
}

}  // namespace statsym::concolic
