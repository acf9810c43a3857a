// The symbolic executor — the repository's KLEE analogue.
//
// Explores a mini-IR module by forking states at satisfiable branch
// directions, accumulating path constraints, and reporting the first
// solver-validated fault as a vulnerable path together with a concrete
// crashing input reconstructed from the model. Search order is pluggable
// (symexec/searcher.h); StatSym's statistics-guided policy plugs in through
// the same interface plus a GuidanceHook that observes function entry/exit
// (the paper's instrumented locations) and may inject predicate constraints
// or suspend states.
//
// Resource budgets (live states, modelled memory, instructions, wall time)
// terminate exploration the way the paper's 12 GB server bounded KLEE: a
// run that exhausts memory before reaching the bug reports kOutOfMemory —
// the "Failed" rows of Table IV.
//
// Exploration is a sequential loop of scheduling slices (DESIGN.md §13): the
// searcher picks a state, the state runs up to `slice` instructions, and the
// slice's outcome (fork, termination, fault, suspension) is applied before
// the next pick. Forks are copy-on-write, and the expression pool may be
// owned by the caller so that several runs (a concolic lane's follow runs)
// hash-cons into one pool.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/facts.h"
#include "interp/interpreter.h"
#include "monitor/log.h"
#include "obs/trace.h"
#include "solver/cache.h"
#include "solver/solver.h"
#include "support/stopwatch.h"
#include "symexec/searcher.h"
#include "symexec/state.h"

namespace statsym::symexec {

// One program input string: either concrete or a symbolic buffer of
// `capacity` bytes (per-byte variables; the final byte is pinned to NUL so
// every path has a terminated string, the standard KLEE harness idiom).
struct SymStr {
  std::string name;
  std::int64_t capacity{0};   // symbolic only
  bool symbolic{false};
  std::string concrete;       // concrete only

  static SymStr fixed(std::string value) {
    SymStr s;
    s.concrete = std::move(value);
    return s;
  }
  static SymStr sym(std::string name, std::int64_t capacity) {
    SymStr s;
    s.name = std::move(name);
    s.capacity = capacity;
    s.symbolic = true;
    return s;
  }
};

// How program inputs are made symbolic (the per-application configuration
// the paper describes in §VII-A: option formats are given, payload strings
// are symbolic).
struct SymInputSpec {
  std::vector<SymStr> argv;
  std::vector<std::pair<std::string, SymStr>> env;
};

enum class Termination : std::uint8_t {
  kFoundFault,    // vulnerable path identified and validated
  kExhausted,     // every path within the input space explored, no fault
  kOutOfMemory,   // modelled state memory exceeded (the paper's "Failed")
  kStateLimit,    // live-state cap exceeded
  kInstrLimit,
  kTimeout,
  kCancelled,     // an engine lane ranked after the winner (never started)
  kRunLimit,      // concolic lane: ConcolicOptions::max_runs spent
};

const char* termination_name(Termination t);

// Instruction budget shared by the executors of one analysis: its
// candidates and engine lanes, which run one after another. Each executor
// still enforces its own ExecOptions caps; on top of that it stops once the
// instructions of the executors that finished before it plus its own exceed
// `max_instructions`, so Table IV's "Failed = budget exhausted" describes
// the whole analysis, not one candidate. An executor adds its count to
// `instructions` when its run ends.
struct SharedBudget {
  std::uint64_t max_instructions{~0ull};
  std::uint64_t instructions{0};
};

// A discovered vulnerable path: fault point, location trace, constraints,
// and the reconstructed concrete input that triggers it.
struct VulnPath {
  interp::FaultKind kind{interp::FaultKind::kNone};
  std::string function;                   // fault-point function
  std::string detail;
  std::vector<monitor::LocId> trace;      // enter/leave events along the path
  std::vector<solver::ExprId> constraints;
  solver::Model model;
  bool model_valid{false};
  interp::RuntimeInput input;             // crashing input (replayable)
};

struct ExecStats {
  std::uint64_t instructions{0};
  std::uint64_t forks{0};
  std::uint64_t paths_completed{0};   // terminated: ok + infeasible + faults
  std::uint64_t paths_ok{0};
  std::uint64_t paths_infeasible{0};
  std::uint64_t faults_found{0};
  std::uint64_t suspensions{0};
  std::uint64_t wakes{0};
  std::size_t peak_live_states{0};
  std::size_t peak_memory_bytes{0};
  double seconds{0.0};

  // Paths the paper counts: completed plus the frontier still live at stop.
  std::uint64_t paths_explored{0};

  // Copy-on-write fork accounting: bytes clone_state actually copied versus
  // what an eager deep copy of the parent would have cost. Both are
  // functions of the explored paths.
  std::uint64_t clone_bytes{0};
  std::uint64_t eager_clone_bytes{0};
};

struct ExecResult {
  Termination termination{Termination::kExhausted};
  std::optional<VulnPath> vuln;
  ExecStats stats;
  solver::SolverStats solver_stats;
};

// One decision point shadow-recorded in follow (concolic) mode: the branch
// condition the concrete execution satisfied, its negation, and the length
// of the path-constraint prefix in force *before* the decision. The PC list
// is append-only, so `followed_path()[0..pc_prefix)` is exactly the prefix a
// concolic driver must conjoin with `negated` to steer a new input down the
// other side (generational search, SAGE-style).
struct Decision {
  solver::ExprId taken{solver::kNoExpr};
  solver::ExprId negated{solver::kNoExpr};
  std::size_t pc_prefix{0};
};

struct ExecOptions {
  SearcherKind searcher{SearcherKind::kDFS};
  std::uint64_t max_instructions{100'000'000};
  std::size_t max_live_states{200'000};
  std::size_t max_memory_bytes{512ull << 20};  // modelled, not process RSS
  double max_seconds{3600.0};
  bool stop_at_first_fault{true};
  // When non-empty, only faults attributed to this function count as
  // findings; faults elsewhere end their path silently. Used by the
  // multi-vulnerability iteration (§III-C): while hunting one fault
  // cluster, the other (already identified or yet-to-be-hunted) bugs on the
  // way are treated as known and skipped.
  std::string target_function;
  std::uint64_t seed{1};
  // When the searcher runs dry, wake suspended states and continue as pure
  // symbolic execution (the paper's worst-case-equals-pure guarantee).
  // StatSym's engine disables this and instead marks the candidate path
  // infeasible, moving on to the next candidate (§VII-C2, thttpd).
  bool wake_suspended{true};
  // Instructions executed per scheduling slice before the searcher picks
  // again.
  std::uint32_t slice{64};
  // Solver for fork-time queries. Fault validation runs in the same modes
  // at a fixed, far larger budget (executor.cc).
  solver::SolverOptions solver_opts{};
};

class SymExecutor;

// Observation/intervention point for statistics-guided search. Called at
// every function entry and exit with the location id; the hook may add
// predicate constraints (via SymExecutor::add_constraint) and decide the
// state's fate.
class GuidanceHook {
 public:
  enum class Action : std::uint8_t { kContinue, kSuspend };
  virtual ~GuidanceHook() = default;
  virtual Action on_location(SymExecutor& ex, State& st,
                             monitor::LocId loc) = 0;
  // Notification that a suspended state is being woken because no guided
  // states remain (the paper's fall-back to pure symbolic execution).
  virtual void on_wake(State& st) = 0;
};

class SymExecutor {
 public:
  // `pool`: an externally owned expression pool to build into (it must
  // outlive the executor and have no other concurrent user); null makes the
  // executor own a fresh one. Sharing a pool across runs interns the input
  // variables once and hash-conses the runs' expressions together; ids never
  // reach any output, so the results are those of a fresh pool.
  SymExecutor(const ir::Module& m, SymInputSpec spec, ExecOptions opts,
              solver::ExprPool* pool = nullptr);

  // Must be set before run() if guidance is desired.
  void set_guidance(GuidanceHook* hook) { hook_ = hook; }
  // Replaces the default searcher built from opts.searcher.
  void set_searcher(std::unique_ptr<Searcher> s) { searcher_ = std::move(s); }
  // Concolic follow mode: execution is driven by `input` instead of forking.
  // Every symbolic input variable is bound to the concrete value `input`
  // induces (missing entries default exactly as the concrete interpreter
  // defaults them), every decision point — branch, assert, division by zero,
  // symbolic address bounds — is resolved by evaluating its condition under
  // that valuation, and the taken/negated condition pair is recorded in
  // decisions(). Exactly one path executes; guidance must not be set.
  void set_follow_input(interp::RuntimeInput input) {
    follow_ = true;
    follow_input_ = std::move(input);
  }
  bool follow_mode() const { return follow_; }
  // Static program facts (must outlive the run): branches the whole-program
  // analysis decided are taken without a feasibility query and without
  // creating the statically-dead sibling (counted in
  // SolverStats::static_prunes, traced as static-prune events). Follow mode
  // ignores the facts — the driving input dictates every direction anyway.
  void set_facts(const analysis::ProgramFacts* facts) { facts_ = facts; }
  // Opt this executor into an analysis-wide budget (must outlive the run).
  void set_shared_budget(SharedBudget* budget) { budget_ = budget; }
  // Opt this executor's solvers (fork-time and fault validation) into a
  // query cache shared across executors (must outlive the run). It is the
  // executor's only cache: its keys are salted by budget tier and it holds
  // only canonical solve results, so a hit is the solve it replaces — see
  // DESIGN.md §"Solver". Without one, every query solves canonically.
  void set_shared_solver_cache(solver::SharedQueryCache* cache);
  // Opt this executor into structured tracing (must outlive the run): state
  // fork/suspend/wake/terminate events plus the solvers' query events land
  // in `trace` in execution order (see obs/trace.h).
  void set_trace(obs::TraceBuffer* trace);

  ExecResult run();

  // --- services (for guidance hooks and tests) ----------------------------
  const ir::Module& module() const { return m_; }
  solver::ExprPool& pool() { return pool_; }

  // Feasibility of pc ∧ e: false only when interval propagation proves unsat.
  bool feasible(State& st, solver::ExprId e);

  // Adds e to the state's path constraints; returns false when the state
  // becomes infeasible.
  bool add_constraint(State& st, solver::ExprId e);

  // Picks a concrete value for `e` consistent with the state's constraints
  // and pins it (adds e == value). Used for symbolic addresses/bitwise ops.
  std::int64_t concretize(State& st, solver::ExprId e);

  // --- follow-mode results (valid after run()) ----------------------------
  // The decision points of the followed path, in execution order.
  const std::vector<Decision>& decisions() const { return decisions_; }
  // The followed path's full constraint list (prefix slices per Decision).
  const std::vector<solver::ExprId>& followed_path() const {
    return followed_pc_;
  }
  // The concrete valuation the driving input induced on the input variables.
  const solver::Model& follow_valuation() const { return follow_vals_; }
  // Rebuilds a concrete RuntimeInput from a model over this run's input
  // variables (unconstrained bytes default to their domain minimum). This is
  // how a concolic driver turns a negation-query model into the next
  // concrete input, and it is total: every spec entry appears in the result.
  interp::RuntimeInput input_from_model(const solver::Model& model) const {
    return reconstruct_input(model);
  }

 private:
  enum class StepResult : std::uint8_t {
    kContinue,
    kForked,       // sibling_ holds the new state
    kTerminated,   // normal return from main
    kInfeasible,   // current path proven unsat
    kFault,        // fault recorded in pending_vuln_
    kSuspend,      // guidance suspended the state
  };

  // Input registries for model reconstruction.
  struct SymBufReg {
    std::string name;
    std::vector<solver::VarId> vars;  // one per byte
  };

  void build_initial_state();
  // `follow_value`: the concrete string driving this input in follow mode
  // (null otherwise) — per-byte values land in follow_vals_.
  ObjId make_input_object(State& st, const SymStr& s, const std::string& label,
                          const std::string* follow_value = nullptr);

  // Follow-mode helpers: evaluate an expression under the concrete
  // valuation, and record a decision point before constraining to `taken`.
  std::int64_t follow_eval(solver::ExprId e) const;
  void follow_decide(State& st, solver::ExprId taken, solver::ExprId negated);

  StepResult step(State& st);
  StepResult exec_call(State& st, const ir::Instr& in);
  StepResult exec_ret(State& st, const ir::Instr& in);
  StepResult exec_branch(State& st, const ir::Instr& in);
  StepResult exec_bin(State& st, const ir::Instr& in);
  // Returns true and the concrete address when the access can proceed;
  // returns false after recording a fault / infeasibility (result in
  // mem_step_result_).
  bool resolve_address(State& st, const ir::Instr& in, const SymValue& refv,
                       const SymValue& idxv, bool is_store,
                       std::int64_t& addr_out);

  StepResult fault_state(State& st, interp::FaultKind kind, std::string detail);
  StepResult apply_hook(State& st, monitor::LocId loc);

  // Reconstructs a concrete RuntimeInput from a model (unconstrained bytes
  // default to their domain minimum).
  interp::RuntimeInput reconstruct_input(const solver::Model& model) const;

  // Copy-on-write fork: freezes `st`'s private suffixes and returns an
  // arena-recycled sibling sharing every frozen prefix. The sibling's id is
  // assigned at commit, in draw order.
  std::unique_ptr<State> clone_state(State& st);

  // Runs one scheduling slice of `st` and applies its outcome; may finish
  // the run.
  void run_slice(State* st, ExecResult& result, Termination& term,
                 bool& done);
  // Removes a finished state from owned_ and recycles its shell.
  void destroy_state(State* st);

  std::size_t live_memory_estimate() const;

  const ir::Module& m_;
  SymInputSpec spec_;
  ExecOptions opts_;
  std::unique_ptr<solver::ExprPool> own_pool_;  // null when the caller owns it
  solver::ExprPool& pool_;
  solver::SharedQueryCache* shared_cache_{nullptr};
  // Fork-time solver.
  solver::Solver solver_;
  // Fault-validation solver counters and static prunes.
  solver::SolverStats validator_stats_;
  // Per-step outcome channels into run_slice.
  std::unique_ptr<State> sibling_;  // set by exec_branch on fork
  std::optional<VulnPath> pending_vuln_;
  StepResult mem_step_result_{StepResult::kContinue};
  Rng rng_;

  std::unique_ptr<Searcher> searcher_;
  // All live states (pending, running, suspended), keyed by state id.
  std::unordered_map<std::uint64_t, std::unique_ptr<State>> owned_;
  std::vector<State*> suspended_;
  GuidanceHook* hook_{nullptr};
  const analysis::ProgramFacts* facts_{nullptr};
  obs::TraceBuffer* trace_{nullptr};
  SharedBudget* budget_{nullptr};

  std::uint64_t next_state_id_{1};
  ExecStats stats_;
  StateArena arena_;

  // Program-input objects created in the initial state (the ids are copied
  // into every fork along with the rest of the state).
  std::vector<ObjId> argv_objs_;
  std::map<std::string, ObjId> env_objs_;

  std::vector<SymBufReg> sym_bufs_;
  std::map<std::string, solver::VarId> sym_ints_;

  // --- follow (concolic) mode ---------------------------------------------
  bool follow_{false};
  interp::RuntimeInput follow_input_;
  solver::Model follow_vals_;          // input var -> concrete value
  std::vector<Decision> decisions_;
  std::vector<solver::ExprId> followed_pc_;
};

}  // namespace statsym::symexec
