// The end-to-end StatSym pipeline (Fig. 3 / Fig. 5): workload execution
// under the sampling monitor → predicate construction and ranking →
// candidate-path construction → statistics-guided symbolic execution over
// the ranked candidates until the vulnerable path is verified.
//
// An analysis runs on the calling thread (DESIGN.md §5, "One thread per
// analysis"): workload attempts run in attempt order with per-attempt
// derived seeds, and the ranked candidates run one at a time until one
// verifies the vuln, as the paper's engine tries them (§VII-C2).
// Parallelism lives across independent analyses: the serve request pool
// and the fuzz campaign.
//
// Log ingestion has one path (DESIGN.md §10): each admitted RunLog is
// folded into mergeable sufficient statistics (stats/suff_stats.h) the
// moment it is admitted — correct runs into one accumulator, faulty runs
// into one per fault function — and then dropped, unless the caller asked
// to keep the raw logs. run() merges the accumulators once; run_all() merges
// the correct runs with one fault cluster at a time. Every statistic is a
// order-invariant sum, so the fit — predicate set, scores, score_lcb,
// candidate ranking — does not depend on the order of the folds.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/facts.h"
#include "monitor/monitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "statsym/guidance.h"
#include "stats/path_builder.h"
#include "stats/predicate_manager.h"
#include "stats/suff_stats.h"
#include "stats/transition_graph.h"
#include "symexec/executor.h"

namespace statsym::core {

// The engines that can race in Phase 3 (DESIGN.md §11). Guided is the
// classic statistics-guided loop over ranked candidate paths; pure is
// the unguided KLEE-style baseline; concolic is the generational-search DSE
// backend (src/concolic/).
enum class EngineKind : std::uint8_t { kGuided, kPure, kConcolic };

const char* engine_kind_name(EngineKind k);
std::optional<EngineKind> parse_engine_kind(std::string_view s);
// Parses a comma-separated lane list ("guided,pure,concolic", order =
// priority). Empty input or any unknown name yields nullopt.
std::optional<std::vector<EngineKind>> parse_engines(std::string_view csv);

struct EngineOptions {
  monitor::MonitorOptions monitor{};     // sampling rate etc.
  std::size_t target_correct_logs{100};  // logs per class (paper: 100 + 100)
  std::size_t target_faulty_logs{100};
  std::size_t max_workload_runs{10'000};

  stats::TransitionGraphOptions graph{};
  GuidanceOptions guidance{};
  symexec::ExecOptions exec{};       // per-candidate symbolic execution
  double candidate_timeout_seconds{900.0};  // paper: 15 min per candidate
  std::size_t max_candidates_tried{16};

  // Ignored: every analysis runs on the calling thread. Kept only because
  // the benchmark harness still writes them.
  std::size_t num_threads{0};
  std::size_t candidate_portfolio_width{4};

  // --- engine race --------------------------------------------------------
  // Phase-3 lanes in priority order (`--engines` in the CLI). Every Phase 3
  // is a race over this list, and the default is a one-lane race: the guided
  // candidate loop alone. The lanes run one at a time in priority order; the
  // first lane that verifies the vuln wins and the lanes after it never
  // start (reported as cancelled). An empty list runs no lane.
  std::vector<EngineKind> engines{EngineKind::kGuided};

  // --- static analysis ----------------------------------------------------
  // Run the whole-program abstract interpretation (src/analysis/) once per
  // module and feed its ProgramFacts into Phase 3: statically-decided
  // branches skip their solver feasibility queries (SolverStats::
  // static_prunes) and candidate paths that visit a provably-unreachable
  // function are dropped before racing. Sound facts only — turning this off
  // (`--no-static-analysis`) never changes any verdict or witness, only the
  // amount of work done to reach it.
  bool static_analysis{true};

  std::uint64_t seed{42};
};

// Produces one random program input per call (the "testing inputs" of
// Fig. 3). Implementations live in src/apps/workload.*.
using WorkloadGen = std::function<interp::RuntimeInput(Rng&)>;

// Per-lane accounting for the engine race. Lanes ranked after the winner
// never start and report termination kCancelled with zero stats, mirroring
// the candidates after the winning one.
struct EngineLaneResult {
  EngineKind kind{EngineKind::kGuided};
  std::size_t priority{0};  // position in EngineOptions::engines
  bool found{false};
  symexec::Termination termination{symexec::Termination::kCancelled};
  std::uint64_t paths_explored{0};  // concolic: concrete runs
  std::uint64_t instructions{0};
  std::uint64_t concolic_runs{0};   // 0 for non-concolic lanes
  solver::SolverStats solver_stats;
  double seconds{0.0};  // wall clock; the one nondeterministic field
};

struct EngineResult {
  bool found{false};
  std::optional<symexec::VulnPath> vuln;

  // Time breakdown (the paper's Tables II/III columns).
  double log_seconds{0.0};       // workload + monitoring
  double stat_seconds{0.0};      // statistical-analysis module
  double symexec_seconds{0.0};   // statistics-guided symbolic execution

  // Statistical-module outputs.
  std::vector<stats::Predicate> predicates;  // ranked
  stats::PathConstruction construction;      // skeleton/detours/candidates
  std::size_t log_bytes{0};
  std::size_t num_correct_logs{0};
  std::size_t num_faulty_logs{0};

  // Symbolic-execution accounting, summed over the lanes that ran; the guided
  // lane's share is summed over the candidates tried, those ranked at or
  // before the winner.
  std::uint64_t paths_explored{0};
  std::uint64_t instructions{0};
  // Solver-layer accounting (queries, per-level cache hits, slices, solve
  // wall time), summed over the same lanes and candidates as the fields
  // above.
  solver::SolverStats solver_stats;
  std::size_t candidates_tried{0};
  std::size_t winning_candidate{0};  // 1-based index; 0 when not found
  // Candidates ranked after the winner, which never start.
  std::size_t candidates_cancelled{0};
  // Tried candidates dropped before execution because their path visits a
  // statically-unreachable function (EngineOptions::static_analysis). They
  // still occupy their rank slot — pruning never shifts seeds or ranks.
  std::size_t candidates_pruned{0};
  symexec::ExecStats last_exec_stats;

  // Engine-race accounting, one entry per EngineOptions::engines lane; empty
  // only when the analysis stopped before Phase 3 (no failure node or no
  // candidate construction). `winning_engine` is meaningful only when
  // `found`.
  std::vector<EngineLaneResult> lanes;
  EngineKind winning_engine{EngineKind::kGuided};

  // Named pipeline metrics (obs/metrics.h). Every counter and histogram in
  // here is deterministic; values that depend on cache warmth (the
  // shared-cache-hit vs canonical-solve split) are folded into invariant
  // combinations or left to SolverStats. Gauges named `*.seconds` carry
  // wall times and are the only nondeterministic values.
  obs::MetricsRegistry metrics;
};

class StatSymEngine {
 public:
  StatSymEngine(const ir::Module& m, symexec::SymInputSpec spec,
                EngineOptions opts);

  // Phase 1a: runs the workload under the sampling monitor until the target
  // number of correct and faulty logs is collected (or the attempt cap).
  // Each admitted log is folded into the statistics and dropped; with
  // `keep_logs` it is also retained for logs() (`statsym collect` writes
  // them out).
  void collect_logs(const WorkloadGen& gen, bool keep_logs = false);

  // Phase 1b alternative: folds pre-collected logs (e.g. deserialised from
  // files, or corrupted by a failure-injection test) into the statistics.
  // The engine keeps no reference to them.
  void use_logs(const std::vector<monitor::RunLog>& logs);

  // Optional structured tracing (obs/trace.h): phase begin/end, log
  // admissions, predicate fits, candidate ranks, and the symbolic
  // execution events of the counted candidates in rank order, each tagged
  // with its candidate's lane.
  // The tracer must outlive the engine. Null (the default) disables
  // tracing; the cost of the disabled path is one pointer test per would-be
  // event.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Service mode (src/serve/): every Phase-3 solve goes through `cache`
  // instead of a run-local one, so canonical results persist across engine
  // instances and warm later requests for the same program. Safe for
  // determinism because only canonical pure-function results are published,
  // so a warm hit returns exactly the bytes a cold solve would have produced
  // — verdicts, stats sums and traces are unchanged at any warmth (DESIGN.md
  // §14). The cache must outlive
  // every run()/run_all() call. Null restores the run-local default.
  void set_shared_solver_cache(solver::SharedQueryCache* cache) {
    external_queries_ = cache;
  }

  // The raw logs kept by collect_logs(gen, /*keep_logs=*/true), in
  // admission order; empty otherwise.
  const std::vector<monitor::RunLog>& logs() const { return logs_; }

  // Logs folded into the statistics so far.
  std::size_t num_logs_collected() const;

  // Phases 2–3: statistical analysis + guided symbolic execution.
  EngineResult run();

  // §III-C extension: programs with multiple vulnerabilities. Faulty logs
  // are clustered by their fault function (the paper points at bug-isolation
  // techniques for this separation; the monitor's crash tag is the cluster
  // label) and StatSym runs once per cluster, identifying the vulnerable
  // paths one by one. Returns one EngineResult per discovered vulnerability,
  // at most `max_vulns`. The per-cluster sufficient statistics are kept
  // from collection, so this needs no raw logs.
  std::vector<EngineResult> run_all(std::size_t max_vulns = 8);

 private:
  // Folds one admitted run into its cluster's sufficient statistics.
  void fold(const monitor::RunLog& log);

  // Phases 2–3 from sufficient statistics.
  EngineResult run_on(const stats::SuffStats& suff);

  // Phase 3: runs the lanes of EngineOptions::engines one at a time in
  // priority order until one wins, on one instruction budget and one query
  // cache; accounting covers the lanes at or before the winner.
  void run_engines(EngineResult& res, monitor::LocId failure,
                   std::size_t n_try);

  // The guided lane: runs the top n_try candidates one at a time in rank
  // order, stopping at the first that verifies the vuln, on the race's
  // budget and cache. Writes the candidate fields of `res` and the lane's
  // totals into `lane`; returns the verified vuln, if any. The lane's
  // termination is found-fault on a verified candidate, else that of the
  // first tried candidate that did not end exhausted, else exhausted.
  std::optional<symexec::VulnPath> run_candidates(
      EngineResult& res, EngineLaneResult& lane, const std::string& target,
      std::size_t n_try, symexec::SharedBudget& budget,
      solver::SharedQueryCache& queries);

  // Renders the result + ingestion accounting into res.metrics.
  void fill_metrics(EngineResult& res, const stats::SuffStats& suff) const;

  const ir::Module& m_;
  symexec::SymInputSpec spec_;
  EngineOptions opts_;
  // Whole-program facts, computed lazily before the first Phase-3 run when
  // EngineOptions::static_analysis is on and a lane that reads them (guided
  // or pure) is in EngineOptions::engines (pure function of the module).
  std::optional<analysis::ProgramFacts> facts_;
  // Per-cluster sufficient statistics: correct runs in one accumulator,
  // faulty runs keyed by fault function ("" for runs without a fault tag).
  stats::SuffStats correct_suff_;
  std::map<std::string, stats::SuffStats> faulty_suff_;
  std::vector<monitor::RunLog> logs_;  // only with collect_logs(keep_logs)
  double log_seconds_{0.0};
  obs::Tracer* tracer_{nullptr};
  // Persistent cross-run cache supplied by a serve session (null outside
  // service mode; never owned).
  solver::SharedQueryCache* external_queries_{nullptr};
};

// Pure-KLEE baseline on the same module/input spec: unguided symbolic
// execution with the given options (Table IV's right-hand columns).
// `trace`, when non-null, receives the execution's state/solver events
// (kExecBegin carries candidate rank 0 = pure run). `facts`, when non-null,
// enables static branch pruning exactly as in the engine's own lanes.
symexec::ExecResult run_pure_symbolic(const ir::Module& m,
                                      const symexec::SymInputSpec& spec,
                                      const symexec::ExecOptions& opts,
                                      obs::TraceBuffer* trace = nullptr,
                                      const analysis::ProgramFacts* facts =
                                          nullptr);

}  // namespace statsym::core
