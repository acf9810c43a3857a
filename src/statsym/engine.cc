#include "statsym/engine.h"

#include <algorithm>

#include "concolic/concolic.h"
#include "statsym/guided_searcher.h"
#include "support/stopwatch.h"
#include "support/rng.h"

namespace statsym::core {

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kGuided: return "guided";
    case EngineKind::kPure: return "pure";
    case EngineKind::kConcolic: return "concolic";
  }
  return "?";
}

std::optional<EngineKind> parse_engine_kind(std::string_view s) {
  if (s == "guided") return EngineKind::kGuided;
  if (s == "pure") return EngineKind::kPure;
  if (s == "concolic") return EngineKind::kConcolic;
  return std::nullopt;
}

std::optional<std::vector<EngineKind>> parse_engines(std::string_view csv) {
  std::vector<EngineKind> out;
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',');
    const std::string_view tok = csv.substr(0, comma);
    const auto kind = parse_engine_kind(tok);
    if (!kind.has_value()) return std::nullopt;
    out.push_back(*kind);
    if (comma == std::string_view::npos) break;
    csv.remove_prefix(comma + 1);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

// Renders the result's accounting into the named metrics registry. Counters
// and histograms here are schedule-invariant: the shared-cache-hit vs
// canonical-solve split (the one schedule-dependent pair in SolverStats) is
// folded into their sum, and everything wall-clock goes into `*.seconds`
// gauges.
void StatSymEngine::fill_metrics(EngineResult& res,
                                 const stats::SuffStats& suff) const {
  obs::MetricsRegistry& m = res.metrics;
  m.add("log.correct", res.num_correct_logs);
  m.add("log.faulty", res.num_faulty_logs);
  m.add("log.bytes", res.log_bytes);
  m.add("log.records_considered", suff.records_considered());

  m.add("stat.predicates", res.predicates.size());
  m.add("stat.candidates", res.construction.candidates.size());
  for (const auto& p : res.predicates) {
    m.observe("stat.predicate_score", p.score);
  }
  for (const auto& c : res.construction.candidates) {
    m.observe("stat.candidate_len", static_cast<double>(c.nodes.size()));
  }

  m.add("symexec.found", res.found ? 1 : 0);
  m.add("symexec.candidates_tried", res.candidates_tried);
  m.add("symexec.candidates_cancelled", res.candidates_cancelled);
  m.add("symexec.paths_explored", res.paths_explored);
  m.add("symexec.instructions", res.instructions);

  // Engine-race counters appear only when Phase 3 actually raced lanes, so
  // classic single-engine metric renderings are byte-identical to before.
  if (!res.lanes.empty()) {
    m.add("engine.lanes", res.lanes.size());
    std::size_t cancelled = 0;
    std::size_t winner = 0;  // 1-based priority; 0 = no lane won
    std::uint64_t concolic_runs = 0;
    for (const auto& l : res.lanes) {
      if (l.termination == symexec::Termination::kCancelled) ++cancelled;
      if (l.found && winner == 0) winner = l.priority + 1;
      concolic_runs += l.concolic_runs;
    }
    m.add("engine.lanes_cancelled", cancelled);
    m.add("engine.winner_priority", winner);
    m.add("engine.concolic_runs", concolic_runs);
  }

  const solver::SolverStats& ss = res.solver_stats;
  m.add("solver.queries", ss.queries);
  m.add("solver.sat", ss.sat);
  m.add("solver.unsat", ss.unsat);
  m.add("solver.unknown", ss.unknown);
  m.add("solver.slices", ss.slices);
  m.add("solver.multi_slice_queries", ss.multi_slice_queries);
  m.add("solver.local_cache_hits", ss.cache_hits);
  m.add("solver.canonical", ss.shared_cache_hits + ss.solves);
  m.add("solver.static_prunes", ss.static_prunes);

  // Static-analysis counters appear only when the analysis ran, so
  // analysis-off metric renderings are byte-identical to before.
  if (facts_.has_value()) {
    m.add("analysis.unreachable_blocks", facts_->num_unreachable_blocks());
    m.add("analysis.decided_branches", facts_->num_decided_branches());
    m.add("analysis.findings", facts_->findings().size());
    m.add("analysis.candidates_pruned", res.candidates_pruned);
  }

  m.set_gauge("phase.log.seconds", res.log_seconds);
  m.set_gauge("phase.stat.seconds", res.stat_seconds);
  m.set_gauge("phase.symexec.seconds", res.symexec_seconds);
  m.set_gauge("phase.total.seconds",
              res.log_seconds + res.stat_seconds + res.symexec_seconds);
  m.set_gauge("solver.solve.seconds", ss.solve_seconds);
}

StatSymEngine::StatSymEngine(const ir::Module& m, symexec::SymInputSpec spec,
                             EngineOptions opts)
    : m_(m), spec_(std::move(spec)), opts_(opts) {}

void StatSymEngine::fold(const monitor::RunLog& log) {
  (log.faulty ? faulty_suff_[log.fault_function] : correct_suff_).ingest(log);
}

std::size_t StatSymEngine::num_logs_collected() const {
  std::size_t n = correct_suff_.num_correct_runs();
  for (const auto& [fn, suff] : faulty_suff_) n += suff.num_faulty_runs();
  return n;
}

void StatSymEngine::collect_logs(const WorkloadGen& gen, bool keep_logs) {
  Stopwatch sw;
  std::size_t correct = 0;
  std::size_t faulty = 0;
  if (tracer_ != nullptr) {
    tracer_->emit(obs::EventKind::kPhaseBegin, 0, 0, 0, "collect-logs");
  }

  // The module is decoded once; every attempt runs the same read-only
  // program.
  const interp::Program program(m_);

  for (std::size_t attempt = 0; attempt < opts_.max_workload_runs; ++attempt) {
    const bool correct_open = correct < opts_.target_correct_logs;
    const bool faulty_open = faulty < opts_.target_faulty_logs;
    if (!correct_open && !faulty_open) break;
    // Every attempt owns a private RNG stream derived from (seed, attempt),
    // so the input it generates and the sampling decisions its monitor
    // makes depend on nothing but its index.
    Rng rng(derive_seed(opts_.seed, attempt));
    Rng input_rng = rng.split();
    interp::RuntimeInput input = gen(input_rng);
    // Over-target attempts: once a class is full, an attempt whose run
    // lands in it cannot be admitted, so its log is never needed. While a
    // class is full the attempt first runs unmonitored (the monitor only
    // observes, so the outcome is the same) and is re-run monitored — same
    // input, same sampling stream — only when its outcome falls in a class
    // still open. `gen` is called exactly once per attempt either way.
    if (!correct_open || !faulty_open) {
      interp::Interpreter plain(program, input);
      const bool is_faulty =
          plain.run().outcome == interp::RunOutcome::kFault;
      if (!(is_faulty ? faulty_open : correct_open)) continue;
    }
    // Keep only as many logs per class as the target asks for — the paper
    // randomly samples 100 correct + 100 faulty logs from a large pool. The
    // run id counts kept logs, and the log is folded into the statistics
    // here, in admission order.
    monitor::RunLog log =
        monitor::run_monitored(program, std::move(input), opts_.monitor,
                               rng.split(),
                               static_cast<std::int32_t>(correct + faulty))
            .log;
    if (tracer_ != nullptr) {
      tracer_->emit(obs::EventKind::kLogAdmitted, log.run_id,
                    log.faulty ? 1 : 0,
                    static_cast<std::int64_t>(log.records.size()));
    }
    fold(log);
    ++(log.faulty ? faulty : correct);
    if (keep_logs) logs_.push_back(std::move(log));
  }
  log_seconds_ = sw.elapsed_seconds();
  if (tracer_ != nullptr) {
    tracer_->emit(obs::EventKind::kPhaseEnd, 0, 0, 0, "collect-logs");
  }
}

void StatSymEngine::use_logs(const std::vector<monitor::RunLog>& logs) {
  for (const auto& log : logs) fold(log);
}

EngineResult StatSymEngine::run() {
  stats::SuffStats merged = correct_suff_;
  for (const auto& [fn, suff] : faulty_suff_) merged.merge(suff);
  return run_on(merged);
}

EngineResult StatSymEngine::run_on(const stats::SuffStats& suff) {
  EngineResult res;
  res.log_seconds = log_seconds_;
  res.num_correct_logs = suff.num_correct_runs();
  res.num_faulty_logs = suff.num_faulty_runs();
  res.log_bytes = static_cast<std::size_t>(suff.log_bytes());

  // --- Statistical analysis module ---------------------------------------
  obs::TraceBuffer* trace = tracer_ != nullptr ? &tracer_->buffer() : nullptr;
  if (trace != nullptr) {
    trace->emit(obs::EventKind::kPhaseBegin, 0, 0, 0, "stat");
  }
  Stopwatch stat_sw;

  stats::PredicateManager preds(opts_.predicates);
  preds.build(suff, trace);
  res.predicates = preds.ranked();

  stats::TransitionGraph graph(opts_.graph);
  graph.build(suff);

  const monitor::LocId failure =
      stats::TransitionGraph::failure_node(suff, &m_);
  if (failure == monitor::kNoLoc) {
    res.stat_seconds = stat_sw.elapsed_seconds();
    if (trace != nullptr) {
      trace->emit(obs::EventKind::kPhaseEnd, 0, 0, 0, "stat");
    }
    fill_metrics(res, suff);
    return res;  // no faulty logs: nothing to guide toward
  }

  stats::PathBuilder builder(graph, preds, opts_.paths);
  auto construction = builder.build(failure, trace);
  res.stat_seconds = stat_sw.elapsed_seconds();
  if (trace != nullptr) {
    trace->emit(obs::EventKind::kPhaseEnd, 0, 0, 0, "stat");
  }
  if (!construction.has_value()) {
    fill_metrics(res, suff);
    return res;
  }
  res.construction = std::move(*construction);

  // --- Whole-program static analysis -------------------------------------
  // Pure function of the module, so one computation serves every Phase-3
  // run of this engine. The facts are sound over-approximations: consulting
  // them skips work (branch feasibility queries, dead candidates) without
  // ever changing a verdict, witness, or trace-visible ordering decision.
  if (opts_.static_analysis && !facts_.has_value()) {
    facts_ = analysis::analyze(m_);
  }

  // --- Statistics-guided symbolic execution ------------------------------
  if (trace != nullptr) {
    trace->emit(obs::EventKind::kPhaseBegin, 0, 0, 0, "symexec");
  }
  Stopwatch exec_sw;
  const std::size_t n_try =
      std::min(res.construction.candidates.size(), opts_.max_candidates_tried);
  const std::vector<EngineKind>& lanes = opts_.engines;
  if (lanes.empty() || lanes == std::vector{EngineKind::kGuided}) {
    run_candidates(res, failure, n_try);  // the classic Phase 3
  } else {
    run_engines(res, failure, n_try, lanes);
  }
  res.symexec_seconds = exec_sw.elapsed_seconds();
  if (trace != nullptr) {
    trace->emit(obs::EventKind::kPhaseEnd, 0, 0, 0, "symexec");
  }
  fill_metrics(res, suff);
  return res;
}

void StatSymEngine::run_candidates(EngineResult& res, monitor::LocId failure,
                                   std::size_t n_try,
                                   const CandidateEnv& env) {
  if (n_try == 0) return;

  // One instruction budget across the whole candidate loop (Table IV
  // "Failed" semantics): the sequential total, each of the n_try candidates
  // bringing its own cap.
  symexec::SharedBudget own_budget;
  own_budget.max_instructions =
      opts_.exec.max_instructions > ~0ull / n_try
          ? ~0ull
          : opts_.exec.max_instructions * n_try;
  symexec::SharedBudget& budget =
      env.budget != nullptr ? *env.budget : own_budget;

  // One query cache across the candidates: a candidate's canonical solver
  // results warm its successors' lookups. Safe for determinism because only
  // pure-function results are published (DESIGN.md §"Solver"). In the
  // engine race the cache comes from outside and additionally spans lanes.
  solver::SharedQueryCache own_queries;
  solver::SharedQueryCache& shared_queries =
      env.shared_queries != nullptr
          ? *env.shared_queries
          : (external_queries_ != nullptr ? *external_queries_ : own_queries);

  // Candidates run one at a time in rank order until one verifies the vuln.
  // The candidates ranked after the winner never start and are reported as
  // cancelled. A candidate's events carry its 1-based rank as their lane;
  // the outer lane comes back once it finishes.
  obs::TraceBuffer* trace = tracer_ != nullptr ? &tracer_->buffer() : nullptr;
  const std::uint32_t outer_lane = trace != nullptr ? trace->lane() : 0;
  for (std::size_t ci = 0; ci < n_try && !res.found; ++ci) {
    ++res.candidates_tried;
    if (trace != nullptr) trace->set_lane(static_cast<std::uint32_t>(ci + 1));
    symexec::ExecResult er;
    // Candidate pre-filter: a path that visits a function the static
    // analysis proved unreachable can never replay, so running it is pure
    // waste. The candidate keeps its rank slot (and its derived seed), it
    // just completes instantly with empty stats — pruning never shifts any
    // later candidate's identity.
    ir::FuncId dead_fn = -1;
    if (facts_.has_value()) {
      for (const monitor::LocId loc : res.construction.candidates[ci].nodes) {
        const ir::FuncId fid = monitor::loc_function(loc);
        if (!facts_->function_reachable(fid)) {
          dead_fn = fid;
          break;
        }
      }
    }
    if (dead_fn >= 0) {
      ++res.candidates_pruned;
      if (trace != nullptr) {
        trace->emit(obs::EventKind::kStaticPrune,
                    static_cast<std::int64_t>(dead_fn), -1,
                    static_cast<std::int64_t>(ci + 1), "candidate");
      }
    } else {
      CandidateGuidance guidance(m_, res.construction.candidates[ci],
                                 res.predicates, opts_.guidance);
      symexec::ExecOptions exec_opts = opts_.exec;
      exec_opts.max_seconds = opts_.candidate_timeout_seconds;
      // Independent deterministic stream per candidate.
      exec_opts.seed = derive_seed(opts_.exec.seed, ci);
      // Hunt the failure mode the logs describe; other faults reachable on
      // the way (a second bug in a multi-vulnerability program) end their
      // paths without ending the hunt (§III-C).
      if (exec_opts.target_function.empty()) {
        exec_opts.target_function =
            m_.function(monitor::loc_function(failure)).name;
      }
      // The engine handles exhausted guidance by marking the candidate path
      // infeasible and moving to the next one (§VII-C2), not by degrading
      // the current run to pure symbolic execution.
      exec_opts.wake_suspended = false;
      symexec::SymExecutor ex(m_, spec_, exec_opts);
      if (facts_.has_value()) ex.set_facts(&*facts_);
      ex.set_guidance(&guidance);
      ex.set_searcher(std::make_unique<GuidedSearcher>());
      ex.set_shared_budget(&budget);
      ex.set_shared_solver_cache(&shared_queries);
      if (trace != nullptr) {
        trace->emit(obs::EventKind::kExecBegin,
                    static_cast<std::int64_t>(ci + 1));
        ex.set_trace(trace);
      }
      er = ex.run();
    }
    res.paths_explored += er.stats.paths_explored;
    res.instructions += er.stats.instructions;
    res.solver_stats += er.solver_stats;
    res.last_exec_stats = er.stats;
    if (trace != nullptr) trace->set_lane(outer_lane);
    if (er.termination == symexec::Termination::kFoundFault &&
        er.vuln.has_value()) {
      res.found = true;
      res.vuln = std::move(er.vuln);
      res.winning_candidate = ci + 1;
    }
  }
  res.candidates_cancelled = n_try - res.candidates_tried;
}

void StatSymEngine::run_engines(EngineResult& res, monitor::LocId failure,
                                std::size_t n_try,
                                const std::vector<EngineKind>& lanes) {
  const std::size_t nlanes = lanes.size();
  const std::string target =
      m_.function(monitor::loc_function(failure)).name;

  // One instruction budget across the race. The guided lane brings one
  // instruction-budget unit per candidate it may try; every other lane
  // brings one.
  std::size_t units = nlanes;
  for (const EngineKind k : lanes) {
    if (k == EngineKind::kGuided) units += n_try > 0 ? n_try - 1 : 0;
  }
  units = std::max<std::size_t>(units, 1);
  symexec::SharedBudget budget;
  budget.max_instructions = opts_.exec.max_instructions > ~0ull / units
                                ? ~0ull
                                : opts_.exec.max_instructions * units;

  // One query cache for everything: a concolic negation solve warms a
  // symbolic lane's fork probe and vice versa (fingerprints are
  // pool-independent, results pure functions of the slice). In service mode
  // the session's persistent cache takes its place and outlives the race.
  solver::SharedQueryCache own_queries;
  solver::SharedQueryCache& shared_queries =
      external_queries_ != nullptr ? *external_queries_ : own_queries;

  // Lanes run one at a time in priority order until one verifies the vuln.
  // Lanes after the winner never start: they keep the default kCancelled
  // termination and zero stats. A lane's events carry lane 100 + priority,
  // distinct from the candidate ranks the guided lane tags its candidates
  // with; the outer lane comes back once the lane finishes.
  obs::TraceBuffer* trace = tracer_ != nullptr ? &tracer_->buffer() : nullptr;
  const std::uint32_t outer_lane = trace != nullptr ? trace->lane() : 0;
  res.lanes.resize(nlanes);
  for (std::size_t p = 0; p < nlanes; ++p) {
    res.lanes[p].kind = lanes[p];
    res.lanes[p].priority = p;
  }
  for (std::size_t p = 0; p < nlanes && !res.found; ++p) {
    EngineLaneResult& L = res.lanes[p];
    const EngineKind kind = lanes[p];
    if (trace != nullptr) {
      trace->set_lane(static_cast<std::uint32_t>(100 + p));
      trace->emit(obs::EventKind::kEngineLaneBegin,
                  static_cast<std::int64_t>(p),
                  static_cast<std::int64_t>(kind), 0, engine_kind_name(kind));
    }
    std::optional<symexec::VulnPath> vuln;
    Stopwatch sw;
    switch (kind) {
      case EngineKind::kGuided: {
        EngineResult gres;
        gres.construction = res.construction;
        gres.predicates = res.predicates;
        run_candidates(gres, failure, n_try,
                       {.budget = &budget, .shared_queries = &shared_queries});
        L.found = gres.found;
        L.termination = L.found ? symexec::Termination::kFoundFault
                                : symexec::Termination::kExhausted;
        vuln = std::move(gres.vuln);
        L.paths_explored = gres.paths_explored;
        L.instructions = gres.instructions;
        L.solver_stats = gres.solver_stats;
        res.candidates_tried = gres.candidates_tried;
        res.candidates_cancelled = gres.candidates_cancelled;
        res.candidates_pruned = gres.candidates_pruned;
        res.winning_candidate = gres.winning_candidate;
        res.last_exec_stats = gres.last_exec_stats;
        break;
      }
      case EngineKind::kPure: {
        symexec::ExecOptions eo = opts_.exec;
        eo.max_seconds = opts_.candidate_timeout_seconds;
        // Independent deterministic stream per lane: keyed by priority,
        // offset so it never collides with a candidate's derive_seed(ci).
        eo.seed = derive_seed(opts_.exec.seed, 1000 + p);
        if (eo.target_function.empty()) eo.target_function = target;
        symexec::SymExecutor ex(m_, spec_, eo);
        if (facts_.has_value()) ex.set_facts(&*facts_);
        ex.set_shared_budget(&budget);
        ex.set_shared_solver_cache(&shared_queries);
        if (trace != nullptr) {
          trace->emit(obs::EventKind::kExecBegin, 0);
          ex.set_trace(trace);
        }
        symexec::ExecResult er = ex.run();
        L.found = er.termination == symexec::Termination::kFoundFault &&
                  er.vuln.has_value();
        L.termination = er.termination;
        vuln = std::move(er.vuln);
        L.paths_explored = er.stats.paths_explored;
        L.instructions = er.stats.instructions;
        L.solver_stats = er.solver_stats;
        break;
      }
      case EngineKind::kConcolic: {
        concolic::ConcolicOptions co;
        co.exec = opts_.exec;
        co.exec.max_seconds = opts_.candidate_timeout_seconds;
        if (co.exec.target_function.empty()) co.exec.target_function = target;
        co.seed = derive_seed(opts_.exec.seed, 2000 + p);
        // The top candidate path's gated predicates order the frontier;
        // without a candidate the lane keeps its plain FIFO order.
        std::optional<FrontierRanker> ranker;
        if (!res.construction.candidates.empty()) {
          ranker.emplace(m_, res.construction.candidates[0],
                         res.predicates, opts_.guidance, opts_.monitor);
        }
        concolic::ConcolicExecutor ce(m_, spec_, co);
        if (ranker.has_value()) ce.set_ranker(&*ranker);
        ce.set_shared_budget(&budget);
        ce.set_shared_solver_cache(&shared_queries);
        if (trace != nullptr) ce.set_trace(trace);
        concolic::ConcolicResult cr = ce.run();
        L.found = cr.termination == symexec::Termination::kFoundFault &&
                  cr.vuln.has_value();
        L.termination = cr.termination;
        vuln = std::move(cr.vuln);
        L.paths_explored = cr.stats.runs;  // one followed path per run
        L.instructions = cr.stats.instructions;
        L.concolic_runs = cr.stats.runs;
        L.solver_stats = cr.solver_stats;
        break;
      }
    }
    L.seconds = sw.elapsed_seconds();
    res.paths_explored += L.paths_explored;
    res.instructions += L.instructions;
    res.solver_stats += L.solver_stats;
    if (trace != nullptr) {
      trace->emit(obs::EventKind::kEngineLaneEnd, static_cast<std::int64_t>(p),
                  L.found ? 1 : 0, static_cast<std::int64_t>(L.termination),
                  engine_kind_name(kind));
      trace->set_lane(outer_lane);
    }
    if (L.found) {
      res.found = true;
      res.vuln = std::move(vuln);
      res.winning_engine = kind;
    }
  }
}

std::vector<EngineResult> StatSymEngine::run_all(std::size_t max_vulns) {
  // Largest cluster first (ties by name): the dominant failure mode is
  // found first, as in the paper's iterative one-by-one process.
  std::vector<const std::string*> order;
  for (const auto& [fn, suff] : faulty_suff_) order.push_back(&fn);
  std::sort(order.begin(), order.end(),
            [&](const std::string* a, const std::string* b) {
              const std::size_t na = faulty_suff_.at(*a).num_faulty_runs();
              const std::size_t nb = faulty_suff_.at(*b).num_faulty_runs();
              if (na != nb) return na > nb;
              return *a < *b;
            });
  std::vector<EngineResult> results;
  for (const std::string* fn : order) {
    if (results.size() >= max_vulns) break;
    stats::SuffStats subset = correct_suff_;
    subset.merge(faulty_suff_.at(*fn));
    EngineResult res = run_on(subset);
    if (res.found) results.push_back(std::move(res));
  }
  return results;
}

symexec::ExecResult run_pure_symbolic(const ir::Module& m,
                                      const symexec::SymInputSpec& spec,
                                      const symexec::ExecOptions& opts,
                                      obs::TraceBuffer* trace,
                                      const analysis::ProgramFacts* facts) {
  symexec::SymExecutor ex(m, spec, opts);
  if (facts != nullptr) ex.set_facts(facts);
  if (trace != nullptr) {
    trace->emit(obs::EventKind::kExecBegin, 0);
    ex.set_trace(trace);
  }
  return ex.run();
}

}  // namespace statsym::core
