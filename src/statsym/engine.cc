#include "statsym/engine.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <mutex>

#include "concolic/concolic.h"
#include "statsym/guided_searcher.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

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
  std::int32_t run_id = 0;
  if (tracer_ != nullptr) {
    tracer_->emit(obs::EventKind::kPhaseBegin, 0, 0, 0, "collect-logs");
  }

  // The module is decoded once; every attempt on every worker runs the
  // same read-only program.
  const interp::Program program(m_);

  // Every attempt owns a private RNG stream derived from (seed, attempt),
  // so the input it generates and the sampling decisions its monitor makes
  // do not depend on which worker runs it or in what order.
  //
  // Over-target attempts: once a class is full, an attempt whose run lands
  // in it cannot be admitted, so its log is never needed. While a class is
  // full the attempt first runs unmonitored (the monitor only observes, so
  // the outcome is the same) and is re-run monitored — same input, same
  // sampling stream — only when its outcome falls in a class still open.
  // `gen` is called exactly once per attempt either way. Returns no log
  // for an attempt that cannot be admitted.
  auto run_attempt = [&](std::size_t attempt, bool correct_open,
                         bool faulty_open) -> std::optional<monitor::RunLog> {
    Rng rng(derive_seed(opts_.seed, attempt));
    Rng input_rng = rng.split();
    interp::RuntimeInput input = gen(input_rng);
    if (!correct_open || !faulty_open) {
      interp::Interpreter plain(program, input);
      const bool faulty =
          plain.run().outcome == interp::RunOutcome::kFault;
      if (!(faulty ? faulty_open : correct_open)) return std::nullopt;
    }
    return monitor::run_monitored(program, std::move(input), opts_.monitor,
                                  rng.split(), /*run_id=*/0)
        .log;
  };
  auto correct_open = [&] { return correct < opts_.target_correct_logs; };
  auto faulty_open = [&] { return faulty < opts_.target_faulty_logs; };
  // Keep only as many logs per class as the target asks for — the paper
  // randomly samples 100 correct + 100 faulty logs from a large pool. The
  // run id is stamped at admission so it counts kept logs, as before.
  // Admission decides which runs belong to the set, so the fold happens
  // here, on the collecting thread, in admission order.
  auto admit = [&](std::optional<monitor::RunLog>&& attempt_log) {
    if (!attempt_log.has_value()) return;
    monitor::RunLog& log = *attempt_log;
    const bool is_faulty = log.faulty;
    const bool take = is_faulty ? faulty < opts_.target_faulty_logs
                                : correct < opts_.target_correct_logs;
    if (!take) return;
    log.run_id = run_id++;
    if (tracer_ != nullptr) {
      tracer_->emit(obs::EventKind::kLogAdmitted, log.run_id,
                    is_faulty ? 1 : 0,
                    static_cast<std::int64_t>(log.records.size()));
    }
    fold(log);
    if (keep_logs) logs_.push_back(std::move(log));
    ++(is_faulty ? faulty : correct);
  };
  auto targets_met = [&] { return !correct_open() && !faulty_open(); };

  const std::size_t nthreads = effective_threads(opts_.num_threads);
  if (nthreads <= 1) {
    for (std::size_t attempt = 0;
         attempt < opts_.max_workload_runs && !targets_met(); ++attempt) {
      admit(run_attempt(attempt, correct_open(), faulty_open()));
    }
  } else {
    // Waves of independent attempts fan out across the pool and merge in
    // attempt order, so the admitted set is bit-identical to the sequential
    // build. A wave may overshoot the point where the sequential loop would
    // have stopped — that is wasted work, never a semantic difference. The
    // over-target rule reads the class counts at wave start: a class full
    // then stays full, and attempts in a class that fills mid-wave are
    // monitored and then refused at merge, as the sequential loop would.
    ThreadPool pool(nthreads);
    const std::size_t wave = nthreads * 8;
    std::size_t next_attempt = 0;
    while (next_attempt < opts_.max_workload_runs && !targets_met()) {
      const std::size_t n =
          std::min(wave, opts_.max_workload_runs - next_attempt);
      const std::size_t base = next_attempt;
      const bool c_open = correct_open();
      const bool f_open = faulty_open();
      std::vector<std::optional<monitor::RunLog>> batch(n);
      pool.parallel_for(n, [&](std::size_t i) {
        batch[i] = run_attempt(base + i, c_open, f_open);
      });
      for (std::size_t i = 0; i < n && !targets_met(); ++i) {
        admit(std::move(batch[i]));
      }
      next_attempt += n;
    }
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
    run_portfolio(res, failure, n_try);  // the classic Phase 3, untouched
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

void StatSymEngine::run_portfolio(EngineResult& res, monitor::LocId failure,
                                  std::size_t n_try,
                                  const PortfolioEnv& env) {
  if (n_try == 0) return;
  const std::size_t nthreads = effective_threads(opts_.num_threads);
  const std::size_t width = std::max<std::size_t>(
      1, std::min(opts_.candidate_portfolio_width, nthreads));

  struct Slot {
    bool completed{false};  // ran to its natural termination (not cancelled)
    bool pruned{false};     // dropped by static analysis, never executed
    symexec::ExecResult result;
  };
  std::vector<Slot> slots(n_try);
  // Per-candidate cancel flags (deque: atomics are immovable). A candidate
  // is cancelled only when a *better-ranked* one has already verified the
  // vuln, so every candidate ranked at or before the eventual winner runs
  // to completion and the winner is the same at any thread count — the
  // sequential one-at-a-time semantics, minus the wall-clock.
  std::deque<std::atomic<bool>> cancel(n_try);
  std::atomic<std::size_t> best{n_try};  // best-ranked success so far
  std::mutex best_mu;                    // orders best updates + fan-out

  // Machine-global budget across the whole portfolio (Table IV "Failed"
  // semantics): memory and live states describe the machine, so concurrent
  // candidates share one pool; the instruction budget is the sequential
  // total (each of the n_try candidates brought its own cap).
  symexec::SharedBudget own_budget;
  own_budget.max_memory_bytes = opts_.exec.max_memory_bytes;
  own_budget.max_live_states = opts_.exec.max_live_states;
  own_budget.max_instructions =
      opts_.exec.max_instructions > ~0ull / n_try
          ? ~0ull
          : opts_.exec.max_instructions * n_try;
  symexec::SharedBudget& budget =
      env.budget != nullptr ? *env.budget : own_budget;

  // One query cache across the whole portfolio: a candidate's canonical
  // solver results warm its siblings' lookups. Safe for determinism because
  // only pure-function results are published (DESIGN.md §"Solver"). In the
  // engine race the cache comes from outside and additionally spans lanes.
  solver::SharedQueryCache own_queries;
  solver::SharedQueryCache& shared_queries =
      env.shared_queries != nullptr
          ? *env.shared_queries
          : (external_queries_ != nullptr ? *external_queries_ : own_queries);

  // Per-candidate trace buffers (lane = 1-based rank). Each is written only
  // by the worker running that candidate; after the join, the buffers of the
  // *counted* candidates are stitched into the root stream in rank order —
  // the same order-and-subset rule the stats sums follow — so the stream is
  // identical at any thread count. Cancelled candidates' events are dropped.
  std::vector<obs::TraceBuffer> slot_traces;
  if (tracer_ != nullptr) {
    slot_traces.reserve(n_try);
    for (std::size_t ci = 0; ci < n_try; ++ci) {
      slot_traces.push_back(
          tracer_->make_worker_buffer(static_cast<std::uint32_t>(ci + 1)));
    }
  }

  auto attempt = [&](std::size_t ci) {
    if (cancel[ci].load(std::memory_order_relaxed)) return;
    if (env.stop != nullptr && env.stop->load(std::memory_order_relaxed)) {
      return;
    }
    // Candidate pre-filter: a path that visits a function the static
    // analysis proved unreachable can never replay, so racing it is pure
    // waste. The candidate keeps its rank slot (and its derived seed), it
    // just completes instantly with empty stats — pruning never shifts any
    // sibling's identity, which is what keeps traces jobs-invariant.
    if (facts_.has_value()) {
      ir::FuncId dead_fn = -1;
      for (const monitor::LocId loc : res.construction.candidates[ci].nodes) {
        const ir::FuncId fid = monitor::loc_function(loc);
        if (!facts_->function_reachable(fid)) {
          dead_fn = fid;
          break;
        }
      }
      if (dead_fn >= 0) {
        slots[ci].completed = true;
        slots[ci].pruned = true;
        if (tracer_ != nullptr) {
          slot_traces[ci].emit(obs::EventKind::kStaticPrune,
                               static_cast<std::int64_t>(dead_fn), -1,
                               static_cast<std::int64_t>(ci + 1), "candidate");
        }
        return;
      }
    }
    CandidateGuidance guidance(m_, res.construction.candidates[ci],
                               res.predicates, opts_.guidance);
    symexec::ExecOptions exec_opts = opts_.exec;
    exec_opts.max_seconds = opts_.candidate_timeout_seconds;
    // Independent deterministic stream per candidate, whoever runs it.
    exec_opts.seed = derive_seed(opts_.exec.seed, ci);
    // Hunt the failure mode the logs describe; other faults reachable on
    // the way (a second bug in a multi-vulnerability program) end their
    // paths without ending the hunt (§III-C).
    if (exec_opts.target_function.empty()) {
      exec_opts.target_function =
          m_.function(monitor::loc_function(failure)).name;
    }
    // The engine handles exhausted guidance by marking the candidate path
    // infeasible and moving to the next one (§VII-C2), not by degrading the
    // current run to pure symbolic execution.
    exec_opts.wake_suspended = false;
    symexec::SymExecutor ex(m_, spec_, exec_opts);
    if (facts_.has_value()) ex.set_facts(&*facts_);
    ex.set_guidance(&guidance);
    ex.set_searcher(std::make_unique<GuidedSearcher>());
    ex.set_stop_flag(&cancel[ci]);
    if (env.stop != nullptr) ex.set_extra_stop_flag(env.stop);
    ex.set_shared_budget(&budget);
    ex.set_shared_solver_cache(&shared_queries);
    if (tracer_ != nullptr) {
      slot_traces[ci].emit(obs::EventKind::kExecBegin,
                           static_cast<std::int64_t>(ci + 1));
      ex.set_trace(&slot_traces[ci]);
    }

    symexec::ExecResult er = ex.run();
    slots[ci].completed =
        er.termination != symexec::Termination::kCancelled;
    const bool won = er.termination == symexec::Termination::kFoundFault &&
                     er.vuln.has_value();
    slots[ci].result = std::move(er);
    if (won) {
      std::lock_guard<std::mutex> lock(best_mu);
      if (ci < best.load(std::memory_order_relaxed)) {
        best.store(ci, std::memory_order_relaxed);
        for (std::size_t j = ci + 1; j < n_try; ++j) {
          cancel[j].store(true, std::memory_order_relaxed);
        }
      }
    }
  };

  {
    ThreadPool pool(width);
    std::vector<std::future<void>> futs;
    futs.reserve(n_try);
    for (std::size_t ci = 0; ci < n_try; ++ci) {
      futs.push_back(pool.submit([&attempt, ci] { attempt(ci); }));
    }
    for (auto& f : futs) f.get();
  }

  const std::size_t winner = best.load(std::memory_order_relaxed);
  if (winner < n_try) {
    res.found = true;
    res.vuln = std::move(slots[winner].result.vuln);
    res.winning_candidate = winner + 1;
  }
  // Account only the candidates the sequential loop would have tried (all
  // of which ran to completion here), keeping the sums thread-count
  // independent; cancelled better-than-nothing work is reported separately.
  const std::size_t counted = winner < n_try ? winner + 1 : n_try;
  for (std::size_t ci = 0; ci < counted; ++ci) {
    ++res.candidates_tried;
    if (slots[ci].pruned) ++res.candidates_pruned;
    res.paths_explored += slots[ci].result.stats.paths_explored;
    res.instructions += slots[ci].result.stats.instructions;
    res.solver_stats += slots[ci].result.solver_stats;
    if (tracer_ != nullptr) {
      if (env.sink != nullptr) {
        env.sink->append(std::move(slot_traces[ci]));
      } else {
        tracer_->absorb(std::move(slot_traces[ci]));
      }
    }
  }
  res.candidates_cancelled = n_try - counted;
  res.last_exec_stats = slots[counted - 1].result.stats;
}

void StatSymEngine::run_engines(EngineResult& res, monitor::LocId failure,
                                std::size_t n_try,
                                const std::vector<EngineKind>& lanes) {
  const std::size_t nlanes = lanes.size();
  const std::string target =
      m_.function(monitor::loc_function(failure)).name;

  // Per-lane race state, mirroring the candidate portfolio: a lane is
  // cancelled only when a *better-priority* lane has already verified the
  // vuln, so every lane at or before the eventual winner runs to its
  // natural termination and the winner is schedule-independent.
  std::deque<std::atomic<bool>> lane_cancel(nlanes);
  std::atomic<std::size_t> best{nlanes};
  std::mutex best_mu;

  // Machine-global budget across the race. The guided lane brings one
  // instruction-budget unit per candidate it may try; every other lane
  // brings one.
  std::size_t units = nlanes;
  for (const EngineKind k : lanes) {
    if (k == EngineKind::kGuided) units += n_try > 0 ? n_try - 1 : 0;
  }
  units = std::max<std::size_t>(units, 1);
  symexec::SharedBudget budget;
  budget.max_memory_bytes = opts_.exec.max_memory_bytes;
  budget.max_live_states = opts_.exec.max_live_states;
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

  struct Lane {
    bool found{false};
    symexec::Termination termination{symexec::Termination::kExhausted};
    std::optional<symexec::VulnPath> vuln;
    std::uint64_t paths{0};
    std::uint64_t instructions{0};
    std::uint64_t concolic_runs{0};
    solver::SolverStats solver_stats;
    double seconds{0.0};
    // Guided-lane bookkeeping, applied to `res` only if the lane counts.
    std::size_t candidates_tried{0};
    std::size_t candidates_cancelled{0};
    std::size_t candidates_pruned{0};
    std::size_t winning_candidate{0};
    symexec::ExecStats last_exec_stats;
  };
  std::vector<Lane> lane_out(nlanes);

  // Lane trace buffers live at ids 100 + priority, distinct from the
  // candidate buffers (1-based rank) the guided lane nests inside its own.
  std::vector<obs::TraceBuffer> lane_traces;
  if (tracer_ != nullptr) {
    lane_traces.reserve(nlanes);
    for (std::size_t p = 0; p < nlanes; ++p) {
      lane_traces.push_back(
          tracer_->make_worker_buffer(static_cast<std::uint32_t>(100 + p)));
    }
  }

  auto run_lane = [&](std::size_t p) {
    Lane& L = lane_out[p];
    if (lane_cancel[p].load(std::memory_order_relaxed)) {
      L.termination = symexec::Termination::kCancelled;
      return;
    }
    obs::TraceBuffer* lt = tracer_ != nullptr ? &lane_traces[p] : nullptr;
    const EngineKind kind = lanes[p];
    if (lt != nullptr) {
      lt->emit(obs::EventKind::kEngineLaneBegin,
               static_cast<std::int64_t>(p), static_cast<std::int64_t>(kind),
               0, engine_kind_name(kind));
    }
    Stopwatch sw;
    switch (kind) {
      case EngineKind::kGuided: {
        EngineResult gres;
        gres.construction = res.construction;
        gres.predicates = res.predicates;
        run_portfolio(gres, failure, n_try,
                      {.stop = &lane_cancel[p],
                       .budget = &budget,
                       .shared_queries = &shared_queries,
                       .sink = lt});
        L.found = gres.found;
        L.vuln = std::move(gres.vuln);
        L.paths = gres.paths_explored;
        L.instructions = gres.instructions;
        L.solver_stats = gres.solver_stats;
        L.candidates_tried = gres.candidates_tried;
        L.candidates_cancelled = gres.candidates_cancelled;
        L.candidates_pruned = gres.candidates_pruned;
        L.winning_candidate = gres.winning_candidate;
        L.last_exec_stats = gres.last_exec_stats;
        L.termination =
            L.found ? symexec::Termination::kFoundFault
            : lane_cancel[p].load(std::memory_order_relaxed)
                ? symexec::Termination::kCancelled
                : symexec::Termination::kExhausted;
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
        ex.set_stop_flag(&lane_cancel[p]);
        ex.set_shared_budget(&budget);
        ex.set_shared_solver_cache(&shared_queries);
        if (lt != nullptr) {
          lt->emit(obs::EventKind::kExecBegin, 0);
          ex.set_trace(lt);
        }
        symexec::ExecResult er = ex.run();
        L.found = er.termination == symexec::Termination::kFoundFault &&
                  er.vuln.has_value();
        L.termination = er.termination;
        L.vuln = std::move(er.vuln);
        L.paths = er.stats.paths_explored;
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
        ce.set_stop_flag(&lane_cancel[p]);
        ce.set_shared_budget(&budget);
        ce.set_shared_solver_cache(&shared_queries);
        if (lt != nullptr) ce.set_trace(lt);
        concolic::ConcolicResult cr = ce.run();
        L.found = cr.termination == symexec::Termination::kFoundFault &&
                  cr.vuln.has_value();
        L.termination = cr.termination;
        L.vuln = std::move(cr.vuln);
        L.paths = cr.stats.runs;  // one followed path per concrete run
        L.instructions = cr.stats.instructions;
        L.concolic_runs = cr.stats.runs;
        L.solver_stats = cr.solver_stats;
        break;
      }
    }
    L.seconds = sw.elapsed_seconds();
    if (lt != nullptr) {
      lt->emit(obs::EventKind::kEngineLaneEnd, static_cast<std::int64_t>(p),
               L.found ? 1 : 0, static_cast<std::int64_t>(L.termination),
               engine_kind_name(kind));
    }
    if (L.found) {
      std::lock_guard<std::mutex> lock(best_mu);
      if (p < best.load(std::memory_order_relaxed)) {
        best.store(p, std::memory_order_relaxed);
        for (std::size_t j = p + 1; j < nlanes; ++j) {
          lane_cancel[j].store(true, std::memory_order_relaxed);
        }
      }
    }
  };

  {
    const std::size_t nthreads = effective_threads(opts_.num_threads);
    ThreadPool pool(std::max<std::size_t>(1, std::min(nlanes, nthreads)));
    std::vector<std::future<void>> futs;
    futs.reserve(nlanes);
    for (std::size_t p = 0; p < nlanes; ++p) {
      futs.push_back(pool.submit([&run_lane, p] { run_lane(p); }));
    }
    for (auto& f : futs) f.get();
  }

  const std::size_t winner = best.load(std::memory_order_relaxed);
  const std::size_t counted = winner < nlanes ? winner + 1 : nlanes;

  // Counted-prefix accounting plus normalization: lanes ranked after the
  // winner report kCancelled with zero stats however far they ran, and
  // their trace buffers are dropped — identical output at any schedule.
  res.lanes.resize(nlanes);
  for (std::size_t p = 0; p < nlanes; ++p) {
    EngineLaneResult& out = res.lanes[p];
    out.kind = lanes[p];
    out.priority = p;
    if (p >= counted) {
      out.termination = symexec::Termination::kCancelled;
      continue;
    }
    Lane& L = lane_out[p];
    out.found = L.found;
    out.termination = L.termination;
    out.paths_explored = L.paths;
    out.instructions = L.instructions;
    out.concolic_runs = L.concolic_runs;
    out.solver_stats = L.solver_stats;
    out.seconds = L.seconds;
    res.paths_explored += L.paths;
    res.instructions += L.instructions;
    res.solver_stats += L.solver_stats;
    if (lanes[p] == EngineKind::kGuided) {
      res.candidates_tried = L.candidates_tried;
      res.candidates_cancelled = L.candidates_cancelled;
      res.candidates_pruned = L.candidates_pruned;
      res.winning_candidate = L.winning_candidate;
      res.last_exec_stats = L.last_exec_stats;
    }
    if (tracer_ != nullptr) tracer_->absorb(std::move(lane_traces[p]));
  }
  if (winner < nlanes) {
    res.found = true;
    res.vuln = std::move(lane_out[winner].vuln);
    res.winning_engine = lanes[winner];
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
