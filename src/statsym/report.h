// Human-readable reports over engine results: ranked predicate tables
// (paper Table V / Fig. 8 style), candidate-path dumps (Fig. 9) and
// vulnerable-path summaries.
#pragma once

#include <string>

#include "statsym/engine.h"

namespace statsym::core {

// "P1  len(suspect FUNCPARAM) > 536.5   L9(does_newnameExist():enter)" rows.
std::string format_predicates(const ir::Module& m,
                              const std::vector<stats::Predicate>& preds,
                              std::size_t top_k);

// Instrumented locations legend (Fig. 8 style).
std::string format_locations(const ir::Module& m);

// Candidate paths with their node names and scores (Fig. 9 style).
std::string format_candidates(const ir::Module& m,
                              const stats::PathConstruction& pc);

// One-paragraph summary of a discovered vulnerable path.
std::string format_vuln(const ir::Module& m, const symexec::VulnPath& v);

// Solver-layer accounting: queries, slices, per-level cache hits and the
// wall time the fast paths saved (ISSUE 4 instrumentation).
std::string format_solver_stats(const solver::SolverStats& s);

// The same accounting as named metrics: the solver.* counters and the
// solver.solve.seconds gauge, shared by every command that reports them.
void add_solver_metrics(obs::MetricsRegistry& m, const solver::SolverStats& s);

// Named pipeline metrics (obs/metrics.h) as an aligned counter/gauge table;
// histograms print count/min/mean/max.
std::string format_metrics(const obs::MetricsRegistry& m);

}  // namespace statsym::core
