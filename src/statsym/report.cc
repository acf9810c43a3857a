#include "statsym/report.h"

#include <sstream>

#include "support/strings.h"
#include "support/table.h"

namespace statsym::core {

std::string format_predicates(const ir::Module& m,
                              const std::vector<stats::Predicate>& preds,
                              std::size_t top_k) {
  TextTable t({"No.", "Predicate", "Score", "Loc"});
  const std::size_t n = std::min(top_k, preds.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = preds[i];
    t.add_row({"P" + std::to_string(i + 1), p.display(),
               fmt_double(p.score, 3), monitor::loc_name(m, p.loc)});
  }
  return t.render();
}

std::string format_locations(const ir::Module& m) {
  std::ostringstream os;
  os << "Instrumented locations:\n";
  int idx = 1;
  for (const auto& fn : m.functions()) {
    const ir::FuncId fid = m.find_function(fn.name);
    os << "  L" << idx++ << ": " << monitor::loc_name(m, monitor::enter_loc(fid))
       << "\n";
    os << "  L" << idx++ << ": " << monitor::loc_name(m, monitor::leave_loc(fid))
       << "\n";
  }
  return os.str();
}

std::string format_candidates(const ir::Module& m,
                              const stats::PathConstruction& pc) {
  std::ostringstream os;
  os << "Failure point: " << monitor::loc_name(m, pc.failure) << "\n";
  os << "Skeleton (" << pc.skeleton.size() << " nodes):";
  for (monitor::LocId n : pc.skeleton) os << " " << monitor::loc_name(m, n);
  os << "\nDetours: " << pc.detours.size() << "\n";
  for (const auto& d : pc.detours) {
    os << "  [" << detour_type_name(d.type()) << " " << d.start_idx << "->"
       << d.end_idx << " score " << fmt_double(d.avg_score, 3) << "] via";
    for (monitor::LocId n : d.via) os << " " << monitor::loc_name(m, n);
    os << "\n";
  }
  os << "Candidate paths (" << pc.candidates.size() << "):\n";
  for (std::size_t i = 0; i < pc.candidates.size(); ++i) {
    const auto& c = pc.candidates[i];
    os << "  #" << (i + 1) << " score " << fmt_double(c.avg_score, 3)
       << " detours " << c.num_detours << " len " << c.nodes.size() << ":";
    for (monitor::LocId n : c.nodes) os << " " << monitor::loc_name(m, n);
    os << "\n";
  }
  return os.str();
}

std::string format_vuln(const ir::Module& m, const symexec::VulnPath& v) {
  (void)m;  // kept in the signature for symmetry and future trace rendering
  std::ostringstream os;
  os << "Vulnerable path found: " << interp::fault_kind_name(v.kind) << " in "
     << v.function << "()";
  if (!v.detail.empty()) os << " (" << v.detail << ")";
  os << "\n  path length: " << v.trace.size() << " location events\n";
  os << "  constraints: " << v.constraints.size() << "\n";
  os << "  crashing input: argv = [";
  for (std::size_t i = 0; i < v.input.argv.size(); ++i) {
    if (i) os << ", ";
    const auto& a = v.input.argv[i];
    if (a.size() > 24) {
      os << '"' << a.substr(0, 12) << "...\" (len " << a.size() << ")";
    } else {
      os << '"' << a << '"';
    }
  }
  os << "]";
  for (const auto& [k, val] : v.input.env) {
    os << ", env " << k << " len " << val.size();
  }
  os << "\n";
  return os.str();
}

std::string format_solver_stats(const solver::SolverStats& s) {
  // Whether a slice was answered by the shared cache or by a canonical solve
  // depends on worker timing (the answers are identical either way), so the
  // report prints their schedule-invariant sum; only the wall-time figures
  // on the last line may differ between runs (like the stat/exec timings).
  std::ostringstream os;
  const std::uint64_t canonical = s.shared_cache_hits + s.solves;
  const double local_rate =
      s.slices == 0 ? 0.0
                    : static_cast<double>(s.cache_hits) /
                          static_cast<double>(s.slices);
  os << "Solver: " << s.queries << " queries (" << s.sat << " sat, " << s.unsat
     << " unsat, " << s.unknown << " unknown), " << s.slices << " slices ("
     << s.multi_slice_queries << " queries split)\n";
  os << "  local cache: " << s.cache_hits << " hits ("
     << fmt_double(100.0 * local_rate, 1) << "% of slices)\n";
  os << "  canonical: " << canonical
     << " decided (shared-cache or solve), "
     << fmt_double(s.solve_seconds, 3) << "s solving; est. "
     << fmt_double(s.solve_seconds_saved(), 3) << "s saved\n";
  return os.str();
}

void add_solver_metrics(obs::MetricsRegistry& m, const solver::SolverStats& s) {
  m.add("solver.queries", s.queries);
  m.add("solver.sat", s.sat);
  m.add("solver.unsat", s.unsat);
  m.add("solver.unknown", s.unknown);
  m.add("solver.slices", s.slices);
  m.add("solver.multi_slice_queries", s.multi_slice_queries);
  m.add("solver.local_cache_hits", s.cache_hits);
  m.add("solver.canonical", s.shared_cache_hits + s.solves);
  m.add("solver.static_prunes", s.static_prunes);
  m.set_gauge("solver.solve.seconds", s.solve_seconds);
}

std::string format_metrics(const obs::MetricsRegistry& m) {
  TextTable t({"Metric", "Value"});
  for (const auto& [name, v] : m.counters()) {
    t.add_row({name, std::to_string(v)});
  }
  for (const auto& [name, v] : m.gauges()) {
    t.add_row({name, fmt_double(v, 3)});
  }
  for (const auto& [name, h] : m.histograms()) {
    std::ostringstream cell;
    const double mean =
        h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
    cell << h.count << " obs, min " << fmt_double(h.min, 3) << ", mean "
         << fmt_double(mean, 3) << ", max " << fmt_double(h.max, 3);
    t.add_row({name, cell.str()});
  }
  return t.render();
}

}  // namespace statsym::core
