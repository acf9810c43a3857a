// Statistics-ingest throughput (DESIGN.md §10): folds synthetic sampled run
// logs one at a time into per-cluster mergeable sufficient statistics and
// drops each log — what the engine does at admission, minus workload
// execution — then merges the clusters as run() does, and measures
// sustained runs/sec.
//
// The binary exits nonzero if the folded statistics diverge from a one-shot
// ingest of the same runs, or if throughput falls below --min-runs-per-sec.
//
//   bench_ingest --quick                 # 1e5 runs (CI smoke)
//   bench_ingest                         # 1e6 runs
//   bench_ingest --json out.json         # default BENCH_ingest.json
//   bench_ingest --min-runs-per-sec 1e5  # throughput gate (default 0 = off)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats/predicate_manager.h"
#include "stats/suff_stats.h"
#include "support/rng.h"
#include "support/stopwatch.h"

using namespace statsym;

namespace {

// Synthetic sampled monitor output: a pool of distinct run shapes (enter/
// leave locations, integer globals, one length-logged parameter) generated
// once, then cycled with fresh run ids. Cycling keeps the generator cost off
// the measured path's critical resource (allocation) without retaining
// O(total runs) logs anywhere in the harness itself.
std::vector<monitor::RunLog> make_templates(std::size_t n, Rng& rng) {
  std::vector<monitor::RunLog> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    monitor::RunLog log;
    log.faulty = rng.uniform(0, 1) < 0.3;
    if (log.faulty) log.fault_function = "sink";
    const int depth = 2 + static_cast<int>(rng.uniform(0, 4));
    log.records_considered = 2 * depth;
    for (int d = 0; d < depth; ++d) {
      monitor::LogRecord rec;
      rec.loc = monitor::enter_loc(static_cast<ir::FuncId>(d));
      monitor::VarSample len;
      len.name = "input";
      len.kind = monitor::VarKind::kParam;
      len.is_len = true;
      len.value = std::floor(rng.uniform(0, 64)) + (log.faulty ? 512 : 0);
      rec.vars.push_back(len);
      monitor::VarSample g;
      g.name = "g_total";
      g.kind = monitor::VarKind::kGlobal;
      g.value = std::floor(rng.uniform(-100, 100));
      rec.vars.push_back(g);
      log.records.push_back(rec);
      rec.loc = monitor::leave_loc(static_cast<ir::FuncId>(d));
      log.records.push_back(rec);
    }
    pool.push_back(std::move(log));
  }
  return pool;
}

struct IngestResult {
  std::size_t runs{0};
  double seconds{0.0};
  double runs_per_sec{0.0};
  std::size_t clusters{0};
  std::size_t ranked_predicates{0};
};

IngestResult run_ingest(const std::vector<monitor::RunLog>& templates,
                        std::size_t runs, const stats::SuffStats& expect) {
  IngestResult r;
  r.runs = runs;

  Stopwatch sw;
  stats::SuffStats correct;
  std::map<std::string, stats::SuffStats> faulty;
  for (std::size_t i = 0; i < runs; ++i) {
    monitor::RunLog log = templates[i % templates.size()];
    log.run_id = static_cast<std::int32_t>(i);
    (log.faulty ? faulty[log.fault_function] : correct).ingest(log);
  }
  stats::SuffStats suff = correct;
  for (const auto& [fn, cluster] : faulty) suff.merge(cluster);
  r.seconds = sw.elapsed_seconds();
  r.runs_per_sec = r.seconds > 0.0 ? static_cast<double>(runs) / r.seconds
                                   : 0.0;
  r.clusters = 1 + faulty.size();

  // The folded statistics must equal the one-shot ingest exactly (run_id
  // differences don't enter any sufficient statistic).
  if (suff.num_correct_runs() != expect.num_correct_runs() ||
      suff.num_faulty_runs() != expect.num_faulty_runs() ||
      suff.records_considered() != expect.records_considered() ||
      suff.vars().size() != expect.vars().size()) {
    std::fprintf(stderr,
                 "FAIL: folded statistics diverge from the one-shot ingest\n");
    std::exit(2);
  }
  // And they must be fit-ready.
  stats::PredicateManager pm;
  pm.build(suff);
  r.ranked_predicates = pm.ranked().size();
  return r;
}

void write_json(const std::string& path, const IngestResult& r) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"ingest\",\n"
     << "  \"runs\": " << r.runs << ",\n"
     << "  \"seconds\": " << r.seconds << ",\n"
     << "  \"runs_per_second\": " << r.runs_per_sec << ",\n"
     << "  \"clusters\": " << r.clusters << ",\n"
     << "  \"ranked_predicates\": " << r.ranked_predicates << "\n"
     << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_ingest.json";
  double min_runs_per_sec = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-runs-per-sec") == 0 &&
               i + 1 < argc) {
      min_runs_per_sec = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 64;
    }
  }

  const std::size_t runs = quick ? 100'000 : 1'000'000;
  Rng rng(20260807);
  const std::vector<monitor::RunLog> templates = make_templates(256, rng);
  stats::SuffStats expect;
  expect.ingest(templates);
  {
    stats::SuffStats full;
    for (std::size_t i = 1; i * templates.size() <= runs; ++i) {
      full.merge(expect);
    }
    expect = std::move(full);
    // Remainder runs beyond the last full template cycle.
    for (std::size_t i = (runs / templates.size()) * templates.size();
         i < runs; ++i) {
      expect.ingest(templates[i % templates.size()]);
    }
  }

  std::printf("ingest: %zu synthetic sampled runs\n", runs);
  const IngestResult r = run_ingest(templates, runs, expect);
  std::printf("  %8.0f runs/s  %zu clusters  %zu ranked predicates\n",
              r.runs_per_sec, r.clusters, r.ranked_predicates);
  int rc = 0;
  if (r.runs_per_sec < min_runs_per_sec) {
    std::fprintf(stderr, "FAIL: %.0f runs/s below --min-runs-per-sec %.0f\n",
                 r.runs_per_sec, min_runs_per_sec);
    rc = 1;
  }

  write_json(json_path, r);
  std::printf("  wrote %s\n", json_path.c_str());
  return rc;
}
