// Copy-on-write fork cost of the symbolic executor.
//
//   bench_exec_parallel [--quick] [--json FILE]
//
// For each app, runs the symbolic executor (DFS, instruction-capped) and
// enforces the copy-on-write gate of DESIGN.md §13: bytes actually copied
// per fork (clone_bytes) must be strictly below what eagerly deep-copying
// the parent would have cost (eager_clone_bytes). Both counts are functions
// of the explored paths, so the gate is deterministic. Wall-clock is
// reported for the record but never gated. Exits nonzero when the gate
// fails, so CI can run it directly; --json writes the per-app results for
// the bench trajectory (BENCH_exec_parallel.json).
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "symexec/executor.h"

using namespace statsym;

namespace {

struct AppRun {
  std::string app;
  double wall_seconds{0.0};
  symexec::ExecResult result;
  bool cow_reduces{true};
};

AppRun run_app(const std::string& name, std::uint64_t max_instructions) {
  const apps::AppSpec app = apps::make_app(name);
  symexec::ExecOptions o;
  o.searcher = symexec::SearcherKind::kDFS;
  o.max_memory_bytes = 256ull << 20;
  o.max_seconds = 300.0;
  o.max_instructions = max_instructions;
  AppRun r;
  r.app = name;
  Stopwatch sw;
  symexec::SymExecutor ex(app.module, app.sym_spec, o);
  r.result = ex.run();
  r.wall_seconds = sw.elapsed_seconds();
  // The gate is meaningful only when the run actually forked.
  const auto& st = r.result.stats;
  r.cow_reduces = st.forks > 0 && st.clone_bytes > 0 &&
                  st.clone_bytes < st.eager_clone_bytes;
  return r;
}

void print_runs(const std::vector<AppRun>& runs) {
  TextTable t({"app", "time(s)", "paths", "forks", "clone KB", "eager KB",
               "copied", "verdict"});
  for (const AppRun& r : runs) {
    const auto& st = r.result.stats;
    const double ratio =
        st.eager_clone_bytes > 0
            ? static_cast<double>(st.clone_bytes) /
                  static_cast<double>(st.eager_clone_bytes)
            : 0.0;
    t.add_row({r.app, bench::seconds(r.wall_seconds),
               std::to_string(st.paths_explored), std::to_string(st.forks),
               std::to_string(st.clone_bytes >> 10),
               std::to_string(st.eager_clone_bytes >> 10),
               fmt_double(ratio * 100.0, 1) + "%" +
                   (r.cow_reduces ? "" : " NOT REDUCED"),
               symexec::termination_name(r.result.termination)});
  }
  std::printf("%s", t.render().c_str());
}

void write_json(const std::vector<AppRun>& runs, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"bench\": \"exec_parallel\",\n  \"apps\": [\n";
  for (std::size_t a = 0; a < runs.size(); ++a) {
    const AppRun& r = runs[a];
    const auto& st = r.result.stats;
    os << "    {\"app\": \"" << r.app << "\""
       << ", \"cow_reduces\": " << (r.cow_reduces ? "true" : "false")
       << ", \"wall_seconds\": " << fmt_double(r.wall_seconds, 4)
       << ", \"termination\": \""
       << symexec::termination_name(r.result.termination) << "\""
       << ", \"found\": " << (r.result.vuln.has_value() ? "true" : "false")
       << ", \"paths_explored\": " << st.paths_explored
       << ", \"forks\": " << st.forks
       << ", \"instructions\": " << st.instructions
       << ", \"clone_bytes\": " << st.clone_bytes
       << ", \"eager_clone_bytes\": " << st.eager_clone_bytes << "}"
       << (a + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("wrote JSON to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_exec_parallel [--quick] [--json FILE]\n");
      return 2;
    }
  }

  bench::print_header("Symbolic executor: copy-on-write fork cost",
                      "DESIGN.md §13 copy-on-write fork state");

  struct Case {
    const char* app;
    std::uint64_t max_instructions;
  };
  std::vector<Case> cases{{"fig2", 400'000'000}, {"polymorph", 1'500'000}};
  if (!quick) {
    cases.push_back({"ctree", 1'500'000});
    cases.push_back({"grep", 1'500'000});
  }

  std::vector<AppRun> runs;
  bool ok = true;
  for (const Case& c : cases) {
    runs.push_back(run_app(c.app, c.max_instructions));
    ok = ok && runs.back().cow_reduces;
  }
  print_runs(runs);
  if (!json_path.empty()) write_json(runs, json_path);
  if (!ok) {
    std::fprintf(stderr, "bench_exec_parallel: GATE FAILURE (see above)\n");
    return 1;
  }
  std::printf("copy-on-write gate passed\n");
  return 0;
}
