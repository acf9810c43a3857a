// statsym — command-line driver for the whole pipeline.
//
//   statsym list
//       List the bundled target applications.
//   statsym run <app> [--sampling R] [--seed N] [--logs FILE] [--all]
//       Collect sampled logs (or read them from FILE), run statistical
//       analysis + guided symbolic execution, print predicates, candidate
//       paths and the discovered vulnerable path, and replay the generated
//       input. --all hunts every fault cluster (multi-vulnerability mode).
//   statsym pure <app> [--searcher dfs|bfs|random|coverage] [--mem MB]
//       The unguided baseline under the given budgets.
//   statsym collect <app> <out-file> [--sampling R] [--seed N] [--runs N]
//       Only collect logs and write them in the monitor's text format.
//   statsym dump <app>
//       Print the application's mini-IR and its Table-I statistics.
//   statsym lint <app> [--facts]
//       Run the whole-program static analysis and print every definite-bug
//       diagnostic (provable OOB, division by zero, failing assert,
//       use-before-def). Exits non-zero when anything is found.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/facts.h"
#include "apps/registry.h"
#include "fuzz/program_gen.h"
#include "ir/printer.h"
#include "ir/program_stats.h"
#include "monitor/serialize.h"
#include "serve/server.h"
#include "statsym/engine.h"
#include "statsym/report.h"
#include "statsym/run_options.h"
#include "support/strings.h"

using namespace statsym;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: statsym <list|run|pure|collect|dump|lint|serve> "
               "[args]\n"
               "  statsym list\n"
               "  statsym run <app> [--sampling R] [--seed N] [--logs FILE] "
               "[--all]\n"
               "             [--engines LIST]\n"
               "  statsym pure <app> [--searcher dfs|bfs|random|coverage] "
               "[--mem MB] [--time S]\n"
               "  statsym collect <app> <out-file> [--sampling R] [--seed N]\n"
               "  statsym dump <app>\n"
               "  statsym lint <app> [--facts]\n"
               "  statsym serve [--store FILE] [--socket PATH] [--jobs N] "
               "[--seed N]\n"
               "\n"
               "  --jobs/-j N     (serve) requests analysed concurrently\n"
               "                  (0 = all hardware threads); every analysis\n"
               "                  runs on one thread\n"
               "  --engines LIST  Phase-3 lanes tried in priority order,\n"
               "                  comma-separated from guided|pure|concolic\n"
               "                  (default guided); the first lane to find\n"
               "                  the vulnerability ends the run\n"
               "  --no-static-analysis  skip the whole-program static\n"
               "                  analysis (no branch pruning / candidate\n"
               "                  drops); verdicts are identical either way\n"
               "  --facts         (lint) also dump the full per-block facts\n"
               "  --trace-out F   write the deterministic JSONL event trace\n"
               "                  (byte-identical across runs)\n"
               "  --trace-chrome F  write a chrome://tracing JSON timeline\n"
               "  --metrics-out F write the named pipeline metrics as JSON\n"
               "  --store F       (serve) persistent query-cache store: "
               "loaded\n"
               "                  (with verification) at startup, saved at\n"
               "                  shutdown and on 'cmd|save' requests\n"
               "  --socket PATH   (serve) listen on an AF_UNIX socket "
               "instead\n"
               "                  of the stdin/stdout frame stream\n");
  return 2;
}

struct Flags {
  core::RunOptions run;  // seed, jobs, sampling, budgets, lanes
  std::string logs_file;
  bool all{false};
  symexec::SearcherKind searcher{symexec::SearcherKind::kRandomPath};
  bool dump_facts{false};    // lint --facts: full per-block fact dump
  std::string trace_out;     // deterministic JSONL event stream
  std::string trace_chrome;  // Chrome about://tracing JSON (wall-clocked)
  std::string metrics_out;   // metrics registry as JSON
  std::string store_path;    // (serve) persistent query-cache store file
  std::string socket_path;   // (serve) AF_UNIX listener path
};

bool parse_flags(int argc, char** argv, int start, Flags& f) {
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    if (a == "--logs") {
      if (!next(f.logs_file)) return false;
    } else if (a == "--all") {
      f.all = true;
    } else if (a == "--searcher") {
      if (i + 1 >= argc) return false;
      const auto kind = symexec::parse_searcher_kind(argv[++i]);
      if (!kind.has_value()) {
        std::fprintf(stderr,
                     "%s: bad value '%s' (want dfs|bfs|random|coverage)\n",
                     a.c_str(), argv[i]);
        return false;
      }
      f.searcher = *kind;
    } else if (a == "--no-static-analysis") {
      f.run.static_analysis = false;
    } else if (a == "--facts") {
      f.dump_facts = true;
    } else if (a == "--trace-out") {
      if (!next(f.trace_out)) return false;
    } else if (a == "--trace-chrome") {
      if (!next(f.trace_chrome)) return false;
    } else if (a == "--metrics-out") {
      if (!next(f.metrics_out)) return false;
    } else if (a == "--store") {
      if (!next(f.store_path)) return false;
    } else if (a == "--socket") {
      if (!next(f.socket_path)) return false;
    } else {
      // Every other flag is a run option (`--key value`, `--key=value`,
      // `-j N`), checked by the validator serve requests go through. A bad
      // value names its flag and fails the parse (exit 2).
      const std::size_t eq = a.find('=');
      const std::string flag = a.substr(0, eq);
      const std::string key = flag == "-j" ? "jobs"
                              : starts_with(flag, "--") ? flag.substr(2)
                                                        : "";
      if (!core::RunOptions::accepts(key, core::RunOptions::Source::kFlag)) {
        std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
        return false;
      }
      std::string value;
      if (eq != std::string::npos) {
        value = a.substr(eq + 1);
      } else if (!next(value)) {
        return false;
      }
      const std::string error =
          f.run.set(key, value, core::RunOptions::Source::kFlag);
      if (!error.empty()) {
        std::fprintf(stderr, "%s: %s\n", flag.c_str(), error.c_str());
        return false;
      }
    }
  }
  return true;
}

bool want_trace(const Flags& f) {
  return !f.trace_out.empty() || !f.trace_chrome.empty();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << content;
  return true;
}

// Writes whichever of --trace-out / --trace-chrome / --metrics-out were
// requested. Returns 0, or 1 when a file cannot be written.
int write_observability(const Flags& f, const obs::Tracer* tracer,
                        const obs::MetricsRegistry* metrics) {
  if (tracer != nullptr && !f.trace_out.empty()) {
    if (!write_file(f.trace_out, tracer->to_jsonl())) return 1;
    std::printf("trace: %llu events -> %s\n",
                static_cast<unsigned long long>(tracer->buffer().total()),
                f.trace_out.c_str());
  }
  if (tracer != nullptr && !f.trace_chrome.empty()) {
    std::ofstream os(f.trace_chrome);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", f.trace_chrome.c_str());
      return 1;
    }
    tracer->write_chrome(os);
    std::printf("trace: chrome timeline -> %s\n", f.trace_chrome.c_str());
  }
  if (metrics != nullptr && !f.metrics_out.empty()) {
    if (!write_file(f.metrics_out, metrics->to_json())) return 1;
    std::printf("metrics -> %s\n", f.metrics_out.c_str());
  }
  return 0;
}

void print_result(const apps::AppSpec& app, const core::EngineResult& res) {
  std::printf("%s\n",
              core::format_predicates(app.module, res.predicates, 10).c_str());
  std::printf("%s\n",
              core::format_candidates(app.module, res.construction).c_str());
  for (const auto& l : res.lanes) {
    std::printf("lane %zu %-8s %-11s %llu paths, %llu instrs%s\n", l.priority,
                core::engine_kind_name(l.kind),
                symexec::termination_name(l.termination),
                static_cast<unsigned long long>(l.paths_explored),
                static_cast<unsigned long long>(l.instructions),
                l.found ? "  << winner" : "");
  }
  if (!res.found) {
    std::printf("vulnerable path NOT found (stat %.2fs, exec %.2fs, %llu "
                "paths)\n",
                res.stat_seconds, res.symexec_seconds,
                static_cast<unsigned long long>(res.paths_explored));
    std::printf("%s", core::format_solver_stats(res.solver_stats).c_str());
    return;
  }
  std::printf("%s", core::format_vuln(app.module, *res.vuln).c_str());
  std::printf("candidate #%zu, %llu paths, stat %.2fs + exec %.2fs\n",
              res.winning_candidate,
              static_cast<unsigned long long>(res.paths_explored),
              res.stat_seconds, res.symexec_seconds);
  std::printf("%s", core::format_solver_stats(res.solver_stats).c_str());

  interp::Interpreter replay(app.module, res.vuln->input);
  const auto rr = replay.run();
  if (rr.outcome == interp::RunOutcome::kFault) {
    std::printf("replay: CONFIRMED %s in %s()\n",
                interp::fault_kind_name(rr.fault.kind),
                rr.fault.function.c_str());
  } else {
    std::printf("replay: input did NOT reproduce the fault\n");
  }
}

int cmd_list() {
  for (const auto& name : apps::app_names()) {
    const apps::AppSpec app = apps::make_app(name);
    std::printf("%-12s vulnerable: %s() [%s]\n", name.c_str(),
                app.vuln_function.c_str(),
                interp::fault_kind_name(app.vuln_kind));
  }
  std::printf("%-12s vulnerable: set_outdir() + convert_fileName() "
              "(use run --all)\n",
              "polymorph-multibug");
  std::printf("%-12s the paper's Fig. 2a example\n", "fig2");
  return 0;
}

int cmd_run(const std::string& name, const Flags& f) {
  const apps::AppSpec app = apps::make_app(name);
  core::StatSymEngine engine(app.module, app.sym_spec,
                             f.run.to_engine_options());
  obs::TraceOptions topts;
  topts.wall_clock = !f.trace_chrome.empty();
  obs::Tracer tracer(topts);
  if (want_trace(f)) engine.set_tracer(&tracer);
  if (!f.logs_file.empty()) {
    std::ifstream in(f.logs_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", f.logs_file.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::vector<monitor::RunLog> logs;
    if (!monitor::deserialize(ss.str(), logs)) {
      std::fprintf(stderr, "malformed log file %s\n", f.logs_file.c_str());
      return 1;
    }
    engine.use_logs(std::move(logs));
    std::printf("loaded %zu logs from %s\n", engine.num_logs_collected(),
                f.logs_file.c_str());
  } else {
    engine.collect_logs(app.workload);
    std::printf("collected %zu logs at %.0f%% sampling\n",
                engine.num_logs_collected(), f.run.sampling * 100.0);
  }

  if (f.all) {
    const auto results = engine.run_all();
    std::printf("fault clusters resolved: %zu\n\n", results.size());
    int rc = results.empty() ? 1 : 0;
    obs::MetricsRegistry merged;
    for (const auto& res : results) {
      print_result(app, res);
      merged.merge(res.metrics);
    }
    const int obs_rc =
        write_observability(f, want_trace(f) ? &tracer : nullptr, &merged);
    return rc != 0 ? rc : obs_rc;
  }
  const core::EngineResult res = engine.run();
  print_result(app, res);
  const int obs_rc =
      write_observability(f, want_trace(f) ? &tracer : nullptr, &res.metrics);
  if (obs_rc != 0) return obs_rc;
  return res.found ? 0 : 1;
}

int cmd_pure(const std::string& name, const Flags& f) {
  const apps::AppSpec app = apps::make_app(name);
  symexec::ExecOptions opts = f.run.to_engine_options().exec;
  opts.searcher = f.searcher;
  opts.max_seconds = f.run.time_s;
  obs::TraceOptions topts;
  topts.wall_clock = !f.trace_chrome.empty();
  obs::Tracer tracer(topts);
  std::optional<analysis::ProgramFacts> facts;
  if (f.run.static_analysis) facts = analysis::analyze(app.module);
  const auto r = core::run_pure_symbolic(
      app.module, app.sym_spec, opts,
      want_trace(f) ? &tracer.buffer() : nullptr,
      facts.has_value() ? &*facts : nullptr);
  std::printf("pure[%s]: %s — %llu paths, %llu forks, %.1fs, peak %zu "
              "states / %zu MB\n",
              symexec::searcher_kind_name(opts.searcher),
              symexec::termination_name(r.termination),
              static_cast<unsigned long long>(r.stats.paths_explored),
              static_cast<unsigned long long>(r.stats.forks), r.stats.seconds,
              r.stats.peak_live_states, r.stats.peak_memory_bytes >> 20);
  std::printf("%s", core::format_solver_stats(r.solver_stats).c_str());
  if (r.vuln.has_value()) {
    std::printf("%s", core::format_vuln(app.module, *r.vuln).c_str());
  }
  obs::MetricsRegistry pm;
  pm.add("symexec.paths_explored", r.stats.paths_explored);
  pm.add("symexec.instructions", r.stats.instructions);
  pm.add("symexec.forks", r.stats.forks);
  pm.add("solver.queries", r.solver_stats.queries);
  pm.add("solver.slices", r.solver_stats.slices);
  pm.add("solver.local_cache_hits", r.solver_stats.cache_hits);
  pm.add("solver.canonical",
         r.solver_stats.shared_cache_hits + r.solver_stats.solves);
  pm.add("solver.static_prunes", r.solver_stats.static_prunes);
  pm.set_gauge("symexec.seconds", r.stats.seconds);
  const int obs_rc =
      write_observability(f, want_trace(f) ? &tracer : nullptr, &pm);
  if (obs_rc != 0) return obs_rc;
  return r.termination == symexec::Termination::kFoundFault ? 0 : 1;
}

int cmd_collect(const std::string& name, const std::string& out,
                const Flags& f) {
  const apps::AppSpec app = apps::make_app(name);
  core::StatSymEngine engine(app.module, app.sym_spec,
                             f.run.to_engine_options());
  engine.collect_logs(app.workload, /*keep_logs=*/true);
  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  os << monitor::serialize(engine.logs());
  std::printf("wrote %zu logs to %s\n", engine.logs().size(), out.c_str());
  return 0;
}

// `statsym lint`: the static analysis as a standalone checker. Prints one
// line per definite-bug site (these are proofs, not heuristics — every
// diagnostic corresponds to a fault some input actually triggers, except
// use-before-def which is a data-flow diagnostic) and exits 1 when any
// exist, so the command composes with shell `&&` chains and CI steps.
int cmd_lint(const std::string& name, const Flags& f) {
  const apps::AppSpec app = apps::make_app(name);
  const analysis::ProgramFacts facts = analysis::analyze(app.module);
  if (f.dump_facts) {
    std::printf("%s\n", facts.to_string(app.module).c_str());
  }
  for (const auto& finding : facts.findings()) {
    std::printf("%s\n",
                analysis::format_finding(app.module, finding).c_str());
  }
  std::printf("lint: %zu finding(s), %zu unreachable block(s), "
              "%zu decided branch(es)\n",
              facts.findings().size(), facts.num_unreachable_blocks(),
              facts.num_decided_branches());
  return facts.findings().empty() ? 0 : 1;
}

// `statsym serve`: long-lived analysis service. Requests arrive as
// line-delimited frames (serve/protocol.h) on stdin or an AF_UNIX socket;
// the session keeps a program-fingerprint-keyed solver cache warm across
// requests and optionally persists it to --store. Diagnostics go to stderr
// only — stdout is the protocol channel.
int cmd_serve(const Flags& f) {
  // The run flags become the defaults of every request; --seed seeds the
  // per-request seed derivation.
  serve::ServeSession session(
      serve::ServeOptions{f.run, f.run.seed, f.store_path});
  std::string err;
  if (!session.load_store(&err)) {
    std::fprintf(stderr, "serve: store rejected, starting cold: %s\n",
                 err.c_str());
  } else if (!err.empty()) {
    std::fprintf(stderr, "serve: store loaded with warnings: %s\n",
                 err.c_str());
  }
  int rc = 0;
  if (!f.socket_path.empty()) {
    rc = serve::serve_unix_socket(f.socket_path, session, f.run.jobs);
  } else {
    const std::size_t frames =
        serve::serve_stream(std::cin, std::cout, session, f.run.jobs);
    std::fprintf(stderr, "serve: %zu frame(s) handled\n", frames);
  }
  if (!f.store_path.empty()) {
    std::string serr;
    if (!session.save_store(&serr)) {
      std::fprintf(stderr, "serve: %s\n", serr.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

int cmd_dump(const std::string& name) {
  const apps::AppSpec app = apps::make_app(name);
  const auto s = ir::compute_stats(app.module);
  std::printf("%s: %zu functions, %zu blocks, %zu instrs (SLOC %zu), "
              "%zu ext calls, %zu globals\n\n",
              s.program.c_str(), s.functions, s.blocks, s.instrs, s.sloc,
              s.ext_call_sites, s.globals);
  std::printf("%s", ir::to_string(app.module).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  fuzz::register_fuzz_apps();  // enables app names of the form "fuzz:<seed>"
  const std::string cmd = argv[1];
  Flags f;
  if (cmd == "list") return cmd_list();
  if (cmd == "run" && argc >= 3 && parse_flags(argc, argv, 3, f)) {
    return cmd_run(argv[2], f);
  }
  if (cmd == "pure" && argc >= 3 && parse_flags(argc, argv, 3, f)) {
    return cmd_pure(argv[2], f);
  }
  if (cmd == "collect" && argc >= 4 && parse_flags(argc, argv, 4, f)) {
    return cmd_collect(argv[2], argv[3], f);
  }
  if (cmd == "serve" && parse_flags(argc, argv, 2, f)) {
    const std::string serr = serve::check_serve_flags(
        !f.trace_out.empty(), !f.trace_chrome.empty(), !f.metrics_out.empty());
    if (!serr.empty()) {
      std::fprintf(stderr, "%s\n", serr.c_str());
      return 2;
    }
    return cmd_serve(f);
  }
  if (cmd == "dump" && argc >= 3) return cmd_dump(argv[2]);
  if (cmd == "lint" && argc >= 3 && parse_flags(argc, argv, 3, f)) {
    return cmd_lint(argv[2], f);
  }
  return usage();
}
