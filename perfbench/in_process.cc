// paper-guided and concolic-fleet: one analysis at a time, in this process,
// through the public calls the CLI makes (apps::make_app or
// fuzz::generate_program, StatSymEngine::collect_logs, StatSymEngine::run).
#include <atomic>
#include <exception>
#include <functional>
#include <stdexcept>
#include <utility>

#include "analysis/facts.h"
#include "apps/registry.h"
#include "fuzz/program_gen.h"
#include "interp/interpreter.h"
#include "statsym/engine.h"
#include "stats/suff_stats.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace statsym;

// Fixed prefixes: two analyses of each paper target; the first 200
// generated programs.
constexpr std::size_t kPaperCheck = 8;
constexpr std::size_t kConcolicCheck = 200;

// Salt separating the target-order stream from the per-analysis seeds.
constexpr std::uint64_t kOrderStream = 0x6f72646572ull;

// The paper's evaluation settings (§VII-A): 100 + 100 logs at 30% sampling,
// τ = 10. Pinned here instead of shared with bench/, so the benchmark does
// not move when those table drivers change. The per-candidate budget is 10 s
// instead of bench/'s 120 s: about 1 ctree analysis in 150 ranks a runaway
// candidate first, which then runs to the cap before the next candidate
// finds the bug, while the slowest successful candidate seen (thttpd, 4.5M
// instructions) needs under 4 s.
core::EngineOptions paper_options(std::uint64_t seed) {
  core::EngineOptions o;
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = 100;
  o.target_faulty_logs = 100;
  o.guidance.tau = 10;
  o.candidate_timeout_seconds = 10.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.exec.max_instructions = 400'000'000;
  o.seed = seed;
  return o;
}

// Every program carries a planted fault (fault-free programs stop before
// Phase 3), and chains and segments reach 8 so detection is not saturated.
fuzz::GenOptions concolic_gen() {
  fuzz::GenOptions g;
  g.max_chain = 8;
  g.max_segments = 8;
  g.fault_probability = 1.0;
  return g;
}

struct Target {
  apps::AppSpec app;
  bool planted{true};
};

// Checks a verdict against ground truth; returns why it is wrong, or "".
// A found witness must replay through the interpreter to the claimed fault.
std::string judge(const Target& t, const core::EngineResult& res,
                  bool& detected) {
  detected = false;
  if (!res.found) return "";  // a miss lowers detect_ratio; no failure
  if (!t.planted) return "reported a fault in fault-free " + t.app.name;
  if (!res.vuln.has_value()) return "verdict 'found' carries no witness";
  const symexec::VulnPath& v = *res.vuln;
  const std::string claim =
      std::string(interp::fault_kind_name(v.kind)) + " in " + v.function;
  if (v.function != t.app.vuln_function || v.kind != t.app.vuln_kind) {
    return t.app.name + ": claimed " + claim + ", ground truth is " +
           interp::fault_kind_name(t.app.vuln_kind) + " in " +
           t.app.vuln_function;
  }
  interp::Interpreter replay(t.app.module, v.input);
  const interp::RunResult rr = replay.run();
  if (rr.outcome != interp::RunOutcome::kFault ||
      rr.fault.function != v.function || rr.fault.kind != v.kind) {
    return t.app.name + ": witness for " + claim + " does not replay";
  }
  detected = true;
  return "";
}

// Counts from the values EngineResult already carries.
void add_result(const core::EngineResult& r, Sums& s) {
  s["monitor.admitted"] +=
      static_cast<double>(r.num_correct_logs + r.num_faulty_logs);
  s["stats.fit"] += r.stat_seconds * 1e3;
  s["stats.candidates"] +=
      static_cast<double>(r.construction.candidates.size());
  s["symexec.exec"] += r.symexec_seconds * 1e3;
  s["symexec.paths"] += static_cast<double>(r.paths_explored);
  s["symexec.instructions"] += static_cast<double>(r.instructions);
  s["symexec.candidates_tried"] += static_cast<double>(r.candidates_tried);
  s["symexec.clone_bytes"] +=
      static_cast<double>(r.last_exec_stats.clone_bytes);
  for (const core::EngineLaneResult& l : r.lanes) {
    s["concolic.runs"] += static_cast<double>(l.concolic_runs);
  }
  const solver::SolverStats& ss = r.solver_stats;
  s["solver.queries"] += static_cast<double>(ss.queries);
  s["solver.slices"] += static_cast<double>(ss.slices);
  s["solver.fast_hits"] += static_cast<double>(
      ss.cache_hits + ss.model_reuse_hits + ss.shared_cache_hits);
  s["solver.solves"] += static_cast<double>(ss.solves);
  s["solver.solve"] += ss.solve_seconds * 1e3;
  s["analysis.static_prunes"] += static_cast<double>(ss.static_prunes);
}

// One end-to-end analysis. Its latency is what a user waits for — building
// the program, collecting logs, phases 2-3 — not the benchmark's check.
Item analyse(std::uint64_t request, const std::string& label,
             const std::function<Target()>& build,
             const core::EngineOptions& opts, SpanRecorder* rec, Sums& sums) {
  SpanScope root(rec, "analysis", request);
  Stopwatch sw;
  const Target t = [&] {
    SpanScope s(rec, "apps.build", request);
    return build();
  }();
  // Counting wrapper: every monitored attempt draws one generated input.
  std::atomic<std::uint64_t> attempts{0};
  const core::WorkloadGen gen = [&](Rng& rng) {
    attempts.fetch_add(1, std::memory_order_relaxed);
    return t.app.workload(rng);
  };
  core::StatSymEngine engine(t.app.module, t.app.sym_spec, opts);
  {
    SpanScope s(rec, "monitor.collect", request);
    engine.collect_logs(gen);
  }
  if (rec != nullptr) {
    // run() builds SuffStats from the logs and runs the static analysis
    // outside every phase gauge; the traced pass times both as separate
    // calls on the same inputs.
    {
      SpanScope s(rec, "stats.ingest", request);
      stats::SuffStats suff;
      suff.ingest(engine.logs());
    }
    {
      SpanScope s(rec, "analysis.analyze", request);
      const analysis::ProgramFacts facts = analysis::analyze(t.app.module);
      (void)facts;
    }
  }
  core::EngineResult res;
  {
    SpanScope s(rec, "engine.run", request);
    res = engine.run();
  }
  Item item;
  item.latency_ms = sw.elapsed_ms();
  item.done_ms = clock_ms();
  item.label = label;
  item.planted = t.planted;
  {
    SpanScope s(rec, "bench.check", request);
    item.failure = judge(t, res, item.detected);
  }
  sums["monitor.attempts"] += static_cast<double>(attempts.load());
  add_result(res, sums);
  return item;
}

// Runs analyses 0, 1, 2, ... in order until the pass options say stop.
PassResult run_loop(const PassOptions& o, std::size_t check,
                    const std::function<Item(std::size_t, Sums&)>& one) {
  PassResult out;
  out.start_ms = clock_ms();
  Stopwatch sw;
  for (std::size_t i = 0; keep_going(o, i, sw.elapsed_seconds()); ++i) {
    Item item;
    try {
      item = one(i, out.sums);
    } catch (const std::exception& e) {
      item.failure = std::string("exception: ") + e.what();
      item.done_ms = clock_ms();
    }
    item.in_check_prefix = i < check;
    out.items.push_back(std::move(item));
  }
  out.wall_s = sw.elapsed_seconds();
  return out;
}

// The four paper targets analysed end to end one after another, in a fresh
// seeded order every four analyses, each with its own derived seed and one
// engine thread per hardware thread. The candidate portfolio runs one
// candidate at a time: at the default width a losing candidate that is
// started beside the winner cannot be cancelled inside its 10 s
// fault-validation queries, which made one analysis in about 30 take 20 s.
class PaperGuided final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    for (const std::string& name : apps::app_names()) {
      if (apps::make_app(name).vuln_function.empty()) {
        throw std::runtime_error(name + " has no ground-truth fault");
      }
    }
    // Warm-up: one analysis of the Fig. 2 example, so thread start-up and
    // first-touch allocation are not charged to the first timed analysis.
    Sums unused;
    const Item warm = analyse(
        0, "fig2", [] { return Target{apps::make_app("fig2"), true}; },
        options(seed), nullptr, unused);
    if (!warm.failure.empty()) throw std::runtime_error(warm.failure);
  }

  std::size_t check_items() const override { return kPaperCheck; }
  std::size_t throughput_block() const override { return 4; }

  PassResult run(const PassOptions& o) override {
    return run_loop(o, check_items(), [&](std::size_t i, Sums& sums) {
      const std::string name = target(i);
      return analyse(
          i, name, [&] { return Target{apps::make_app(name), true}; },
          options(derive_seed(seed_, i)), o.rec, sums);
    });
  }

 private:
  static core::EngineOptions options(std::uint64_t seed) {
    core::EngineOptions o = paper_options(seed);
    o.num_threads = effective_threads(0);
    o.candidate_portfolio_width = 1;
    return o;
  }

  std::string target(std::size_t i) const {
    std::vector<std::string> names = apps::app_names();
    Rng rng(derive_seed(derive_seed(seed_, kOrderStream), i / names.size()));
    for (std::size_t k = names.size() - 1; k > 0; --k) {
      std::swap(names[k], names[static_cast<std::size_t>(rng.uniform(
                              0, static_cast<std::int64_t>(k)))]);
    }
    return names[i % names.size()];
  }

  std::uint64_t seed_{0};
};

// A seeded stream of generated fault-planted programs, each analysed once
// with the concolic lane alone, single-threaded. Set-up generates the fixed
// prefix the detection ratio covers and checks its ground truth.
class ConcolicFleet final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    for (std::size_t i = 0; i < kConcolicCheck; ++i) {
      if (!fuzz::generate_program(program_seed(i), concolic_gen())
               .fault_planted) {
        throw std::runtime_error("concolic program " + std::to_string(i) +
                                 " has no planted fault");
      }
    }
  }

  std::size_t check_items() const override { return kConcolicCheck; }
  std::size_t throughput_block() const override { return 20; }

  PassResult run(const PassOptions& o) override {
    return run_loop(o, check_items(), [&](std::size_t i, Sums& sums) {
      const std::uint64_t s = program_seed(i);
      core::EngineOptions opts = paper_options(derive_seed(s, 1));
      opts.engines = {core::EngineKind::kConcolic};
      opts.num_threads = 1;
      return analyse(
          i, "fuzz",
          [s] {
            fuzz::GeneratedProgram p =
                fuzz::generate_program(s, concolic_gen());
            return Target{std::move(p.app), p.fault_planted};
          },
          opts, o.rec, sums);
    });
  }

 private:
  std::uint64_t program_seed(std::size_t i) const {
    return derive_seed(seed_, i);
  }

  std::uint64_t seed_{0};
};

}  // namespace

std::unique_ptr<Workload> make_paper_guided() {
  return std::make_unique<PaperGuided>();
}

std::unique_ptr<Workload> make_concolic_fleet() {
  return std::make_unique<ConcolicFleet>();
}

}  // namespace perfbench
