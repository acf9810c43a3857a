// Equivalence contract of the symbolic engines: every deterministic
// observable of an analysis — verdict, fault kind and function, the witness
// input, candidate and path counts, instructions, per-lane concolic counts,
// every SolverStats counter, the executor's fork and clone-byte accounting
// and the metrics counters — is pinned by digests recorded before the
// expression pool became single-owner and shared across a concolic lane's
// follow runs. Re-recorded since:
//  * the concolic digests (and the polymorph race trace, whose concolic lane
//    is counted) when the concolic frontier became ordered by predicate
//    gaps;
//  * the concolic fleet and the ctree and grep concolic rows when solver
//    model reuse was deleted (only shared-hit, solve and propagation
//    counters moved);
//  * every digest when the always-0 model-reuse counter and metric left the
//    rendered line;
//  * the concolic fleet and the polymorph, ctree and grep concolic rows when
//    SolverStats::slices began counting decided slices (only `sl` and
//    solver.slices moved; every rendered `sl` equals ch + sh + so);
//  * the polymorph race trace when each analysis began running on one
//    thread: the digest had pinned a two-thread race whose shared
//    instruction budget bound, so lanes ran on different shares of it. The
//    new digest is the one the old engine gave at one thread with the same
//    trace capacity.
// The deterministic trace JSONL of two paper apps is pinned the same way.
//
// The digests fold 150 generated fault-planted programs (chains and segments
// up to 8, as the concolic-fleet benchmark builds them) and the five paper
// apps, each under the concolic, guided and pure engines. Budgets are
// instruction caps, never wall-clock limits, so every run stops at the same
// point on any machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "concolic/concolic.h"
#include "fuzz/program_gen.h"
#include "statsym/engine.h"
#include "support/rng.h"

namespace statsym::core {
namespace {

// FNV-1a over a stream of strings.
struct Digest {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
};

void render(std::ostream& os, const solver::SolverStats& s) {
  os << " q" << s.queries << " sat" << s.sat << " unsat" << s.unsat
     << " unk" << s.unknown << " ch" << s.cache_hits << " sh"
     << s.shared_cache_hits << " sl"
     << s.slices << " ms" << s.multi_slice_queries << " so" << s.solves
     << " sn" << s.search_nodes << " pr" << s.propagation_rounds << " sp"
     << s.static_prunes;
}

std::string render(const EngineResult& r) {
  std::ostringstream os;
  os << "found=" << r.found;
  if (r.vuln.has_value()) {
    const symexec::VulnPath& v = *r.vuln;
    os << " kind=" << interp::fault_kind_name(v.kind) << " fn=" << v.function
       << " detail=" << v.detail << " valid=" << v.model_valid
       << " trace=" << v.trace.size() << " cs=" << v.constraints.size()
       << " input=" << concolic::input_key(v.input);
  }
  os << " logs=" << r.num_correct_logs << "/" << r.num_faulty_logs
     << " cands=" << r.construction.candidates.size()
     << " tried=" << r.candidates_tried << " win=" << r.winning_candidate
     << " cancelled=" << r.candidates_cancelled
     << " pruned=" << r.candidates_pruned << " paths=" << r.paths_explored
     << " instrs=" << r.instructions
     << " engine=" << engine_kind_name(r.winning_engine);
  render(os, r.solver_stats);
  const symexec::ExecStats& e = r.last_exec_stats;
  os << " ex:" << e.instructions << "/" << e.forks << "/" << e.paths_completed
     << "/" << e.paths_ok << "/" << e.paths_infeasible << "/"
     << e.faults_found << "/" << e.suspensions << "/" << e.wakes << "/"
     << e.peak_live_states << "/" << e.peak_memory_bytes << "/"
     << e.paths_explored << "/" << e.clone_bytes << "/"
     << e.eager_clone_bytes;
  for (const EngineLaneResult& l : r.lanes) {
    os << " lane:" << engine_kind_name(l.kind) << "/" << l.priority << "/"
       << l.found << "/" << symexec::termination_name(l.termination) << "/"
       << l.paths_explored << "/" << l.instructions << "/" << l.concolic_runs;
    render(os, l.solver_stats);
  }
  for (const auto& [name, v] : r.metrics.counters()) {
    os << " " << name << "=" << v;
  }
  return os.str();
}

// Instruction caps only: the per-candidate and lane wall-clock limits are
// far above what any of these runs needs, so none of them can bind.
EngineOptions digest_opts(std::uint64_t seed, EngineKind kind) {
  EngineOptions o;
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = 40;
  o.target_faulty_logs = 40;
  o.candidate_timeout_seconds = 600.0;
  o.exec.max_memory_bytes = 256ull << 20;
  o.exec.max_instructions = 2'000'000;
  o.engines = {kind};
  o.seed = seed;
  return o;
}

fuzz::GenOptions fleet_gen() {
  fuzz::GenOptions g;
  g.max_chain = 8;
  g.max_segments = 8;
  g.fault_probability = 1.0;
  return g;
}

std::uint64_t fleet_digest(EngineKind kind, std::size_t programs) {
  Digest d;
  for (std::size_t i = 0; i < programs; ++i) {
    const std::uint64_t s = derive_seed(0xd16e57, i);
    const fuzz::GeneratedProgram p = fuzz::generate_program(s, fleet_gen());
    StatSymEngine engine(p.app.module, p.app.sym_spec,
                         digest_opts(derive_seed(s, 1), kind));
    engine.collect_logs(p.app.workload);
    d.add(std::to_string(i) + ": " + render(engine.run()));
  }
  return d.h;
}

constexpr std::size_t kPrograms = 150;

TEST(EngineDigest, GeneratedFleetConcolic) {
  EXPECT_EQ(fleet_digest(EngineKind::kConcolic, kPrograms),
            0xf6635aaea3352159ULL);
}

TEST(EngineDigest, GeneratedFleetGuided) {
  EXPECT_EQ(fleet_digest(EngineKind::kGuided, kPrograms),
            0x1b8a796ce96c7b52ULL);
}

TEST(EngineDigest, GeneratedFleetPure) {
  EXPECT_EQ(fleet_digest(EngineKind::kPure, kPrograms),
            0xa78dcde6a50791dcULL);
}

std::uint64_t app_digest(const std::string& name, EngineKind kind) {
  const apps::AppSpec app = apps::make_app(name);
  StatSymEngine engine(app.module, app.sym_spec, digest_opts(7, kind));
  engine.collect_logs(app.workload);
  Digest d;
  d.add(render(engine.run()));
  return d.h;
}

struct AppCase {
  const char* app;
  EngineKind kind;
  std::uint64_t digest;
};

TEST(EngineDigest, PaperApps) {
  const AppCase cases[] = {
      {"fig2", EngineKind::kConcolic, 0x431ea944d73722c5ULL},
      {"fig2", EngineKind::kGuided, 0x99fa9cc4f4bd6e4cULL},
      {"fig2", EngineKind::kPure, 0x3eaa322f648d6de2ULL},
      {"polymorph", EngineKind::kConcolic, 0x31d965caa3b46f79ULL},
      {"polymorph", EngineKind::kGuided, 0x3e5b8bc184be7ca9ULL},
      {"polymorph", EngineKind::kPure, 0x23b377fdd7ec5794ULL},
      {"ctree", EngineKind::kConcolic, 0x58c00edef857c739ULL},
      {"ctree", EngineKind::kGuided, 0xe7fc1b7f5bbd1c30ULL},
      {"ctree", EngineKind::kPure, 0xb2b72d821e288f6bULL},
      {"grep", EngineKind::kConcolic, 0xee8331cec79563cfULL},
      {"grep", EngineKind::kGuided, 0x8cf56a8b27c3abdeULL},
      {"grep", EngineKind::kPure, 0xee756cf70b45b5feULL},
      {"thttpd", EngineKind::kConcolic, 0x55355396c5a9e5daULL},
      {"thttpd", EngineKind::kGuided, 0x016f7d8085d98beeULL},
      {"thttpd", EngineKind::kPure, 0xc405e16e38d5fa25ULL},
  };
  for (const AppCase& c : cases) {
    EXPECT_EQ(app_digest(c.app, c.kind), c.digest)
        << c.app << " under " << engine_kind_name(c.kind);
  }
}

// The deterministic JSONL (no wall stamps) of a three-lane engine race. The
// concolic lane at priority 0 always runs, so its per-run executor and
// negation events are in the stream. The ring holds 2^19 events: polymorph's
// race emits about 336k, more than the default 2^18.
std::uint64_t trace_digest(const std::string& name,
                           EngineResult* result = nullptr) {
  const apps::AppSpec app = apps::make_app(name);
  EngineOptions o = digest_opts(7, EngineKind::kGuided);
  o.engines = {EngineKind::kConcolic, EngineKind::kGuided, EngineKind::kPure};
  obs::TraceOptions topts;
  topts.capacity = 1u << 19;
  obs::Tracer tracer(topts);
  StatSymEngine engine(app.module, app.sym_spec, o);
  engine.set_tracer(&tracer);
  engine.collect_logs(app.workload);
  EngineResult res = engine.run();
  if (result != nullptr) *result = std::move(res);
  EXPECT_EQ(tracer.buffer().dropped(), 0u);
  const std::string jsonl = tracer.to_jsonl();
  EXPECT_NE(jsonl.find("concolic-run"), std::string::npos);
  Digest d;
  d.add(jsonl);
  return d.h;
}

TEST(EngineDigest, Fig2Trace) {
  EXPECT_EQ(trace_digest("fig2"), 0x33e92c651af8b3c8ULL);
}

TEST(EngineDigest, PolymorphTrace) {
  EngineResult res;
  EXPECT_EQ(trace_digest("polymorph", &res), 0x97a7416b0c393fb4ULL);
  // No lane finds the fault, so all three run, and the race's shared
  // instruction budget binds: pure gets what concolic and guided left.
  EXPECT_FALSE(res.found);
  ASSERT_EQ(res.lanes.size(), 3u);
  EXPECT_EQ(res.lanes[0].termination, symexec::Termination::kRunLimit);
  EXPECT_EQ(res.lanes[0].concolic_runs, 512u);
  EXPECT_EQ(res.lanes[1].termination, symexec::Termination::kExhausted);
  EXPECT_EQ(res.lanes[2].termination, symexec::Termination::kInstrLimit);
}

}  // namespace
}  // namespace statsym::core
