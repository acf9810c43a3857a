// Statistics contract of the engine: everything the statistical module
// hands to guidance — admitted-log accounting, records considered, the
// ranked predicates with every scoring field, the failure node, skeleton and
// candidate paths — is pinned by digests recorded while the engine still
// kept every admitted log and built its statistics from the full vector.
// Folding each log into per-cluster sufficient statistics at admission must
// reproduce them bit for bit, at one collection thread and at eight.
//
// Fingerprints render every float with %a (hexfloat), so the comparison is
// bit-exact, not epsilon-close.
//
// STATSYM_STATS_DIGEST_PROGRAMS overrides the fuzz-corpus size (default 24
// for tier-1; CI's stream-equivalence job raises it to 200). Digests are
// recorded for those two sizes only.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "concolic/concolic.h"
#include "fuzz/program_gen.h"
#include "statsym/engine.h"

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

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string fingerprint(const EngineResult& r) {
  std::string out;
  out += "logs c=" + std::to_string(r.num_correct_logs) +
         " f=" + std::to_string(r.num_faulty_logs) +
         " bytes=" + std::to_string(r.log_bytes) + " considered=" +
         std::to_string(r.metrics.counter("log.records_considered")) + "\n";
  for (const auto& p : r.predicates) {
    out += "pred loc=" + std::to_string(p.loc) + " " + p.display() +
           " thr=" + hex(p.threshold) + " score=" + hex(p.score) +
           " lcb=" + hex(p.score_lcb) + " err=" + std::to_string(p.error) +
           " pc=" + hex(p.p_correct) + "/" + std::to_string(p.n_correct) +
           " pf=" + hex(p.p_faulty) + "/" + std::to_string(p.n_faulty) + "\n";
  }
  out += "failure=" + std::to_string(r.construction.failure) + "\nskeleton";
  for (auto n : r.construction.skeleton) out += " " + std::to_string(n);
  out += "\n";
  for (const auto& c : r.construction.candidates) {
    out += "cand score=" + hex(c.avg_score) +
           " detours=" + std::to_string(c.num_detours) + " nodes";
    for (auto n : c.nodes) out += " " + std::to_string(n);
    out += "\n";
  }
  return out;
}

// The statistical module alone: Phase 3 is off so the sweep stays cheap.
EngineOptions stats_opts(std::size_t jobs) {
  EngineOptions o;
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = 30;
  o.target_faulty_logs = 30;
  o.max_workload_runs = 2'000;
  o.max_candidates_tried = 0;
  o.num_threads = jobs;
  o.seed = 20260807;
  return o;
}

std::string stats_fingerprint(const apps::AppSpec& app, std::size_t jobs) {
  StatSymEngine engine(app.module, app.sym_spec, stats_opts(jobs));
  engine.collect_logs(app.workload);
  return fingerprint(engine.run());
}

constexpr std::size_t kJobs[] = {1, 8};

std::size_t fuzz_corpus_size() {
  if (const char* env = std::getenv("STATSYM_STATS_DIGEST_PROGRAMS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 24;
}

std::uint64_t recorded_corpus_digest(std::size_t n) {
  switch (n) {
    case 24: return 0x8b5c38554e921783ULL;
    case 200: return 0x33f64074c59c1619ULL;
    default: return 0;
  }
}

TEST(StatsDigest, FuzzCorpus) {
  const std::size_t n = fuzz_corpus_size();
  const std::uint64_t want = recorded_corpus_digest(n);
  ASSERT_NE(want, 0u) << "no digest recorded for " << n << " programs";
  for (const std::size_t jobs : kJobs) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    Digest d;
    std::size_t with_predicates = 0;
    for (std::size_t seed = 0; seed < n; ++seed) {
      const fuzz::GeneratedProgram prog = fuzz::generate_program(seed);
      const std::string fp = stats_fingerprint(prog.app, jobs);
      if (fp.find("pred ") != std::string::npos) ++with_predicates;
      d.add(std::to_string(seed) + ": " + fp);
    }
    EXPECT_EQ(d.h, want);
    // The sweep must exercise real fits, not 0-predicate programs.
    EXPECT_GT(with_predicates, n / 2);
  }
}

struct AppCase {
  const char* app;
  std::uint64_t digest;
};

TEST(StatsDigest, PaperApps) {
  const AppCase cases[] = {
      {"fig2", 0x37c6a55563a42808ULL},
      {"polymorph", 0xef942066b8fae1f7ULL},
      {"ctree", 0x8be009ceb0337bdcULL},
      {"grep", 0xdc355d79f7034132ULL},
      {"thttpd", 0x4b2276a08f5fc0c2ULL},
      {"polymorph-multibug", 0x83f74ecc2e6451e8ULL},
  };
  for (const AppCase& c : cases) {
    const apps::AppSpec app = apps::make_app(c.app);
    for (const std::size_t jobs : kJobs) {
      Digest d;
      d.add(stats_fingerprint(app, jobs));
      EXPECT_EQ(d.h, c.digest) << c.app << " jobs=" << jobs;
    }
  }
}

// Multi-vulnerability splitting with Phase 3 on: every cluster's statistics,
// its verified vulnerable function and witness input, in report order.
TEST(StatsDigest, MultibugRunAll) {
  const apps::AppSpec app = apps::make_app("polymorph-multibug");
  for (const std::size_t jobs : kJobs) {
    EngineOptions o;
    o.monitor.sampling_rate = 0.3;
    o.target_correct_logs = 80;
    o.target_faulty_logs = 80;
    o.candidate_timeout_seconds = 600.0;
    o.exec.max_memory_bytes = 256ull << 20;
    o.exec.max_instructions = 2'000'000;
    o.num_threads = jobs;
    o.seed = 11;
    StatSymEngine engine(app.module, app.sym_spec, o);
    engine.collect_logs(app.workload);
    const std::vector<EngineResult> results = engine.run_all();
    Digest d;
    for (const EngineResult& r : results) {
      d.add(fingerprint(r));
      ASSERT_TRUE(r.vuln.has_value());
      d.add(r.vuln->function + " " + concolic::input_key(r.vuln->input));
    }
    EXPECT_GE(results.size(), 2u) << "jobs=" << jobs;
    EXPECT_EQ(d.h, 0xc5bc653b339a4be7ULL) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace statsym::core
