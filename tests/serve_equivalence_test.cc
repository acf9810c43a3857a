// Served-vs-oneshot equivalence (ISSUE 10 satellite, extending the
// trace_golden_test / stream_equivalence_test patterns): replaying the four
// hand-written apps plus three generator-corpus seeds through a single
// long-lived serve session must produce verdicts, solver-stat sums, metrics
// (modulo *.seconds gauges) and traces byte-identical to the equivalent
// one-shot engine run — at --jobs 1 and 8, and regardless of how warm the
// session's persistent cache already is from earlier requests.
//
// This is the acceptance criterion of the serve tentpole: the service may
// only ever change *when* an answer is computed, never what it is.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "fuzz/diff_driver.h"
#include "fuzz/program_gen.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "statsym/engine.h"
#include "statsym/run_options.h"
#include "support/strings.h"

namespace statsym::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 424242;
constexpr double kSampling = 0.3;

// The one-shot side: the run options a request carrying these fields
// stands for, through the one mapping the session and the CLI share.
core::EngineOptions oneshot_opts(std::size_t jobs) {
  core::RunOptions run;
  run.sampling = kSampling;
  run.seed = kSeed;
  run.jobs = jobs;
  return run.to_engine_options();
}

struct OneShot {
  core::EngineResult res;
  std::string trace_jsonl;
};

OneShot one_shot(const apps::AppSpec& app, std::size_t jobs) {
  OneShot out;
  obs::Tracer tracer;
  core::StatSymEngine engine(app.module, app.sym_spec, oneshot_opts(jobs));
  engine.set_tracer(&tracer);
  engine.collect_logs(app.workload);
  out.res = engine.run();
  out.trace_jsonl = tracer.to_jsonl();
  return out;
}

// Reassembles a marker-delimited section of a reply body into the original
// newline-terminated document.
std::string section(const std::vector<std::string>& body,
                    const std::string& begin, const std::string& end) {
  std::string out;
  bool in = false;
  for (const std::string& l : body) {
    if (l == begin) {
      in = true;
    } else if (l == end) {
      in = false;
    } else if (in) {
      out += l;
      out += '\n';
    }
  }
  return out;
}

// Wall-clock gauges are the single documented source of nondeterminism in
// the metrics document; mask their values, keep their names.
std::string mask_seconds(const std::string& json) {
  std::string out;
  for (const std::string& l : split(json, '\n')) {
    if (l.find(".seconds") != std::string::npos) {
      out += l.substr(0, l.find(':') + 1) + " <wall>\n";
    } else {
      out += l;
      out += '\n';
    }
  }
  return out;
}

std::string u64s(std::uint64_t v) { return std::to_string(v); }

// Body lines with wall-clock gauge values masked (same policy as
// mask_seconds, applied to the line-structured reply body).
std::vector<std::string> mask_body(const std::vector<std::string>& body) {
  std::vector<std::string> out;
  out.reserve(body.size());
  for (const std::string& l : body) {
    if (l.find(".seconds") != std::string::npos) {
      out.push_back(l.substr(0, l.find(':') + 1) + " <wall>");
    } else {
      out.push_back(l);
    }
  }
  return out;
}

void expect_reply_matches_oneshot(const Reply& reply, const OneShot& shot,
                                  const std::string& label) {
  ASSERT_TRUE(reply.ok) << label;
  const auto& res = shot.res;
  EXPECT_EQ(body_value(reply.body, "verdict"),
            res.found ? "found" : "not-found")
      << label;
  if (res.found) {
    EXPECT_EQ(body_value(reply.body, "fault-function"), res.vuln->function)
        << label;
  }
  EXPECT_EQ(body_value(reply.body, "winning-candidate"),
            u64s(res.winning_candidate))
      << label;
  EXPECT_EQ(body_value(reply.body, "paths"), u64s(res.paths_explored))
      << label;
  EXPECT_EQ(body_value(reply.body, "instructions"), u64s(res.instructions))
      << label;
  const solver::SolverStats& ss = res.solver_stats;
  EXPECT_EQ(body_value(reply.body, "solver.queries"), u64s(ss.queries))
      << label;
  EXPECT_EQ(body_value(reply.body, "solver.slices"), u64s(ss.slices))
      << label;
  EXPECT_EQ(body_value(reply.body, "solver.canonical"),
            u64s(ss.shared_cache_hits + ss.solves))
      << label;
  EXPECT_EQ(section(reply.body, "begintrace", "endtrace"), shot.trace_jsonl)
      << label << ": served trace diverged from the one-shot trace";
  EXPECT_EQ(mask_seconds(section(reply.body, "beginmetrics", "endmetrics")),
            mask_seconds(res.metrics.to_json()))
      << label << ": served metrics diverged from the one-shot metrics";
}

Frame run_frame(const std::string& id, const std::string& app,
                std::size_t jobs) {
  Frame f;
  f.id = id;
  f.body = {"cmd|run",
            "app|" + app,
            "seed|" + u64s(kSeed),
            "jobs|" + u64s(jobs),
            "sampling|0.3",
            "trace|1",
            "metrics|1"};
  return f;
}

fuzz::CorpusEntry load_corpus(const std::string& file) {
  std::ifstream in(fs::path(STATSYM_CORPUS_DIR) / file);
  EXPECT_TRUE(in) << "cannot open corpus file " << file;
  std::stringstream ss;
  ss << in.rdbuf();
  fuzz::CorpusEntry e;
  EXPECT_TRUE(fuzz::parse_corpus(ss.str(), e)) << "malformed " << file;
  return e;
}

struct Case {
  std::string name;
  apps::AppSpec app;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* name : {"fig2", "polymorph", "ctree", "grep"}) {
    cases.push_back(Case{name, apps::make_app(name)});
  }
  for (const char* file :
       {"oob-basic.corpus", "assert-two-candidates.corpus",
        "benign-a.corpus"}) {
    const fuzz::CorpusEntry e = load_corpus(file);
    cases.push_back(
        Case{std::string("corpus:") + file,
             fuzz::generate_program(e.seed, e.gen).app});
  }
  return cases;
}

// One session serves every case twice (jobs 1, then jobs 8), so later
// requests run against caches warmed by earlier ones — the served replies
// must nonetheless match fresh cold one-shot runs byte-for-byte.
TEST(ServeEquivalence, SevenProgramsThroughOneSessionMatchOneShot) {
  ServeSession session{ServeOptions{}};
  std::vector<Case> cases = all_cases();
  // Resolver serves both the registry apps and the corpus-generated ones
  // under their case names.
  session.set_resolver([&cases](const std::string& name) -> apps::AppSpec {
    for (const Case& c : cases) {
      if (c.name == name) return c.app;
    }
    throw std::invalid_argument("unknown app: " + name);
  });

  for (const Case& c : cases) {
    const OneShot shot1 = one_shot(c.app, 1);
    const OneShot shot8 = one_shot(c.app, 8);

    Reply r1;
    ASSERT_TRUE(parse_reply(
        session.handle(run_frame("eq1-" + c.name, c.name, 1)), r1, nullptr));
    Reply r8;
    ASSERT_TRUE(parse_reply(
        session.handle(run_frame("eq8-" + c.name, c.name, 8)), r8, nullptr));

    expect_reply_matches_oneshot(r1, shot1, c.name + " jobs=1");
    expect_reply_matches_oneshot(r8, shot8, c.name + " jobs=8");
    // And the served replies agree with each other across --jobs (ids
    // differ by construction; the bodies — modulo wall gauges — must not).
    EXPECT_EQ(mask_body(r1.body), mask_body(r8.body))
        << c.name << ": served reply differs between jobs 1 and 8";
  }
}

// Warm repetition: replaying an identical request through the same session
// returns byte-identical replies, no matter how many times the cache has
// answered it before.
TEST(ServeEquivalence, WarmRepeatRequestIsByteIdentical) {
  ServeSession session{ServeOptions{}};
  const std::string first =
      session.handle(run_frame("rep", "fig2", 1));
  const std::string second =
      session.handle(run_frame("rep", "fig2", 1));
  const std::string third =
      session.handle(run_frame("rep", "fig2", 8));
  EXPECT_EQ(mask_seconds(first), mask_seconds(second));
  Reply ra, rc;
  ASSERT_TRUE(parse_reply(first, ra, nullptr));
  ASSERT_TRUE(parse_reply(third, rc, nullptr));
  EXPECT_EQ(mask_body(ra.body), mask_body(rc.body));
  // The repeats actually exercised the warm path.
  EXPECT_GT(session.metrics().counter("serve.warm_slice_hits"), 0u);
}

}  // namespace
}  // namespace statsym::serve
