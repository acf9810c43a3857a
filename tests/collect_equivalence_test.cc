// Equivalence contract of Phase-1 log collection: the admitted logs
// (serialized byte-for-byte, run ids included) and the number of WorkloadGen
// calls are pinned by digests recorded before collection learned to run
// over-target attempts unmonitored. Covered: fault-free programs that run
// the whole attempt cap, planted programs, a program whose faulty class
// fills first and one whose correct class does, each at num_threads 1
// and 4.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "apps/registry.h"
#include "fuzz/program_gen.h"
#include "monitor/serialize.h"
#include "statsym/engine.h"

namespace statsym::core {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Collected {
  std::uint64_t logs_digest{0};
  std::size_t num_logs{0};
  std::uint64_t gen_calls{0};
};

Collected collect(const apps::AppSpec& app, std::size_t n_correct,
                  std::size_t n_faulty, std::size_t threads) {
  EngineOptions o;
  o.monitor.sampling_rate = 0.3;
  o.target_correct_logs = n_correct;
  o.target_faulty_logs = n_faulty;
  o.num_threads = threads;
  o.seed = 20261017;
  StatSymEngine engine(app.module, app.sym_spec, o);
  std::atomic<std::uint64_t> calls{0};
  const WorkloadGen gen = [&](Rng& r) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return app.workload(r);
  };
  engine.collect_logs(gen, /*keep_logs=*/true);
  Collected c;
  c.logs_digest = fnv1a(monitor::serialize(engine.logs()));
  c.num_logs = engine.logs().size();
  c.gen_calls = calls.load();
  return c;
}

struct Case {
  const char* label;
  std::uint64_t fuzz_seed;
  double fault_probability;  // GenOptions::fault_probability
  std::size_t n_correct;
  std::size_t n_faulty;
  // Recorded before the rewrite: digest of serialize(admitted logs), admitted
  // count, and WorkloadGen calls at 1 and at 4 threads.
  std::uint64_t digest;
  std::size_t num_logs;
  std::uint64_t calls_1;
  std::uint64_t calls_4;
};

constexpr Case kCases[] = {
    // No planted fault: the correct class fills after 100 attempts and the
    // remaining attempts up to the 10,000 cap cannot be admitted.
    {"fault-free", 11, 0.0, 100, 100, 5063471419998520654ULL, 100, 10000,
     10000},
    {"fault-free-2", 12, 0.0, 100, 100, 16010212114264532672ULL, 100, 10000,
     10000},
    // Planted faults, both classes needed.
    {"planted", 3, 1.0, 100, 100, 8152951927215179381ULL, 200, 213, 224},
    // The faulty class fills long before the correct one.
    {"faulty-fills-first", 5, 1.0, 100, 8, 9768863890526791091ULL, 108, 153,
     160},
    // The correct class fills long before the faulty one.
    {"correct-fills-first", 7, 1.0, 8, 100, 15275631879789049955ULL, 108, 210,
     224},
};

TEST(CollectEquivalence, AdmittedLogsAndGenCallsMatchRecordedDigests) {
  for (const Case& c : kCases) {
    fuzz::GenOptions g;
    g.fault_probability = c.fault_probability;
    const auto prog = fuzz::generate_program(c.fuzz_seed, g);
    SCOPED_TRACE(c.label);
    const Collected one = collect(prog.app, c.n_correct, c.n_faulty, 1);
    const Collected four = collect(prog.app, c.n_correct, c.n_faulty, 4);
    EXPECT_EQ(one.logs_digest, c.digest);
    EXPECT_EQ(one.num_logs, c.num_logs);
    EXPECT_EQ(one.gen_calls, c.calls_1);
    EXPECT_EQ(four.logs_digest, c.digest);
    EXPECT_EQ(four.num_logs, c.num_logs);
    EXPECT_EQ(four.gen_calls, c.calls_4);
  }
}

TEST(CollectEquivalence, PaperAppMatchesRecordedDigest) {
  const apps::AppSpec app = apps::make_app("polymorph");
  const Collected one = collect(app, 100, 100, 1);
  const Collected four = collect(app, 100, 100, 4);
  EXPECT_EQ(one.logs_digest, 13779401901673224177ULL);
  EXPECT_EQ(one.num_logs, 200u);
  EXPECT_EQ(one.gen_calls, 548u);
  EXPECT_EQ(four.logs_digest, one.logs_digest);
  EXPECT_EQ(four.num_logs, 200u);
  EXPECT_EQ(four.gen_calls, 576u);
}

}  // namespace
}  // namespace statsym::core
