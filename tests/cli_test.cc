// Command-line misuse: flags the CLIs no longer support and malformed or
// out-of-range values must stop the run with exit status 2 and say why,
// never silently run another configuration. The `statsym` flags and serve
// request fields share one validator, so both surfaces reject alike.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "serve/protocol.h"
#include "serve/session.h"

namespace {

struct CliRun {
  int status{-1};
  std::string output;  // stdout and stderr
};

CliRun run_binary(const std::string& binary, const std::string& args) {
  CliRun r;
  const std::string cmd = binary + " " + args + " 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), p)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int raw = pclose(p);
  r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return r;
}

CliRun run_cli(const std::string& args) { return run_binary(STATSYM_CLI, args); }

TEST(Cli, UsageNoLongerListsRemovedFlags) {
  const CliRun r = run_cli("");
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.output.find("usage: statsym"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("--exec-jobs"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("--exec-batch"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("--stream"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("--log-shard-size"), std::string::npos) << r.output;
}

// Exit 2 before anything runs, with `expect` in the message.
void expect_rejected(const std::string& args, const std::string& expect) {
  SCOPED_TRACE(args);
  const CliRun r = run_cli(args);
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_NE(r.output.find(expect), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("collected"), std::string::npos) << r.output;
}

TEST(Cli, RemovedExecJobsFlagFailsLoudly) {
  // Flags of a deleted option must not be silently ignored.
  expect_rejected("run fig2 --exec-jobs 2", "unknown flag: --exec-jobs");
  expect_rejected("pure fig2 --exec-jobs 1", "unknown flag: --exec-jobs");
}

TEST(Cli, RemovedExecBatchFlagFailsLoudly) {
  expect_rejected("run fig2 --sampling 0.5 --exec-batch 4",
                  "unknown flag: --exec-batch");
  expect_rejected("pure fig2 --exec-batch 1", "unknown flag: --exec-batch");
}

TEST(Cli, StreamingFlagsAreUnknown) {
  // One statistics path: the streaming switches went with batch mode.
  expect_rejected("run fig2 --stream", "unknown flag: --stream");
  expect_rejected("run fig2 --log-shard-size 7",
                  "unknown flag: --log-shard-size");
  expect_rejected("collect fig2 out.logs --stream", "unknown flag: --stream");
}

TEST(Cli, MalformedNumericValuesNameTheFlag) {
  expect_rejected("run fig2 --sampling xyz", "--sampling: bad value 'xyz'");
  expect_rejected("run fig2 --sampling 1.7", "--sampling: bad value '1.7'");
  expect_rejected("run fig2 --sampling 0", "--sampling: bad value '0'");
  expect_rejected("run fig2 --sampling nan", "--sampling: bad value 'nan'");
  expect_rejected("run fig2 --jobs abc", "--jobs: bad value 'abc'");
  expect_rejected("run fig2 -j 2x", "-j: bad value '2x'");
  expect_rejected("run fig2 --seed -3", "--seed: bad value '-3'");
  expect_rejected("pure fig2 --mem -1", "--mem: bad value '-1'");
  expect_rejected("run ctree --mem 0",
                  "--mem: bad value '0' (want megabytes in [1, 2^44))");
  expect_rejected("run ctree --mem 17592186044416",
                  "--mem: bad value '17592186044416' (want megabytes in "
                  "[1, 2^44))");
  expect_rejected("pure fig2 --time 0", "--time: bad value '0'");
  expect_rejected("serve --sampling 2", "--sampling: bad value '2'");
  expect_rejected("run fig2 --engines guided,fast",
                  "--engines: bad value 'guided,fast'");
  expect_rejected("run fig2 --engines=", "--engines: bad value ''");
  expect_rejected("run fig2 --seed 18446744073709551616",
                  "--seed: bad value '18446744073709551616'");
}

TEST(Cli, PortfolioFlagIsUnknown) {
  // Candidates run one at a time in rank order; there is no width to set.
  expect_rejected("run fig2 --portfolio 2", "unknown flag: --portfolio");
}

TEST(Cli, ConcolicShorthandIsUnknown) {
  // `--engines guided,concolic` says the same thing.
  expect_rejected("run fig2 --concolic", "unknown flag: --concolic");
}

TEST(Cli, UnknownSearcherNamesTheFlag) {
  // Used to run random-path silently.
  expect_rejected("pure fig2 --searcher dfz",
                  "--searcher: bad value 'dfz' (want dfs|bfs|random|coverage)");
}

TEST(Cli, SeedsTakeTheFull64BitRange) {
  // A seed >= 2^63, as serve replies echo about half the time.
  const CliRun r = run_cli("run fig2 --seed 11716865273979742174 --jobs 1");
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("replay: CONFIRMED"), std::string::npos)
      << r.output;
}

// One validator behind both surfaces: `statsym run fig2 --key value` and a
// serve `run` request carrying `key|value` accept and reject the same
// pairs. Keys only one surface knows (`trace`) are rejected by the other
// as unknown, so their bad values are rejected by both.
TEST(Cli, FlagsAndServeRequestsRejectTheSameValues) {
  const struct {
    const char* key;
    const char* value;
    bool valid;
  } cases[] = {
      {"seed", "abc", false},
      {"seed", "-3", false},
      {"seed", "+3", false},
      {"seed", " 3", false},
      {"seed", "18446744073709551616", false},
      {"seed", "11716865273979742174", true},
      {"jobs", "abc", false},
      {"jobs", "-2", false},
      {"jobs", "2x", false},
      {"jobs", "1", true},
      {"sampling", "xyz", false},
      {"sampling", "0", false},
      {"sampling", "1.7", false},
      {"sampling", "nan", false},
      {"sampling", "1", true},
      {"trace", "yes", false},
      {"metrics", "2", false},
  };
  statsym::serve::ServeSession session{statsym::serve::ServeOptions{}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.key) + "=" + c.value);
    const CliRun cli = run_cli(std::string("run fig2 --jobs 1 --") + c.key +
                               " '" + c.value + "'");
    statsym::serve::Frame f;
    f.id = "same";
    f.body = {"cmd|run", "app|fig2", "jobs|1",
              std::string(c.key) + "|" + c.value};
    statsym::serve::Reply reply;
    ASSERT_TRUE(statsym::serve::parse_reply(session.handle(f), reply, nullptr));
    EXPECT_EQ(cli.status != 2, c.valid) << cli.output;
    EXPECT_EQ(reply.ok, c.valid);
  }
}

// --- statsym_fuzz ----------------------------------------------------------

CliRun run_fuzz(const std::string& args) {
  return run_binary(STATSYM_FUZZ_CLI, args);
}

void expect_fuzz_rejected(const std::string& args, const std::string& expect) {
  SCOPED_TRACE(args);
  const CliRun r = run_fuzz(args);
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_NE(r.output.find(expect), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("verdict:"), std::string::npos) << r.output;
}

TEST(FuzzCli, MalformedNumericValuesNameTheFlag) {
  // Each of these used to run a different campaign: `--programs abc` ran
  // zero programs and passed, `--min-pipeline-rate xyz` set the bar to 0%.
  expect_fuzz_rejected("--programs abc", "--programs: bad value 'abc'");
  expect_fuzz_rejected("--programs 0", "--programs: bad value '0'");
  expect_fuzz_rejected("--programs -1", "--programs: bad value '-1'");
  expect_fuzz_rejected("--min-pipeline-rate xyz",
                       "--min-pipeline-rate: bad value 'xyz'");
  expect_fuzz_rejected("--min-pipeline-rate 1.5",
                       "--min-pipeline-rate: bad value '1.5'");
  expect_fuzz_rejected("--fault-prob -0.1", "--fault-prob: bad value '-0.1'");
  expect_fuzz_rejected("--fault-prob nan", "--fault-prob: bad value 'nan'");
  expect_fuzz_rejected("--sampling 0", "--sampling: bad value '0'");
  expect_fuzz_rejected("--diff-inputs -1", "--diff-inputs: bad value '-1'");
  expect_fuzz_rejected("-j 1.5", "-j: bad value '1.5'");
  expect_fuzz_rejected("corpus --program-seed 5 --expect-candidates x",
                       "--expect-candidates: bad value 'x'");
  expect_fuzz_rejected("--seed -3", "--seed: bad value '-3'");
  expect_fuzz_rejected("show --program-seed 18446744073709551616",
                       "--program-seed: bad value '18446744073709551616'");
}

TEST(FuzzCli, SeedsTakeTheFull64BitRange) {
  const CliRun r = run_fuzz("corpus --program-seed 11716865273979742174");
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("11716865273979742174"), std::string::npos)
      << r.output;
}

TEST(Cli, WellFormedNumericValuesRun) {
  const CliRun r = run_cli(
      "run fig2 --sampling 1 --seed 7 --jobs 2 --mem 64 --time 30");
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("collected 200 logs at 100% sampling"),
            std::string::npos)
      << r.output;
}

TEST(Cli, LogFileLocationOutsideTheModuleIsRejected) {
  // fig2 has far fewer than 1000 locations; a record there names no
  // function of the program and must not reach the statistics.
  const std::string path = ::testing::TempDir() + "cli_test_bad_loc.logs";
  {
    std::ofstream out(path);
    out << "run 0 faulty\nrec 0\nrun 3 ok\nrec 1000\n";
  }
  const CliRun r = run_cli("run fig2 --logs " + path);
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("run 3 records location 1000"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("loaded"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(Cli, CollectedLogFileLoads) {
  const std::string path = ::testing::TempDir() + "cli_test_good.logs";
  const CliRun c = run_cli("collect fig2 " + path + " --seed 7");
  ASSERT_EQ(c.status, 0) << c.output;
  const CliRun r = run_cli("run fig2 --logs " + path);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("loaded 200 logs from " + path), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

}  // namespace
