// Command-line misuse: flags the CLI no longer supports and malformed or
// out-of-range numeric values must stop the run with exit status 2 and say
// why, never silently run another configuration.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct CliRun {
  int status{-1};
  std::string output;  // stdout and stderr
};

CliRun run_cli(const std::string& args) {
  CliRun r;
  const std::string cmd = std::string(STATSYM_CLI) + " " + args + " 2>&1";
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

void expect_removed(const std::string& args, const std::string& flag) {
  SCOPED_TRACE(args);
  const CliRun r = run_cli(args);
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_NE(r.output.find(flag + " was removed"), std::string::npos)
      << r.output;
  // Nothing ran: no phase output, no replay verdict.
  EXPECT_EQ(r.output.find("replay"), std::string::npos) << r.output;
}

TEST(Cli, RemovedExecJobsFlagFailsLoudly) {
  expect_removed("run fig2 --exec-jobs 2", "--exec-jobs");
  expect_removed("pure fig2 --exec-jobs 1", "--exec-jobs");
}

TEST(Cli, RemovedExecBatchFlagFailsLoudly) {
  expect_removed("run fig2 --sampling 0.5 --exec-batch 4", "--exec-batch");
  expect_removed("pure fig2 --exec-batch 1", "--exec-batch");
}

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
  expect_rejected("run fig2 --portfolio 1.5", "--portfolio: bad value");
  expect_rejected("pure fig2 --mem -1", "--mem: bad value '-1'");
  expect_rejected("pure fig2 --time 0", "--time: bad value '0'");
  expect_rejected("serve --sampling 2", "--sampling: bad value '2'");
}

TEST(Cli, WellFormedNumericValuesRun) {
  const CliRun r = run_cli(
      "run fig2 --sampling 1 --seed 7 --jobs 2 --portfolio 1 --mem 64 "
      "--time 30");
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("collected 200 logs at 100% sampling"),
            std::string::npos)
      << r.output;
}

}  // namespace
