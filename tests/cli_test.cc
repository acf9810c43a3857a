// Command-line misuse: flags the CLI no longer supports must stop the run
// with exit status 2 and say why, never silently run another configuration.
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
}

}  // namespace
