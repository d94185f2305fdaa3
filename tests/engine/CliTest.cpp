//===----------------------------------------------------------------------===//
//
// Smoke tests for the `rustsight` command line: an unknown flag is a usage
// error for every subcommand (exit 2, nothing on stdout), never an input
// path or a dropped argument that leaves the run looking normal.
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace rs;

namespace {

proc::RunResult runCli(const std::vector<std::string> &Args) {
  std::vector<std::string> Argv = {RS_RUSTSIGHT_BIN};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return proc::runCommand(Argv, "", /*TimeoutMs=*/120000);
}

const std::string Corpus = std::string(RS_REPO_ROOT) + "/examples/mir/eval";

} // namespace

TEST(Cli, MisspelledCheckFlagIsAUsageError) {
  proc::RunResult R = runCli({"check", "--no-whole-progam", Corpus});
  ASSERT_TRUE(R.Spawned) << R.Error;
  EXPECT_FALSE(R.Exit.Signaled);
  EXPECT_EQ(R.Exit.Code, 2);
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
  EXPECT_NE(R.Stderr.find("unknown option '--no-whole-progam'"),
            std::string::npos)
      << R.Stderr;
}

TEST(Cli, UnknownServeFlagIsAUsageError) {
  proc::RunResult R = runCli({"serve", "--debounce=5"});
  ASSERT_TRUE(R.Spawned) << R.Error;
  EXPECT_EQ(R.Exit.Code, 2);
  EXPECT_NE(R.Stderr.find("unknown option '--debounce=5'"), std::string::npos)
      << R.Stderr;
}

TEST(Cli, MisspelledFuzzFlagIsAUsageError) {
  // --fuzz-iter (sic) once fell through and the run spent the default
  // 1,000 candidates, exiting 0.
  proc::RunResult R = runCli({"fuzz", "--fuzz-iter", "5"});
  ASSERT_TRUE(R.Spawned) << R.Error;
  EXPECT_EQ(R.Exit.Code, 2);
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
  EXPECT_NE(R.Stderr.find("unknown option '--fuzz-iter'"), std::string::npos)
      << R.Stderr;
}

TEST(Cli, UnknownGenFlagIsAUsageError) {
  proc::RunResult R = runCli({"gen", "--bogus", "--sweep", "3"});
  ASSERT_TRUE(R.Spawned) << R.Error;
  EXPECT_EQ(R.Exit.Code, 2);
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
  EXPECT_NE(R.Stderr.find("unknown option '--bogus'"), std::string::npos)
      << R.Stderr;
}

TEST(Cli, KnownFlagsStillRun) {
  // The spelled-right flag runs: findings in the eval corpus mean exit 1.
  proc::RunResult R =
      runCli({"check", "--json", "--no-cache", "--no-whole-program", Corpus});
  ASSERT_TRUE(R.Spawned) << R.Error;
  EXPECT_EQ(R.Exit.Code, 1) << R.Stderr;
  EXPECT_NE(R.Stdout.find("\"files\""), std::string::npos);
}
