// spider_cli end-to-end tests: run the real binary (its path arrives as a
// compile definition from tests/CMakeLists.txt) and check the flag-parsing
// contract. A value that is not a number, or lies outside the range its
// usage comment states, must exit 2 with a message, never abort or reach
// undefined behaviour (a huge --duration used to overflow sim::Time).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

// Runs `SPIDER_CLI_BIN <args>`, capturing stdout, or stdout and stderr.
RunResult run_cli(const std::string& args, bool with_stderr) {
  const std::string cmd = std::string(SPIDER_CLI_BIN) + " " + args +
                          (with_stderr ? " 2>&1" : " 2>/dev/null");
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  RunResult r;
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = ::fread(buf, 1, sizeof(buf), pipe)) > 0) r.out.append(buf, n);
  const int status = ::pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(SpiderCli, OutOfRangeFlagsExitTwo) {
  for (const char* flag :
       {"--channel=0", "--channel=99", "--channel=1x", "--duration=-5",
        "--duration=0", "--duration=nan", "--duration=inf", "--duration=1e300",
        "--speed=-1", "--speed=inf", "--seed=abc", "--seed=-1", "--seed=",
        "--sites=-3", "--sites=1e9", "--dud=5", "--dud=-0.1"}) {
    const RunResult r = run_cli(flag, /*with_stderr=*/true);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.out;
    EXPECT_NE(r.out.find("bad value for"), std::string::npos)
        << flag << "\n" << r.out;
  }
}

// A flag the tool does not define fails as unknown, whatever its value, so a
// script still passing --frames stops instead of running without it.
TEST(SpiderCli, UnknownFlagsExitTwo) {
  for (const char* flag : {"--frames=5", "--frames=-1", "--bogus"}) {
    const RunResult r = run_cli(flag, /*with_stderr=*/true);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.out;
    EXPECT_NE(r.out.find("unknown flag"), std::string::npos)
        << flag << "\n" << r.out;
  }
}

TEST(SpiderCli, ValidRunPrintsOneJsonLine) {
  const RunResult r = run_cli("--duration=5", /*with_stderr=*/false);
  EXPECT_EQ(r.exit_code, 0);
  ASSERT_FALSE(r.out.empty());
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_EQ(r.out.find('\n'), r.out.size() - 1) << r.out;
  EXPECT_NE(r.out.find("\"duration_s\":5"), std::string::npos) << r.out;
}

}  // namespace
