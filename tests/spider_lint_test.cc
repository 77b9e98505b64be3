// spider-lint end-to-end tests: run the real binary over the fixture corpus
// in tests/lint_fixtures/ and assert the exact (rule, line) findings, the
// suppression grammar, the exit-code contract, and — the gate that matters —
// that the repo's own src/ tree is clean.
//
// The binary path and fixture directory arrive as compile definitions from
// tests/CMakeLists.txt, so the test runs against the spider-lint built by
// this exact tree.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.h"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

// Runs `SPIDER_LINT_BIN <args>`, capturing stdout (stderr is dropped so
// usage-error tests don't spray the gtest log).
RunResult run_lint(const std::string& args) {
  const std::string cmd =
      std::string(SPIDER_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  RunResult r;
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = ::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    r.out.append(buf, n);
  }
  const int status = ::pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(SPIDER_LINT_FIXTURES) + "/" + name;
}

// One finding as (line, rule) — message text is free to evolve; the rule
// identity and the anchor line are the contract.
using LineRule = std::pair<int, std::string>;

std::vector<LineRule> findings_of(const RunResult& r) {
  spider::telemetry::JsonValue doc;
  std::string error;
  EXPECT_TRUE(spider::telemetry::parse_json(r.out, doc, &error))
      << error << "\noutput was: " << r.out;
  std::vector<LineRule> out;
  const auto* findings = doc.find("findings");
  if (findings == nullptr || !findings->is_array()) return out;
  for (const auto& f : findings->array) {
    out.emplace_back(static_cast<int>(f.number_or("line", -1)),
                     f.string_or("rule", ""));
  }
  return out;
}

TEST(SpiderLint, CleanFileExitsZero) {
  const RunResult r = run_lint("--json " + fixture("clean.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(findings_of(r).empty()) << r.out;
}

TEST(SpiderLint, UnorderedIterationFindsRangeForIteratorsAndEraseIf) {
  const RunResult r = run_lint("--json " + fixture("unordered.cc"));
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<LineRule> expected = {
      {13, "det-unordered-iteration"},
      {17, "det-unordered-iteration"},
      {20, "det-unordered-iteration"},
  };
  // The allow()-shielded loop near the bottom of the fixture must be absent.
  EXPECT_EQ(findings_of(r), expected) << r.out;
}

TEST(SpiderLint, BannedSourcesFindsEveryNondeterministicRead) {
  const RunResult r = run_lint("--json " + fixture("banned.cc"));
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<LineRule> expected = {
      {10, "det-banned-sources"},  // std::random_device
      {13, "det-banned-sources"},  // system_clock
      {19, "det-banned-sources"},  // steady_clock without timing-only
      {24, "det-banned-sources"},  // rand()
      {26, "det-banned-sources"},  // time(nullptr)
      {29, "det-banned-sources"},  // default-constructed mt19937
  };
  EXPECT_EQ(findings_of(r), expected) << r.out;
}

TEST(SpiderLint, TimingOnlyAnnotationExemptsSteadyClock) {
  const RunResult r = run_lint("--json " + fixture("timing_ok.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(findings_of(r).empty()) << r.out;
}

TEST(SpiderLint, HotPathAllocFlagsOnlyHotBodies) {
  const RunResult r = run_lint("--json " + fixture("hot_alloc.cc"));
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<LineRule> expected = {
      {23, "hot-path-alloc"},  // member push_back without visible reserve
      {24, "hot-path-alloc"},  // push_back on a parameter
      {25, "hot-path-alloc"},  // resize without visible reserve
      {26, "hot-path-alloc"},  // operator new
      {28, "hot-path-alloc"},  // make_unique
      {29, "hot-path-alloc"},  // std::to_string
  };
  // The reserved pool_, the allow()-shielded push_back, and the identical
  // cold() body must contribute nothing.
  EXPECT_EQ(findings_of(r), expected) << r.out;
}

TEST(SpiderLint, PointerOrderFlagsValueComparatorsNotDereferencingOnes) {
  const RunResult r = run_lint("--json " + fixture("pointer_order.cc"));
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<LineRule> expected = {
      {12, "det-pointer-order"},  // std::less<T*>
      {15, "det-pointer-order"},  // &a < &b
      {18, "det-pointer-order"},  // (T* a, T* b) { return a < b; }
  };
  EXPECT_EQ(findings_of(r), expected) << r.out;
}

TEST(SpiderLint, CheckPolicyFlagsRawAssertAndAbort) {
  const RunResult r = run_lint("--json " + fixture("check_policy.cc"));
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<LineRule> expected = {
      {9, "check-policy"},
      {10, "check-policy"},
  };
  EXPECT_EQ(findings_of(r), expected) << r.out;
}

TEST(SpiderLint, FileWideAllowSuppressesWholeFile) {
  const RunResult r = run_lint("--json " + fixture("file_allow.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(findings_of(r).empty()) << r.out;
}

TEST(SpiderLint, DefectiveSuppressionsAreThemselvesFindings) {
  const RunResult r = run_lint("--json " + fixture("bad_suppression.cc"));
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<LineRule> expected = {
      {3, "lint-suppression"},  // allow() without a reason
      {5, "lint-suppression"},  // allow() naming an unknown rule
  };
  EXPECT_EQ(findings_of(r), expected) << r.out;
}

TEST(SpiderLint, DirectoryScanAggregatesAndSortsFindings) {
  const RunResult r = run_lint("--json " + std::string(SPIDER_LINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1);
  spider::telemetry::JsonValue doc;
  ASSERT_TRUE(spider::telemetry::parse_json(r.out, doc)) << r.out;
  // 3 unordered + 6 banned + 6 hot-alloc + 3 pointer-order +
  // 2 check-policy + 2 bad suppressions; the clean/suppressed fixtures
  // contribute zero.
  EXPECT_EQ(doc.number_or("count", -1), 22) << r.out;
  const auto* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_TRUE(findings->is_array());
  // Stable output order: (file, line) nondecreasing.
  for (std::size_t i = 1; i < findings->array.size(); ++i) {
    const auto& prev = findings->array[i - 1];
    const auto& cur = findings->array[i];
    const auto key = [](const spider::telemetry::JsonValue& f) {
      return std::make_pair(f.string_or("file", ""),
                            static_cast<int>(f.number_or("line", -1)));
    };
    EXPECT_LE(key(prev), key(cur)) << "findings not sorted at index " << i;
  }
  // Every finding carries a non-empty fix hint.
  for (const auto& f : findings->array) {
    EXPECT_FALSE(f.string_or("hint", "").empty())
        << f.string_or("rule", "?") << " has no hint";
  }
}

TEST(SpiderLint, TextOutputCarriesFileLineRuleAndHint) {
  const RunResult r = run_lint(fixture("check_policy.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("check_policy.cc:9: [check-policy]"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("hint:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("2 finding(s)"), std::string::npos) << r.out;
}

TEST(SpiderLint, ListRulesNamesEveryRule) {
  const RunResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"det-unordered-iteration", "det-banned-sources", "det-pointer-order",
        "hot-path-alloc", "check-policy", "lint-suppression"}) {
    EXPECT_NE(r.out.find(rule), std::string::npos)
        << "--list-rules missing " << rule;
  }
}

TEST(SpiderLint, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("").exit_code, 2);              // no paths
  EXPECT_EQ(run_lint("--bogus-flag x").exit_code, 2);
  EXPECT_EQ(run_lint(fixture("does_not_exist.cc")).exit_code, 2);
}

// The gate the CI lint job enforces, asserted here too so a plain `ctest`
// run catches a regression without the workflow: the repo's own sources
// must be finding-free (every suppression carries a written reason).
TEST(SpiderLint, RepositorySourceTreeIsClean) {
  const RunResult r =
      run_lint("--json " + std::string(SPIDER_SOURCE_DIR) + "/src");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  spider::telemetry::JsonValue doc;
  ASSERT_TRUE(spider::telemetry::parse_json(r.out, doc)) << r.out;
  EXPECT_EQ(doc.number_or("count", -1), 0) << r.out;
}

}  // namespace
