// Self-tests for tools/iq_lint (DESIGN.md §10): every seeded violation in
// the tests/lint/bad/ corpus must be flagged, the good/ corpus and the real
// tree must come back clean, and the path scoping must match what
// tools/lint.sh historically enforced.

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/iq_lint/lint.h"
#include "util/string_util.h"

namespace iq {
namespace lint {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : std::string();
}

std::string FixturePath(const std::string& rel) {
  return std::string(IQ_SOURCE_DIR) + "/tests/lint/" + rel;
}

int CountCheck(const std::vector<Finding>& findings,
               const std::string& check) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.check == check; }));
}

TEST(LintGuardTest, ExpectedHeaderGuardDerivation) {
  EXPECT_EQ(ExpectedHeaderGuard("src/util/check.h"), "IQ_UTIL_CHECK_H_");
  EXPECT_EQ(ExpectedHeaderGuard("tests/test_world.h"),
            "IQ_TESTS_TEST_WORLD_H_");
  EXPECT_EQ(ExpectedHeaderGuard("bench/common/harness.h"),
            "IQ_BENCH_COMMON_HARNESS_H_");
  EXPECT_EQ(ExpectedHeaderGuard("tools/iq_lint/lint.h"),
            "IQ_TOOLS_IQ_LINT_LINT_H_");
  EXPECT_EQ(ExpectedHeaderGuard("src/obs/trace_analysis.h"),
            "IQ_OBS_TRACE_ANALYSIS_H_");
}

TEST(LintGuardTest, FlagsWrongGuard) {
  std::vector<Finding> findings =
      CheckFile("tests/lint/bad/bad_guard.h",
                ReadFileOrDie(FixturePath("bad/bad_guard.h")));
  EXPECT_EQ(CountCheck(findings, "header-guard"), 1);
}

TEST(LintBannedTest, FlagsEverySeededPattern) {
  // Checked under a synthetic src/core/ path so no exemption applies.
  std::vector<Finding> findings =
      CheckFile("src/core/banned_fixture.cc",
                ReadFileOrDie(FixturePath("bad/banned_patterns.cc")));
  EXPECT_EQ(CountCheck(findings, "banned-rng"), 1);
  EXPECT_EQ(CountCheck(findings, "banned-clock"), 1);
  EXPECT_EQ(CountCheck(findings, "banned-socket"), 1);
  // The same patterns inside comments and strings stayed invisible.
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintBannedTest, ExemptionsMatchLintShScoping) {
  const std::string content =
      ReadFileOrDie(FixturePath("bad/banned_patterns.cc"));
  // The exporter is the one sanctioned socket user...
  std::vector<Finding> exporter = CheckFile("src/obs/exporter.cc", content);
  EXPECT_EQ(CountCheck(exporter, "banned-socket"), 0);
  // ...and src/obs/ may read the raw clock (trace timestamps).
  EXPECT_EQ(CountCheck(exporter, "banned-clock"), 0);
  EXPECT_EQ(CountCheck(exporter, "banned-rng"), 1);
  // util/random.* is the one sanctioned <random> user.
  std::vector<Finding> rng = CheckFile("src/util/random.cc", content);
  EXPECT_EQ(CountCheck(rng, "banned-rng"), 0);
}

TEST(LintRawMutexTest, FlagsRawPrimitivesOutsideUtil) {
  const std::string content =
      ReadFileOrDie(FixturePath("bad/raw_mutex.cc"));
  std::vector<Finding> findings = CheckFile("src/core/raw.cc", content);
  EXPECT_EQ(CountCheck(findings, "raw-mutex"), 2);
  // src/util/ implements the wrapper and is exempt.
  std::vector<Finding> util = CheckFile("src/util/raw.cc", content);
  EXPECT_EQ(CountCheck(util, "raw-mutex"), 0);
}

TEST(LintUnguardedTest, FlagsExactlyTheUnannotatedMembers) {
  std::vector<Finding> findings =
      CheckFile("tests/lint/bad/unguarded.h",
                ReadFileOrDie(FixturePath("bad/unguarded.h")));
  ASSERT_EQ(CountCheck(findings, "unguarded-member"), 3);
  std::string all;
  for (const Finding& f : findings) all += f.message + "\n";
  EXPECT_NE(all.find("size_"), std::string::npos);
  EXPECT_NE(all.find("name_"), std::string::npos);
  EXPECT_NE(all.find("rate_"), std::string::npos);
  // The waived member and the annotated/atomic ones stayed silent.
  EXPECT_EQ(all.find("frozen_"), std::string::npos);
  EXPECT_EQ(all.find("keys_"), std::string::npos);
  EXPECT_EQ(all.find("hits_"), std::string::npos);
  // Every finding names the owning class.
  for (const Finding& f : findings) {
    if (f.check == "unguarded-member") {
      EXPECT_NE(f.message.find("BadCache"), std::string::npos) << f.message;
    }
  }
}

TEST(LintParallelForTest, FlagsCheckFreeReduction) {
  std::vector<Finding> findings =
      CheckFile("src/core/sum.cc",
                ReadFileOrDie(FixturePath("bad/parallel_for.cc")));
  EXPECT_EQ(CountCheck(findings, "parallel-for-check"), 1);
  // The rule targets engine code: the same content outside src/ (tests,
  // bench harnesses) or in src/util/ itself is not in scope.
  EXPECT_EQ(CountCheck(CheckFile("tests/sum.cc",
                                 ReadFileOrDie(
                                     FixturePath("bad/parallel_for.cc"))),
                       "parallel-for-check"),
            0);
}

TEST(LintUnpinnedIndexReadTest, FlagsEveryReadSiteWhenNoPinEvidence) {
  const std::string content = ReadFileOrDie(FixturePath("bad/unpinned_read.cc"));
  std::vector<Finding> findings =
      CheckFile("src/core/unpinned_fixture.cc", content);
  // Both HitCount sites, nothing else.
  EXPECT_EQ(CountCheck(findings, "unpinned-index-read"), 2);
  EXPECT_EQ(static_cast<int>(findings.size()), 2);
  for (const Finding& f : findings) {
    EXPECT_NE(f.message.find("EpochHandle"), std::string::npos) << f.message;
  }

  // Scoping: the rule targets src/core/ reader paths only — the index
  // implementation itself and code outside src/core/ are exempt.
  EXPECT_EQ(CountCheck(CheckFile("src/core/subdomain_index.cc", content),
                       "unpinned-index-read"),
            0);
  EXPECT_EQ(CountCheck(CheckFile("tests/unpinned_fixture.cc", content),
                       "unpinned-index-read"),
            0);
  EXPECT_EQ(CountCheck(CheckFile("src/index/unpinned_fixture.cc", content),
                       "unpinned-index-read"),
            0);
}

TEST(LintUnpinnedIndexReadTest, PinnedAndCallerPinnedShapesPass) {
  std::vector<Finding> findings =
      CheckFile("src/core/pinned_fixture.cc",
                ReadFileOrDie(FixturePath("good/pinned_read.cc")));
  EXPECT_EQ(CountCheck(findings, "unpinned-index-read"), 0);
}

TEST(LintRawScoringLoopTest, FlagsEveryScalarCallInLoops) {
  const std::string content = ReadFileOrDie(FixturePath("bad/raw_scoring.cc"));
  std::vector<Finding> findings =
      CheckFile("src/core/raw_scoring_fixture.cc", content);
  // The braced for body, the while body, and the braceless for body — but
  // not the straight-line Score call and not the batch ScoreAll call.
  EXPECT_EQ(CountCheck(findings, "raw-scoring-loop"), 3);
  EXPECT_EQ(static_cast<int>(findings.size()), 3);
  for (const Finding& f : findings) {
    EXPECT_NE(f.message.find("ScoreAll"), std::string::npos) << f.message;
  }

  // Scoping: the kernel implementation's own loops are the sanctioned
  // scoring loops, and the rule targets src/core/ only.
  EXPECT_EQ(CountCheck(CheckFile("src/core/score_kernel.cc", content),
                       "raw-scoring-loop"),
            0);
  EXPECT_EQ(CountCheck(CheckFile("tests/raw_scoring_fixture.cc", content),
                       "raw-scoring-loop"),
            0);
  EXPECT_EQ(CountCheck(CheckFile("src/topk/raw_scoring_fixture.cc", content),
                       "raw-scoring-loop"),
            0);
}

TEST(LintDirectTraceTest, FlagsEveryHandRolledSpan) {
  const std::string content = ReadFileOrDie(FixturePath("bad/direct_trace.cc"));
  std::vector<Finding> findings =
      CheckFile("src/core/direct_trace_fixture.cc", content);
  // TraceScope construction, TraceRoot construction, and the direct
  // Record() call — the macro uses and collector reads stay silent.
  EXPECT_EQ(CountCheck(findings, "direct-trace"), 3);
  for (const Finding& f : findings) {
    if (f.check == "direct-trace") {
      EXPECT_NE(f.message.find("IQ_TRACE_SCOPE"), std::string::npos)
          << f.message;
    }
  }

  // The macros' expansion site is the one sanctioned constructor...
  EXPECT_EQ(CountCheck(CheckFile("src/obs/trace.h", content), "direct-trace"),
            0);
  EXPECT_EQ(CountCheck(CheckFile("src/obs/trace.cc", content), "direct-trace"),
            0);
  // ...and the exemption's trailing '.' keeps trace_analysis.* in scope.
  EXPECT_EQ(CountCheck(CheckFile("src/obs/trace_analysis.cc", content),
                       "direct-trace"),
            3);
}

TEST(LintDirectTraceTest, MacroOnlyFixturePasses) {
  std::vector<Finding> findings =
      CheckFile("src/core/macro_trace_fixture.cc",
                ReadFileOrDie(FixturePath("good/macro_trace.cc")));
  EXPECT_EQ(CountCheck(findings, "direct-trace"), 0);
}

TEST(LintRawScoringLoopTest, WaiversAndBatchCallsPass) {
  std::vector<Finding> findings =
      CheckFile("src/core/waived_scoring_fixture.cc",
                ReadFileOrDie(FixturePath("good/waived_scoring.cc")));
  EXPECT_EQ(CountCheck(findings, "raw-scoring-loop"), 0);
}

TEST(LintGoodCorpusTest, CleanFixturesProduceNoFindings) {
  std::vector<Finding> h =
      CheckFile("tests/lint/good/clean.h",
                ReadFileOrDie(FixturePath("good/clean.h")));
  EXPECT_TRUE(h.empty()) << h.size() << " unexpected finding(s), first: "
                         << (h.empty() ? "" : h[0].message);
  std::vector<Finding> cc = CheckFile("src/core/clean.cc",
                                      ReadFileOrDie(
                                          FixturePath("good/clean.cc")));
  EXPECT_TRUE(cc.empty()) << cc.size() << " unexpected finding(s), first: "
                          << (cc.empty() ? "" : cc[0].message);
}

TEST(LintJsonTest, ReportIsMachineReadable) {
  std::vector<Finding> findings = {
      {"raw-mutex", "src/core/a.cc", 12, "message \"quoted\""},
      {"header-guard", "src/core/b.h", 0, "missing"},
  };
  std::string json = FindingsToJson(findings);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"raw-mutex\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 12"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(FindingsToJson({}).find("\"count\": 0") == std::string::npos,
            false);
}

// The acceptance gate: the real tree passes its own lint. Any unannotated
// member, raw mutex, banned pattern or guard drift anywhere in
// src/tests/bench/examples/tools fails this test with the finding printed.
TEST(LintTreeTest, RepositoryIsClean) {
  Result<std::vector<Finding>> result = LintTree(IQ_SOURCE_DIR);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const Finding& f : *result) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.check << "] "
                  << f.message;
  }
}

}  // namespace
}  // namespace lint
}  // namespace iq
