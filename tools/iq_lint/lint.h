#ifndef IQ_TOOLS_IQ_LINT_LINT_H_
#define IQ_TOOLS_IQ_LINT_LINT_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace iq {
namespace lint {

/// The repo's own lint tool (DESIGN.md §10). Ports tools/lint.sh's banned-
/// pattern greps into a real program — token/line analysis, no libclang —
/// and adds the concurrency-discipline checks that shell greps cannot
/// express: no raw std::mutex outside src/util/, no unannotated mutable
/// members in Mutex-owning classes, no IQ_CHECK-free ParallelFor callers,
/// and no SubdomainIndex reader path in src/core/ that bypasses the epoch
/// pinning discipline (DESIGN.md §12).
///
/// Design constraints:
///  * Deterministic and dependency-free: plain file reads + std::regex, so
///    the tool builds and runs everywhere the library does (CI gcc lanes
///    included, where clang-tidy is unavailable).
///  * Checks operate on *sanitized* lines — string literals and comments
///    are blanked first — so a doc comment discussing std::mutex or a
///    lint pattern stored in a string never trips a ban. Waiver markers
///    are read from the raw line before sanitizing.
///  * Every check has a stable kebab-case id (Finding::check) so the JSON
///    report is machine-consumable and CI can diff runs.

/// One lint violation.
struct Finding {
  /// Stable check id: "header-guard", "banned-rng", "banned-clock",
  /// "banned-socket", "raw-mutex", "unguarded-member", "parallel-for-check",
  /// "unpinned-index-read", "raw-scoring-loop".
  std::string check;
  /// Repo-relative path, forward slashes ("src/core/engine.h").
  std::string file;
  /// 1-based line of the violation; 0 when the finding is about the whole
  /// file (e.g. a missing include guard).
  int line = 0;
  std::string message;
};

/// Marker that waives the unguarded-member check for the member declared on
/// (or continued onto) the same line. Use sparingly and leave a reason in a
/// nearby comment; DESIGN.md §10 lists the sanctioned cases.
inline constexpr char kWaiverUnguardedMember[] =
    "iq-lint: allow(unguarded-member)";

/// Marker that waives the raw-scoring-loop check for the line it appears
/// on (or, placed on its own comment line, for the line directly below):
/// a deliberate scalar scoring loop in src/core/ (the O(κ) threshold
/// reads, reference evaluators) instead of a ScoreKernel batch call. Leave
/// the reason in a nearby comment.
inline constexpr char kWaiverRawScoringLoop[] =
    "iq-lint: allow(raw-scoring-loop)";

/// Lints `content` as if it were the repo file at `path` (repo-relative,
/// forward slashes). Which checks run depends on the path: bans are scoped
/// exactly as tools/lint.sh scoped its greps (e.g. raw-mutex skips
/// src/util/, banned-socket skips src/obs/exporter.cc), header checks run
/// on *.h only, parallel-for-check on src/**/*.cc only. Findings come back
/// in line order.
std::vector<Finding> CheckFile(const std::string& path,
                               const std::string& content);

/// Walks `repo_root`'s lintable roots (src, tests, bench, examples, tools),
/// skipping tests/lint/ fixtures and build*/ trees, and lints every
/// *.h/*.cc/*.cpp file. Findings are sorted by (file, line, check).
/// Fails only on I/O errors (unreadable root); a clean tree is an empty
/// vector.
Result<std::vector<Finding>> LintTree(const std::string& repo_root);

/// {"findings": [{"check": ..., "file": ..., "line": N, "message": ...}],
///  "count": N} — stable key order, one finding per array element.
std::string FindingsToJson(const std::vector<Finding>& findings);

/// "IQ_CORE_ENGINE_H_" for "src/core/engine.h" — the include-guard naming
/// rule (strip a leading src/, uppercase, map [/.-] to '_'). Exposed for
/// the self-tests.
std::string ExpectedHeaderGuard(const std::string& path);

}  // namespace lint
}  // namespace iq

#endif  // IQ_TOOLS_IQ_LINT_LINT_H_
