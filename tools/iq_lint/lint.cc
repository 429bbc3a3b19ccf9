#include "tools/iq_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <regex>
#include <tuple>
#include <utility>

#include "util/string_util.h"

namespace iq {
namespace lint {
namespace {

namespace fs = std::filesystem;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(std::move(cur));
  return lines;
}

/// Blanks comments and string/char literals with spaces, preserving every
/// line's length, so the pattern checks below never fire on prose or on a
/// pattern stored in a string (this file lints itself). Handles // and
/// /* */ comments, escape sequences, and R"delim(...)delim" raw strings.
std::vector<std::string> SanitizeLines(const std::vector<std::string>& raw) {
  std::vector<std::string> out = raw;
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: the ")delim\"" terminator
  for (size_t li = 0; li < out.size(); ++li) {
    std::string& line = out[li];
    size_t i = 0;
    while (i < line.size()) {
      char c = line[i];
      switch (state) {
        case State::kCode:
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
            for (size_t j = i; j < line.size(); ++j) line[j] = ' ';
            i = line.size();
          } else if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
            line[i] = line[i + 1] = ' ';
            i += 2;
            state = State::kBlockComment;
          } else if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"') {
            size_t paren = line.find('(', i + 2);
            if (paren == std::string::npos) {
              ++i;  // malformed; treat as code
              break;
            }
            // assign/append: gcc 12 flags the operator+ chain with a false
            // -Wrestrict.
            raw_delim.assign(")")
                .append(line, i + 2, paren - (i + 2))
                .append("\"");
            for (size_t j = i; j <= paren; ++j) line[j] = ' ';
            i = paren + 1;
            state = State::kRawString;
          } else if (c == '"') {
            line[i++] = ' ';
            state = State::kString;
          } else if (c == '\'') {
            line[i++] = ' ';
            state = State::kChar;
          } else {
            ++i;
          }
          break;
        case State::kBlockComment:
          if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            line[i] = line[i + 1] = ' ';
            i += 2;
            state = State::kCode;
          } else {
            line[i++] = ' ';
          }
          break;
        case State::kString:
        case State::kChar: {
          char quote = state == State::kString ? '"' : '\'';
          if (c == '\\' && i + 1 < line.size()) {
            line[i] = line[i + 1] = ' ';
            i += 2;
          } else if (c == quote) {
            line[i++] = ' ';
            state = State::kCode;
          } else {
            line[i++] = ' ';
          }
          break;
        }
        case State::kRawString: {
          size_t end = line.find(raw_delim, i);
          size_t stop = end == std::string::npos ? line.size()
                                                 : end + raw_delim.size();
          for (size_t j = i; j < stop; ++j) line[j] = ' ';
          i = stop;
          if (end != std::string::npos) state = State::kCode;
          break;
        }
      }
    }
    // Unterminated // comments and plain literals end with the line.
    if (state == State::kString || state == State::kChar) state = State::kCode;
  }
  return out;
}

bool IsHeaderPath(const std::string& path) { return EndsWith(path, ".h"); }

bool IsSourcePath(const std::string& path) {
  return EndsWith(path, ".cc") || EndsWith(path, ".cpp");
}

// ---------------------------------------------------------------- guards --

void CheckHeaderGuard(const std::string& path,
                      const std::vector<std::string>& raw,
                      std::vector<Finding>* findings) {
  const std::string guard = ExpectedHeaderGuard(path);
  const std::string ifndef_line = "#ifndef " + guard;
  const std::string define_line = "#define " + guard;
  bool has_ifndef = false;
  bool has_define = false;
  for (const std::string& line : raw) {
    if (line == ifndef_line) has_ifndef = true;
    if (line == define_line) has_define = true;
  }
  if (!has_ifndef) {
    findings->push_back({"header-guard", path, 0,
                         "missing or wrong include guard (expected " + guard +
                             ")"});
  } else if (!has_define) {
    findings->push_back({"header-guard", path, 0,
                         "#ifndef " + guard + " without matching #define"});
  }
}

// ------------------------------------------------------- banned patterns --

struct BanRule {
  const char* check;
  const char* pattern;
  const char* message;
  /// Returns true when `path` is exempt from this rule.
  bool (*exempt)(const std::string& path);
};

const BanRule kBanRules[] = {
    {"banned-rng",
     R"(std::rand\b|(^|[^_[:alnum:]])srand\s*\(|std::random_device|)"
     R"(std::mt19937|std::default_random_engine)",
     "banned RNG use (route randomness through util/random.h)",
     [](const std::string& path) {
       return StartsWith(path, "src/util/random.");
     }},
    {"banned-clock",
     R"(std::chrono::steady_clock::now|std::chrono::high_resolution_clock|)"
     R"(std::chrono::system_clock::now)",
     "raw std::chrono clock use (time through util/timer.h or src/obs/)",
     [](const std::string& path) {
       return path == "src/util/timer.h" || StartsWith(path, "src/obs/");
     }},
    {"banned-socket",
     R"(::socket\s*\(|::bind\s*\(|::listen\s*\(|::accept\s*\(|)"
     R"(::connect\s*\()",
     "raw socket use outside src/obs/exporter.cc (route through the "
     "exporter/HttpGetLocal)",
     [](const std::string& path) { return path == "src/obs/exporter.cc"; }},
    {"raw-mutex",
     R"(std::(recursive_|timed_|recursive_timed_|shared_|shared_timed_)?)"
     R"(mutex\b|std::condition_variable|std::lock_guard|std::unique_lock|)"
     R"(std::scoped_lock|std::shared_lock)",
     "raw std::mutex/lock primitives outside src/util/ (use iq::Mutex / "
     "MutexLock / CondVar from util/annotations.h so the thread-safety "
     "analysis and the lock-rank detector see the lock)",
     [](const std::string& path) { return StartsWith(path, "src/util/"); }},
    {"direct-trace",
     R"(\bTraceScope\b|\bTraceRoot\b|TraceCollector::Record\b|)"
     R"(TraceCollector::Global\(\)\s*\.\s*Record\b|)"
     R"(\b(Open|Close)TraceSpan\b)",
     "direct TraceScope/TraceRoot construction or TraceCollector::Record / "
     "Open/CloseTraceSpan call outside src/obs/trace.* (use IQ_TRACE_SCOPE / "
     "IQ_TRACE_ROOT_SCOPE so spans compile out when IQ_ENABLE_TRACING is "
     "off and trace-context save/restore stays correct)",
     [](const std::string& path) {
       // The macros' own expansion site; trace_analysis.* is NOT exempt
       // (the '.' excludes it), and needs no exemption — it consumes span
       // dumps, it never constructs spans.
       return StartsWith(path, "src/obs/trace.");
     }},
};

void CheckBannedPatterns(const std::string& path,
                         const std::vector<std::string>& sanitized,
                         std::vector<Finding>* findings) {
  for (const BanRule& rule : kBanRules) {
    if (rule.exempt(path)) continue;
    const std::regex re(rule.pattern);
    for (size_t i = 0; i < sanitized.size(); ++i) {
      if (std::regex_search(sanitized[i], re)) {
        findings->push_back(
            {rule.check, path, static_cast<int>(i + 1), rule.message});
      }
    }
  }
}

// ------------------------------------------------ unannotated members --

/// Normalizes a buffered member statement: collapses whitespace runs and
/// strips leading access specifiers.
std::string NormalizeStatement(const std::string& stmt) {
  std::string out;
  bool in_space = true;
  for (char c : stmt) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out += ' ';
      in_space = true;
    } else {
      out += c;
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  static const std::regex access_re("^(public|private|protected)\\s*:\\s*");
  for (;;) {
    std::string stripped = std::regex_replace(out, access_re, "");
    if (stripped == out) break;
    out = std::move(stripped);
  }
  return out;
}

struct MemberStatement {
  std::string text;  // normalized
  int first_line = 0;
  bool waived = false;
};

struct ClassScope {
  bool is_class = false;
  std::string name;
  int body_depth = 0;
  bool owns_mutex = false;
  std::vector<MemberStatement> members;
  /// A member declaration interrupted by its own brace initializer
  /// ("Mutex mu_{kEngine}") — restored when this scope closes so the
  /// trailing ';' completes the declaration.
  std::string pending_stmt;
  int pending_line = 0;
  bool pending_waived = false;
};

const std::regex kClassHeadRe(
    R"(\b(class|struct)\s+(IQ_\w+\s*(\([^)]*\))?\s*)?(\w+)[^;{]*$)");
const std::regex kMutexMemberRe(R"(^(mutable )?(iq::)?Mutex\s+\w+)");
const std::regex kLockTypeRe(R"(^(mutable )?(iq::)?(Mutex|CondVar)\b)");
const std::regex kExemptHeadRe(
    R"(^(static|constexpr|using|typedef|friend|enum|class|struct|template)\b)");

/// True when the statement declares something that does not need an
/// IQ_GUARDED_BY: annotated already, atomic, the lock itself, a nested
/// type/alias/constant, or function-shaped.
bool StatementIsExempt(const MemberStatement& m) {
  const std::string& s = m.text;
  if (s.empty() || m.waived) return true;
  if (s.find("IQ_GUARDED_BY") != std::string::npos ||
      s.find("IQ_PT_GUARDED_BY") != std::string::npos) {
    return true;  // IQ_GUARDED_BY_CALLER matches the first find()
  }
  if (s.find("std::atomic") != std::string::npos) return true;
  if (std::regex_search(s, kLockTypeRe)) return true;
  if (std::regex_search(s, kExemptHeadRe)) return true;
  // A '(' outside the annotation macros means a function declaration (or a
  // function-typed member, which this token-level pass cannot tell apart —
  // a documented limitation, see DESIGN.md §10).
  if (s.find('(') != std::string::npos) return true;
  return false;
}

void FlushScope(const std::string& path, const ClassScope& scope,
                std::vector<Finding>* findings) {
  if (!scope.is_class || !scope.owns_mutex) return;
  for (const MemberStatement& m : scope.members) {
    if (StatementIsExempt(m)) continue;
    std::string decl =
        m.text.size() > 64 ? m.text.substr(0, 61) + "..." : m.text;
    findings->push_back(
        {"unguarded-member", path, m.first_line,
         "member '" + decl + "' of Mutex-owning class '" + scope.name +
             "' lacks IQ_GUARDED_BY/IQ_PT_GUARDED_BY (annotate it, make it "
             "atomic, or waive with // " + std::string(kWaiverUnguardedMember) +
             ")"});
  }
}

/// Header-only structural pass: any class/struct that declares a direct
/// iq::Mutex member must annotate (or explicitly waive) every other mutable
/// data member. Works on the sanitized lines with a brace-depth state
/// machine; statements are buffered per class scope and judged when the
/// scope closes, so the Mutex may be declared after the members it guards.
void CheckUnguardedMembers(const std::string& path,
                           const std::vector<std::string>& raw,
                           const std::vector<std::string>& sanitized,
                           std::vector<Finding>* findings) {
  std::vector<ClassScope> stack;
  stack.push_back({});  // file scope
  int depth = 0;
  int paren_depth = 0;  // braces inside parens (default args) aren't scopes
  std::string stmt;
  int stmt_first_line = 0;
  bool stmt_waived = false;

  auto current_is_class_body = [&]() {
    return stack.back().is_class && depth == stack.back().body_depth;
  };
  auto finish_statement = [&]() {
    if (current_is_class_body()) {
      MemberStatement m;
      m.text = NormalizeStatement(stmt);
      m.first_line = stmt_first_line;
      m.waived = stmt_waived;
      if (std::regex_search(m.text, kMutexMemberRe)) {
        stack.back().owns_mutex = true;
      }
      if (!m.text.empty()) stack.back().members.push_back(std::move(m));
    }
    stmt.clear();
    stmt_first_line = 0;
    stmt_waived = false;
  };

  for (size_t li = 0; li < sanitized.size(); ++li) {
    const std::string& line = sanitized[li];
    // Preprocessor directives never contribute member statements.
    size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;
    const bool line_has_waiver =
        raw[li].find(kWaiverUnguardedMember) != std::string::npos;
    for (char c : line) {
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        if (paren_depth > 0) --paren_depth;
      }
      if (paren_depth > 0 || c == '(' || c == ')') {
        if (depth == stack.back().body_depth) stmt += c;
        continue;
      }
      if (c == '{') {
        if (depth == stack.back().body_depth) {
          std::smatch head;
          std::string norm = NormalizeStatement(stmt);
          ClassScope scope;
          scope.body_depth = depth + 1;
          if (std::regex_search(norm, head, kClassHeadRe)) {
            scope.is_class = true;
            scope.name = head[4];
          } else if (norm.find('(') == std::string::npos) {
            // Likely a brace-initialized member ("Mutex mu_{kEngine}"):
            // keep the declaration so the ';' after the initializer
            // completes it. Function definitions (which have parens) are
            // dropped instead.
            scope.pending_stmt = stmt;
            scope.pending_line = stmt_first_line;
            scope.pending_waived = stmt_waived || line_has_waiver;
          }
          stack.push_back(std::move(scope));
          stmt.clear();
          stmt_first_line = 0;
          stmt_waived = false;
        }
        ++depth;
      } else if (c == '}') {
        --depth;
        if (depth < stack.back().body_depth) {
          FlushScope(path, stack.back(), findings);
          ClassScope closed = std::move(stack.back());
          stack.pop_back();
          if (stack.empty()) return;  // unbalanced braces; bail out
          // Text buffered inside the closed scope but never ';'-terminated
          // (enum bodies, for instance) must not leak into the enclosing
          // class as a phantom member.
          stmt.clear();
          stmt_first_line = 0;
          stmt_waived = false;
          if (!closed.pending_stmt.empty() &&
              depth == stack.back().body_depth) {
            stmt = closed.pending_stmt;
            stmt_first_line = closed.pending_line;
            stmt_waived = closed.pending_waived;
          }
        }
      } else if (c == ';' && depth == stack.back().body_depth) {
        if (line_has_waiver) stmt_waived = true;
        finish_statement();
      } else if (depth == stack.back().body_depth) {
        if (!std::isspace(static_cast<unsigned char>(c)) &&
            stmt.find_first_not_of(" \t") == std::string::npos) {
          stmt_first_line = static_cast<int>(li + 1);
        }
        stmt += c;
      }
    }
    if (line_has_waiver && !stmt.empty()) stmt_waived = true;
    if (depth == stack.back().body_depth) stmt += ' ';
  }
}

// --------------------------------------------- ParallelFor reductions --

void CheckParallelForHasChecks(const std::string& path,
                               const std::vector<std::string>& sanitized,
                               std::vector<Finding>* findings) {
  static const std::regex parallel_re(R"(\bParallelFor(OrSerial)?\s*\()");
  static const std::regex check_re(R"(\bIQ_D?CHECK\w*\s*\()");
  int first_parallel_line = 0;
  bool has_check = false;
  for (size_t i = 0; i < sanitized.size(); ++i) {
    if (first_parallel_line == 0 &&
        std::regex_search(sanitized[i], parallel_re)) {
      first_parallel_line = static_cast<int>(i + 1);
    }
    if (std::regex_search(sanitized[i], check_re)) has_check = true;
  }
  if (first_parallel_line != 0 && !has_check) {
    findings->push_back(
        {"parallel-for-check", path, first_parallel_line,
         "file fans work out through ParallelFor but contains no "
         "IQ_CHECK/IQ_DCHECK — parallel reductions must validate their "
         "merged result (see DESIGN.md §10)"});
  }
}

// ------------------------------------------------ unpinned index reads --

/// SubdomainIndex reader methods whose answers are only coherent against a
/// *stable* index version — mixing two epochs across consecutive calls is
/// exactly the bug class the epoch-snapshot layer (DESIGN.md §12) exists to
/// prevent.
const std::regex kIndexReadRe(
    R"((->|\.)\s*(HitCount|HitSet|TopKScan|signature|aug_weights|)"
    R"(num_subdomains|SubdomainOf|CheckInvariants)\s*\()");

/// Evidence that a file's index reads happen against a pinned or otherwise
/// stable version: an EpochHandle pin (IqEngine::Snapshot()), the writer
/// lock, an IQ_REQUIRES(mu_) contract, or the caller-pinned parameter
/// convention — the helper receives `const SubdomainIndex&/*` itself (not an
/// engine), so stability is the caller's documented obligation
/// (evaluator.h, self_check.h).
const std::regex kPinEvidenceRe(
    R"(EpochHandle|\bSnapshot\s*\(|MutexLock|IQ_REQUIRES\s*\(\s*mu_\s*\)|)"
    R"(const SubdomainIndex\s*[&*])");

/// File-level heuristic (same spirit as parallel-for-check): a src/core/
/// reader path that calls SubdomainIndex query methods must show *some*
/// pin/lock evidence, else every read site is flagged. Token-level, so a
/// file mixing pinned and unpinned reads can slip through — the
/// fine-grained guarantee comes from the clang -Wthread-safety annotations
/// and the epoch differential tests; this check catches the structural
/// regression of a new reader path bypassing EpochHandle entirely.
void CheckUnpinnedIndexReads(const std::string& path,
                             const std::vector<std::string>& sanitized,
                             std::vector<Finding>* findings) {
  for (const std::string& line : sanitized) {
    if (std::regex_search(line, kPinEvidenceRe)) return;
  }
  for (size_t i = 0; i < sanitized.size(); ++i) {
    if (std::regex_search(sanitized[i], kIndexReadRe)) {
      findings->push_back(
          {"unpinned-index-read", path, static_cast<int>(i + 1),
           "SubdomainIndex read with no pin evidence in the file — route "
           "reads through a pinned epoch (EpochHandle snap = "
           "engine.Snapshot(); snap.index()...), hold the writer lock, or "
           "take `const SubdomainIndex&` as a caller-pinned parameter "
           "(DESIGN.md §12)"});
    }
  }
}

// --------------------------------------------------- raw scoring loops --

/// A scalar scoring call: geom/vec.h's Dot() or FunctionView::Score().
/// The '(' must follow the name immediately, so batch calls like
/// ScoreAll(...) and identifiers that merely contain "Score" never match.
const std::regex kScalarScoreCallRe(R"(\bDot\s*\(|(->|\.)\s*Score\s*\()");
const std::regex kLoopHeadRe(R"(\b(for|while)\s*\()");

/// src/core/ hot paths must score object/query sets through the ScoreKernel
/// batch calls (ScoreAll/TopKappaSignatures/CountHits), not by calling
/// Dot()/FunctionView::Score() once per element: the per-element form
/// defeats the SoA layout and the vectorizer (DESIGN.md §13). A scalar
/// scoring call inside any for/while loop is flagged unless the line
/// carries the raw-scoring-loop waiver — sanctioned for reference
/// evaluators and for O(κ)-sized reads where building a kernel would cost
/// more than it saves.
///
/// Token-level like the other checks: a brace-depth pass tracks which open
/// braces belong to loop bodies; `pending_loop` covers a loop head whose
/// '{' has not arrived yet and braceless single-statement bodies (cleared
/// by the first top-level ';' after the head's parens close).
void CheckRawScoringLoops(const std::string& path,
                          const std::vector<std::string>& raw,
                          const std::vector<std::string>& sanitized,
                          std::vector<Finding>* findings) {
  std::vector<bool> brace_is_loop;
  int loops_open = 0;
  bool pending_loop = false;
  int paren_depth = 0;
  for (size_t i = 0; i < sanitized.size(); ++i) {
    const std::string& line = sanitized[i];
    if (std::regex_search(line, kLoopHeadRe)) pending_loop = true;
    // The waiver counts on the flagged line or the line directly above it,
    // so long scoring statements can keep the 80-column style.
    const bool waived =
        raw[i].find(kWaiverRawScoringLoop) != std::string::npos ||
        (i > 0 && raw[i - 1].find(kWaiverRawScoringLoop) != std::string::npos);
    if ((loops_open > 0 || pending_loop) &&
        std::regex_search(line, kScalarScoreCallRe) && !waived) {
      findings->push_back(
          {"raw-scoring-loop", path, static_cast<int>(i + 1),
           "scalar Dot()/Score() call inside a loop — score the set through "
           "a ScoreKernel batch call (ScoreAll/TopKappaSignatures/CountHits), "
           "or waive a deliberate scalar path with // " +
               std::string(kWaiverRawScoringLoop)});
    }
    for (char c : line) {
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        if (paren_depth > 0) --paren_depth;
      } else if (c == '{') {
        brace_is_loop.push_back(pending_loop);
        if (pending_loop) ++loops_open;
        pending_loop = false;
      } else if (c == '}') {
        if (!brace_is_loop.empty()) {
          if (brace_is_loop.back()) --loops_open;
          brace_is_loop.pop_back();
        }
      } else if (c == ';' && paren_depth == 0 && pending_loop) {
        pending_loop = false;  // braceless loop body ended
      }
    }
  }
}

}  // namespace

std::string ExpectedHeaderGuard(const std::string& path) {
  std::string rel = path;
  if (StartsWith(rel, "./")) rel = rel.substr(2);
  if (StartsWith(rel, "src/")) rel = rel.substr(4);
  std::string guard = "IQ_";
  for (char c : rel) {
    if (c == '/' || c == '.' || c == '-') {
      guard += '_';
    } else {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

std::vector<Finding> CheckFile(const std::string& path,
                               const std::string& content) {
  std::vector<Finding> findings;
  const std::vector<std::string> raw = SplitLines(content);
  const std::vector<std::string> sanitized = SanitizeLines(raw);

  if (IsHeaderPath(path)) {
    CheckHeaderGuard(path, raw, &findings);
    CheckUnguardedMembers(path, raw, sanitized, &findings);
  }
  CheckBannedPatterns(path, sanitized, &findings);
  if (IsSourcePath(path) && StartsWith(path, "src/") &&
      !StartsWith(path, "src/util/")) {
    CheckParallelForHasChecks(path, sanitized, &findings);
  }
  // The index implementation itself is exempt (its self-calls are the
  // thing being pinned); everything else under src/core/ is a reader path.
  if (IsSourcePath(path) && StartsWith(path, "src/core/") &&
      path != "src/core/subdomain_index.cc") {
    CheckUnpinnedIndexReads(path, sanitized, &findings);
  }
  // The kernel implementation is exempt: its slot-major inner loops ARE the
  // sanctioned scoring loops everything else should be calling.
  if (IsSourcePath(path) && StartsWith(path, "src/core/") &&
      path != "src/core/score_kernel.cc") {
    CheckRawScoringLoops(path, raw, sanitized, &findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.check) < std::tie(b.line, b.check);
            });
  return findings;
}

Result<std::vector<Finding>> LintTree(const std::string& repo_root) {
  const char* kRoots[] = {"src", "tests", "bench", "examples", "tools"};
  std::vector<Finding> findings;
  std::error_code ec;
  for (const char* root : kRoots) {
    fs::path dir = fs::path(repo_root) / root;
    if (!fs::exists(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      fs::path p = it->path();
      std::string rel =
          fs::relative(p, repo_root, ec).generic_string();
      if (ec) return Status::Internal("relative(" + p.string() + ") failed");
      // Fixture corpus: deliberately bad files the self-tests feed through
      // CheckFile; the tree pass must not flag them.
      if (StartsWith(rel, "tests/lint/")) continue;
      if (!IsHeaderPath(rel) && !IsSourcePath(rel)) continue;
      Result<std::string> text = ReadFileToString(p.string());
      if (!text.ok()) return Status::Internal("cannot read " + rel);
      std::vector<Finding> file_findings = CheckFile(rel, *text);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
    }
    if (ec) {
      return Status::Internal("walking " + dir.string() + ": " +
                              ec.message());
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.check) <
                     std::tie(b.file, b.line, b.check);
            });
  return findings;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::string out = "{\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"check\": \"" + JsonEscape(f.check) + "\", \"file\": \"" +
           JsonEscape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"message\": \"" + JsonEscape(f.message) + "\"}";
  }
  if (!findings.empty()) out += "\n  ";
  out += "],\n  \"count\": " + std::to_string(findings.size()) + "\n}\n";
  return out;
}

}  // namespace lint
}  // namespace iq
