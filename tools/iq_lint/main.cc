// iq_lint — the repo's lint gate as a real binary (DESIGN.md §10).
//
//   iq_lint --root=.                      # lint the whole tree
//   iq_lint --root=. --json=report.json   # plus a machine-readable report
//   iq_lint src/core/engine.h ...         # lint specific files (paths are
//                                         # taken repo-relative for scoping)
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#include <cstdio>
#include <string>
#include <vector>

#include "tools/iq_lint/lint.h"
#include "util/string_util.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root=DIR] [--json=PATH] [file...]\n"
               "  --root=DIR   repo root to walk (default: .); ignored when\n"
               "               explicit files are given\n"
               "  --json=PATH  also write the findings as JSON to PATH\n"
               "               ('-' = stdout)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "iq_lint: unknown flag '%s'\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  std::vector<iq::lint::Finding> findings;
  if (files.empty()) {
    iq::Result<std::vector<iq::lint::Finding>> result =
        iq::lint::LintTree(root);
    if (!result.ok()) {
      std::fprintf(stderr, "iq_lint: %s\n",
                   result.status().ToString().c_str());
      return 2;
    }
    findings = std::move(result).value();
  } else {
    for (const std::string& file : files) {
      iq::Result<std::string> text = iq::ReadFileToString(file);
      if (!text.ok()) {
        std::fprintf(stderr, "iq_lint: cannot read %s\n", file.c_str());
        return 2;
      }
      // Strip a leading "./" so path-scoped rules (src/util/...) apply the
      // same way they do in tree mode.
      std::string rel =
          file.rfind("./", 0) == 0 ? file.substr(2) : file;
      for (iq::lint::Finding& f : iq::lint::CheckFile(rel, *text)) {
        findings.push_back(std::move(f));
      }
    }
  }

  for (const iq::lint::Finding& f : findings) {
    if (f.line > 0) {
      std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                   f.check.c_str(), f.message.c_str());
    } else {
      std::fprintf(stderr, "%s: [%s] %s\n", f.file.c_str(), f.check.c_str(),
                   f.message.c_str());
    }
  }

  if (!json_path.empty()) {
    std::string json = iq::lint::FindingsToJson(findings);
    if (json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      iq::Status st = iq::WriteStringToFile(json_path, json);
      if (!st.ok()) {
        std::fprintf(stderr, "iq_lint: %s\n", st.ToString().c_str());
        return 2;
      }
    }
  }

  if (!findings.empty()) {
    std::fprintf(stderr, "iq_lint: FAILED (%zu finding(s))\n",
                 findings.size());
    return 1;
  }
  std::fprintf(stderr, "iq_lint: OK\n");
  return 0;
}
