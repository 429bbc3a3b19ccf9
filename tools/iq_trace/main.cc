// iq_trace — the span-dump analyzer (DESIGN.md §11). Ingests what
// obs/trace.h writes — a saved /tracez or /profilez scrape, a
// `bench/micro_parallel --scrape-tracez=` or `--profile=` dump, an engine's
// dump-on-error file (EngineOptions::event_dump_path), or a live scrape of
// both endpoints via --scrape= — and reports on what the input
// holds: per retained trace, the critical path through the span tree,
// where the wall clock went (self time by span name) and a verdict; per
// profile window, the serialization report (serial fraction, Amdahl
// projections, lock wait, ParallelFor chunk imbalance) and a verdict.
//
// Usage:
//   iq_trace <dump.json>           read traces / profile windows from a file
//   iq_trace --scrape=PORT         scrape 127.0.0.1:PORT/tracez + /profilez
//   iq_trace --json=OUT <input>    also write the machine report to OUT
//   iq_trace --top=N               rows per ranking (default 5)
//
// All the analysis logic lives in obs/trace_analysis.{h,cc} (testable
// in-process); this binary is argument parsing and I/O.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/exporter.h"
#include "obs/trace_analysis.h"
#include "util/string_util.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scrape=PORT] [--json=OUT] [--top=N] "
               "[dump.json]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string json_out;
  int scrape_port = -1;
  int top_n = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (iq::StrStartsWith(arg, "--scrape=")) {
      auto port = iq::ParseInt(arg.substr(strlen("--scrape=")));
      if (!port.ok() || *port <= 0 || *port > 65535) return Usage(argv[0]);
      scrape_port = static_cast<int>(*port);
    } else if (iq::StrStartsWith(arg, "--json=")) {
      json_out = arg.substr(strlen("--json="));
    } else if (iq::StrStartsWith(arg, "--top=")) {
      auto n = iq::ParseInt(arg.substr(strlen("--top=")));
      if (!n.ok() || *n <= 0) return Usage(argv[0]);
      top_n = static_cast<int>(*n);
    } else if (iq::StrStartsWith(arg, "--")) {
      return Usage(argv[0]);
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (input_path.empty() == (scrape_port < 0)) {
    // Exactly one input source: a file or a scrape.
    return Usage(argv[0]);
  }

  std::string text;
  if (scrape_port > 0) {
    for (const char* path : {"/tracez", "/profilez"}) {
      auto body = iq::HttpGetLocal(scrape_port, path);
      if (!body.ok()) {
        std::fprintf(stderr, "iq_trace: scrape of %s failed: %s\n", path,
                     body.status().message().c_str());
        return 1;
      }
      text += *body;
    }
  } else {
    iq::Result<std::string> file = iq::ReadFileToString(input_path);
    if (!file.ok()) {
      std::fprintf(stderr, "iq_trace: %s\n", file.status().ToString().c_str());
      return 1;
    }
    text = *file;
  }

  const iq::TraceDump dump = iq::ParseTracezDump(text);
  std::fputs(iq::FormatTraceReport(dump, top_n).c_str(), stdout);
  if (!json_out.empty()) {
    iq::Status st = iq::WriteStringToFile(json_out, iq::TraceReportJson(dump));
    if (!st.ok()) {
      std::fprintf(stderr, "iq_trace: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const bool profiled =
      std::any_of(dump.windows.begin(), dump.windows.end(),
                  [](const iq::ParsedProfileWindow& w) { return w.enabled; });
  return dump.traces.empty() && !profiled ? 1 : 0;
}
