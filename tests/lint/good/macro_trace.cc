// Fixture: the sanctioned way to emit spans — macros only, plus read-side
// TraceCollector calls, which the direct-trace ban must leave alone.

#include "obs/trace.h"

namespace iq {

void SanctionedSpans(int target) {
  IQ_TRACE_ROOT_SCOPE(root, "Fixture::Solve", target);
  {
    IQ_TRACE_SCOPE("Fixture::inner");
    IQ_TRACE_SCOPE_ARG("Fixture::inner_arg", target);
    IQ_TRACE_SCOPE_ARG2("Fixture::inner_arg2", target, 42);
  }
  if (target < 0) root.NoteError(Status::InvalidArgument("negative target"));
  // Configuration, scraping and bookkeeping reads are all legal.
  static_cast<void>(TraceCollector::Global().EventCount());
  static_cast<void>(TraceCollector::Global().DroppedCount());
  static_cast<void>(TraceCollector::Global().TracezJson());
}

}  // namespace iq
