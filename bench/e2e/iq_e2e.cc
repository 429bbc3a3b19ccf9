// The end-to-end benchmark's numbers of record: one workload per process,
// driven through the IqEngine facade only. See README.md.
//
//   iq_e2e --workload=solve_in --seed=1 --seconds=20 [--json=PATH] [--smoke]

#include <cstdio>

#include "bench/e2e/e2e.h"

int main(int argc, char** argv) {
  using namespace iq::e2e;
  iq::Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "iq_e2e: %s\n", args.status().ToString().c_str());
    return 2;
  }
  if (!args->smoke && !IsMeasurableBuild()) {
    std::fprintf(stderr,
                 "iq_e2e: Debug or sanitizer build; its timings are not "
                 "numbers of record (build Release, or pass --smoke)\n");
    return 2;
  }
  Observer untraced;
  iq::Result<RunResult> result = RunWorkload(*args, &untraced);
  if (!result.ok()) {
    std::fprintf(stderr, "iq_e2e: %s\n", result.status().ToString().c_str());
    return 1;
  }
  return Finish("iq_e2e", *args, *result, result->metrics);
}
