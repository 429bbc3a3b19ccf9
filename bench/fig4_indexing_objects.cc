// Figure 4: indexing cost vs the number of objects.
// Paper setup: |D| in {50k,100k,150k,200k}, |Q| = 10k, linear utility
// functions (required by the DominantGraph baseline), results averaged over
// the IN/CO/AC synthetic datasets. Reported: (a) indexing time, (b) index
// size as a percentage of the raw dataset size, for the proposed
// Efficient-IQ index (subdomain grouping + R-tree) vs the Dominant Graph
// (Zou & Chen, ICDE'08).

#include <cstdio>

#include "bench/common/harness.h"
#include "index/dominant_graph.h"
#include "util/timer.h"

namespace iq {
namespace bench {
namespace {

int Run(const BenchOptions& opts) {
  std::printf("== Figure 4: scalability of indexing to the object set size "
              "(scale %.2f) ==\n",
              opts.scale);
  const int m = Scaled(PaperParams::kQueriesDefault, opts.scale);
  const int dim = PaperParams::kDim;

  TablePrinter table({"|D|", "EfficientIQ time (s)", "EfficientIQ size (%)",
                      "DominantGraph time (s)", "DominantGraph size (%)"});
  for (int base_n : PaperParams::kObjectsRange) {
    const int n = Scaled(base_n, opts.scale);
    RunningStats eiq_time, eiq_size, dg_time, dg_size;
    for (SyntheticKind kind :
         {SyntheticKind::kIndependent, SyntheticKind::kCorrelated,
          SyntheticKind::kAntiCorrelated}) {
      for (int rep = 0; rep < opts.repetitions; ++rep) {
        uint64_t seed = opts.seed + static_cast<uint64_t>(rep) * 101 +
                        static_cast<uint64_t>(kind) * 7;
        Workload w = MakeLinearWorkload(kind, n, m, dim, seed);
        eiq_time.Add(w.index->build_seconds());
        eiq_size.Add(100.0 * static_cast<double>(w.index->MemoryBytes()) /
                     static_cast<double>(w.RawDataBytes()));

        std::vector<Vec> rows;
        for (int i = 0; i < w.data->size(); ++i) {
          rows.push_back(w.view->coeffs(i));
        }
        WallTimer timer;
        DominantGraph dg(rows);
        dg_time.Add(timer.ElapsedSeconds());
        dg_size.Add(100.0 * static_cast<double>(dg.MemoryBytes()) /
                    static_cast<double>(w.RawDataBytes()));
      }
    }
    table.AddRow({FmtInt(n), FmtDouble(eiq_time.mean(), 3),
                  FmtDouble(eiq_size.mean(), 1), FmtDouble(dg_time.mean(), 3),
                  FmtDouble(dg_size.mean(), 1)});
  }
  table.Print();
  std::printf("\n(paper shape: both indexing times grow roughly linearly and "
              "stay comparable;\n Efficient-IQ pays a small size overhead "
              "for the query-side index)\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace iq

int main(int argc, char** argv) {
  return iq::bench::Run(iq::bench::ParseArgs(argc, argv));
}
