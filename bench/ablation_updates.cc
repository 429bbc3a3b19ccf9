// Ablation: incremental index maintenance (§4.3) vs full rebuild.
// Measures the per-operation cost of the four update paths — add/remove
// query (kNN candidate subdomains), add/remove object (signature patching;
// a removal scans only when the object sits in some signature) — against
// rebuilding the subdomain index from scratch after every change.

#include <cstdio>

#include "bench/common/harness.h"
#include "util/timer.h"

namespace iq {
namespace bench {
namespace {

int Run(const BenchOptions& opts) {
  std::printf("== Ablation: incremental maintenance vs rebuild "
              "(scale %.2f) ==\n",
              opts.scale);
  const int n = Scaled(PaperParams::kObjectsDefault, opts.scale);
  const int m = Scaled(PaperParams::kQueriesDefault, opts.scale);
  const int dim = PaperParams::kDim;
  const int ops = 50;

  Workload w = MakeLinearWorkload(SyntheticKind::kIndependent, n, m, dim,
                                  opts.seed);
  double rebuild_ms;
  {
    WallTimer timer;
    auto rebuilt = SubdomainIndex::Build(w.view.get(), w.queries.get());
    IQ_CHECK(rebuilt.ok());
    rebuild_ms = timer.ElapsedMillis();
  }

  Rng rng(opts.seed + 1);
  TablePrinter table({"operation", "ops", "avg time (us)",
                      "rebuild equiv (us)", "speedup (x)"});
  auto add_row = [&](const char* name, double total_us, int count) {
    double per = total_us / count;
    table.AddRow({name, FmtInt(count), FmtDouble(per, 1),
                  FmtDouble(rebuild_ms * 1e3, 1),
                  FmtDouble(rebuild_ms * 1e3 / per, 1)});
  };

  // Add queries.
  {
    QueryGenOptions qopts;
    qopts.k_max = 50;
    auto extra = MakeQueries(ops, dim, opts.seed + 2, qopts);
    WallTimer timer;
    for (TopKQuery& q : extra) {
      auto id = w.queries->Add(std::move(q));
      IQ_CHECK(id.ok());
      IQ_CHECK(w.index->OnQueryAdded(*id).ok());
    }
    add_row("add query", timer.ElapsedMicros(), ops);
  }

  // Remove queries.
  {
    WallTimer timer;
    for (int i = 0; i < ops; ++i) {
      int q = m + i;  // the ones just added
      IQ_CHECK(w.queries->Remove(q).ok());
      IQ_CHECK(w.index->OnQueryRemoved(q).ok());
    }
    add_row("remove query", timer.ElapsedMicros(), ops);
  }

  // Add objects (half of them strong, which forces signature patches).
  {
    WallTimer timer;
    for (int i = 0; i < ops; ++i) {
      Vec attrs = i % 2 == 0 ? rng.UniformVector(dim, 0.0, 0.15)
                             : rng.UniformVector(dim, 0.0, 1.0);
      int id = w.data->Add(std::move(attrs));
      w.view->AppendRow(id);
      IQ_CHECK(w.index->OnObjectAdded(id).ok());
    }
    add_row("add object", timer.ElapsedMicros(), ops);
  }

  // Remove objects — signature members are the expensive case.
  {
    std::vector<int> members = w.index->SignatureMembers();
    int count = std::min<int>(20, static_cast<int>(members.size()));
    WallTimer timer;
    for (int i = 0; i < count; ++i) {
      IQ_CHECK(w.data->Remove(members[static_cast<size_t>(i)]).ok());
      IQ_CHECK(w.index->OnObjectRemoved(members[static_cast<size_t>(i)]).ok());
    }
    add_row("remove object (boundary)", timer.ElapsedMicros(), count);
  }

  table.Print();
  std::printf("\n(|D| = %d, |Q| = %d; one full rebuild costs %.1f ms — the "
              "incremental paths of §4.3 amortize it away)\n",
              n, m, rebuild_ms);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace iq

int main(int argc, char** argv) {
  return iq::bench::Run(iq::bench::ParseArgs(argc, argv));
}
