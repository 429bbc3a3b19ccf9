#ifndef IQ_TESTS_TEST_WORLD_H_
#define IQ_TESTS_TEST_WORLD_H_

#include <cmath>
#include <memory>
#include <vector>

#include "core/function_view.h"
#include "core/query.h"
#include "core/subdomain_index.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "topk/topk.h"
#include "util/check.h"

namespace iq {

/// A self-owning (dataset, queries, view, index) bundle for tests.
struct TestWorld {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<QuerySet> queries;
  std::unique_ptr<FunctionView> view;
  std::unique_ptr<SubdomainIndex> index;

  static TestWorld Linear(int n, int m, int dim, uint64_t seed,
                          int k_max = 5) {
    TestWorld w;
    w.data = std::make_unique<Dataset>(MakeIndependent(n, dim, seed));
    w.queries = std::make_unique<QuerySet>(dim);
    QueryGenOptions qopts;
    qopts.k_max = k_max;
    for (TopKQuery& q : MakeQueries(m, dim, seed + 1, qopts)) {
      IQ_CHECK(w.queries->Add(std::move(q)).ok());
    }
    w.view = std::make_unique<FunctionView>(w.data.get(),
                                            LinearForm::Identity(dim));
    auto index = SubdomainIndex::Build(w.view.get(), w.queries.get());
    IQ_CHECK(index.ok());
    w.index = std::make_unique<SubdomainIndex>(std::move(*index));
    return w;
  }

  static TestWorld Polynomial(int n, int m, int dim, int num_terms,
                              uint64_t seed, int k_max = 5) {
    TestWorld w;
    w.data = std::make_unique<Dataset>(MakeIndependent(n, dim, seed));
    auto util = MakePolynomialUtility(dim, num_terms, 3, seed + 2);
    IQ_CHECK(util.ok());
    w.queries = std::make_unique<QuerySet>(util->num_weights);
    QueryGenOptions qopts;
    qopts.k_max = k_max;
    for (TopKQuery& q :
         MakeQueries(m, util->num_weights, seed + 1, qopts)) {
      IQ_CHECK(w.queries->Add(std::move(q)).ok());
    }
    w.view = std::make_unique<FunctionView>(w.data.get(),
                                            std::move(util->form));
    auto index = SubdomainIndex::Build(w.view.get(), w.queries.get());
    IQ_CHECK(index.ok());
    w.index = std::make_unique<SubdomainIndex>(std::move(*index));
    return w;
  }

  void RebuildIndex() {
    auto index = SubdomainIndex::Build(view.get(), queries.get());
    IQ_CHECK(index.ok());
    this->index = std::make_unique<SubdomainIndex>(std::move(*index));
  }
};

/// The scalar reference for EseEvaluator::HitsForCoeffs: one Dot per active
/// query against its threshold, with the shared strict-< hit rule.
inline int ScalarHits(const SubdomainIndex& index,
                      const std::vector<double>& thresholds, const Vec& c) {
  int hits = 0;
  for (int q = 0; q < index.queries().size(); ++q) {
    if (!index.queries().is_active(q)) continue;
    if (HitByThreshold(Dot(c, index.aug_weights(q)),
                       thresholds[static_cast<size_t>(q)])) {
      ++hits;
    }
  }
  return hits;
}

/// The ESE's prefix rule (DESIGN.md §2), computed query by query: how many
/// active queries EseEvaluator::HitsForCoeffs(c) re-tests for `target`. A
/// query's reach is |Dot(c0, w) - t| / ‖w‖₂ (0 when ‖w‖₂² is outside
/// [2^-1000, 2^1000] or the reach is NaN); a call re-tests the queries
/// whose reach is at most ‖c - c0‖₂(1 + 1e-9) + 1e-9(‖c‖₂ + ‖c0‖₂), and
/// every active query outside the bound's range.
inline size_t EseReachPrefix(const SubdomainIndex& index,
                             const std::vector<double>& thresholds,
                             int target, const Vec& c) {
  constexpr double kSlack = 1e-9;
  constexpr double kMin = 0x1p-1000;
  constexpr double kMax = 0x1p1000;
  const Vec& c0 = index.view().coeffs(target);
  double diff_sq = 0.0, c_sq = 0.0, c0_sq = 0.0;
  for (size_t s = 0; s < c.size(); ++s) {
    diff_sq += (c[s] - c0[s]) * (c[s] - c0[s]);
    c_sq += c[s] * c[s];
    c0_sq += c0[s] * c0[s];
  }
  const bool bounded = c0_sq <= kMax && c_sq <= kMax && c_sq + c0_sq >= kMin;
  const double limit = std::sqrt(diff_sq) * (1.0 + kSlack) +
                       kSlack * (std::sqrt(c_sq) + std::sqrt(c0_sq));
  size_t active = 0;
  size_t within = 0;
  for (int q = 0; q < index.queries().size(); ++q) {
    if (!index.queries().is_active(q)) continue;
    ++active;
    const Vec& w = index.aug_weights(q);
    double w_sq = 0.0;
    for (double x : w) w_sq += x * x;
    double reach = 0.0;
    if (w_sq >= kMin && w_sq <= kMax) {
      reach = std::fabs(Dot(c0, w) - thresholds[static_cast<size_t>(q)]) /
              std::sqrt(w_sq);
      if (std::isnan(reach)) reach = 0.0;
    }
    within += limit < reach ? 0 : 1;
  }
  return bounded ? within : active;
}

}  // namespace iq

#endif  // IQ_TESTS_TEST_WORLD_H_
