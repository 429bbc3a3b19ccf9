// Answer and work fingerprints of every improvement scheme.
//
// Each case solves a fixed set of improvement queries through the engine and
// folds the results into two 64-bit FNV-1a hashes:
//   - the answer hash: strategy bits, cost bits, hits_before, hits_after,
//     reached_goal and iterations — what the caller sees;
//   - the work hash: evaluator_calls and the EvalBreakdown counters (never
//     the times) — how much evaluation the search did to get there.
// The constants below were recorded before the four greedy loops became one,
// so they pin that refactor (and any later one) to the same answers bit for
// bit. A change that prunes work without changing answers updates only work
// hashes. Each case runs at 0 and 2 engine threads against the same
// constants: the parallel layer's determinism contract (DESIGN.md §8).
//
// On a mismatch the failure prints the case's row as it now computes, ready
// to paste into the table once the change in answers or work is intended.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/queries.h"
#include "data/synthetic.h"

namespace iq {
namespace {

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(bool v) { Add(static_cast<uint64_t>(v ? 1 : 0)); }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const Vec& v) {
    Add(static_cast<uint64_t>(v.size()));
    for (double x : v) Add(x);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Hashes {
  Fingerprint answer;
  Fingerprint work;
};

void AddWork(size_t evaluator_calls, const EvalBreakdown& b, Hashes* h) {
  h->work.Add(static_cast<uint64_t>(evaluator_calls));
  h->work.Add(b.iterations);
  h->work.Add(static_cast<uint64_t>(b.candidates_generated));
  h->work.Add(static_cast<uint64_t>(b.candidates_evaluated));
  h->work.Add(static_cast<uint64_t>(b.evaluator_calls));
  h->work.Add(static_cast<uint64_t>(b.queries_rescored));
  h->work.Add(static_cast<uint64_t>(b.queries_reused));
}

void AddResult(const IqResult& r, Hashes* h) {
  h->answer.Add(r.strategy);
  h->answer.Add(r.cost);
  h->answer.Add(r.hits_before);
  h->answer.Add(r.hits_after);
  h->answer.Add(r.reached_goal);
  h->answer.Add(r.iterations);
  AddWork(r.evaluator_calls, r.breakdown, h);
}

void AddMultiResult(const MultiIqResult& r, Hashes* h) {
  h->answer.Add(static_cast<uint64_t>(r.targets.size()));
  for (int t : r.targets) h->answer.Add(t);
  for (const Vec& s : r.strategies) h->answer.Add(s);
  for (double c : r.costs) h->answer.Add(c);
  h->answer.Add(r.total_cost);
  h->answer.Add(r.hits_before);
  h->answer.Add(r.hits_after);
  h->answer.Add(r.reached_goal);
  h->answer.Add(r.iterations);
  AddWork(r.evaluator_calls, r.breakdown, h);
}

struct Recorded {
  uint64_t answer;
  uint64_t work;
};

using Table = std::map<std::string, Recorded>;

/// Compares every computed case against `expected`, naming the row to paste
/// for each case that differs or is missing.
void ExpectMatches(const std::map<std::string, Hashes>& computed,
                   const Table& expected, int threads) {
  EXPECT_EQ(computed.size(), expected.size()) << "threads=" << threads;
  for (const auto& [name, h] : computed) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "{\"%s\", {0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}},",
                  name.c_str(), h.answer.value(), h.work.value());
    auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "unrecorded case at threads=" << threads << ": " << row;
      continue;
    }
    EXPECT_EQ(h.answer.value(), it->second.answer)
        << "answer changed at threads=" << threads << "; now " << row;
    EXPECT_EQ(h.work.value(), it->second.work)
        << "work changed at threads=" << threads << "; now " << row;
  }
}

/// One world: its data, utility and queries, plus the IqOptions every solve
/// on it uses.
struct WorldSpec {
  const char* name;
  int n;
  int m;
  int dim;
  uint64_t seed;
  int poly_terms;  // 0 = the linear (identity) utility
  IqOptions options;
};

Result<IqEngine> MakeEngine(const WorldSpec& spec, int threads) {
  Dataset data = MakeIndependent(spec.n, spec.dim, spec.seed);
  LinearForm form = LinearForm::Identity(spec.dim);
  int num_weights = spec.dim;
  if (spec.poly_terms > 0) {
    auto util =
        MakePolynomialUtility(spec.dim, spec.poly_terms, 3, spec.seed + 2);
    if (!util.ok()) return util.status();
    form = std::move(util->form);
    num_weights = util->num_weights;
  }
  QueryGenOptions qopts;
  qopts.k_max = 5;
  EngineOptions options;
  options.num_threads = threads;
  return IqEngine::Create(std::move(data), std::move(form),
                          MakeQueries(spec.m, num_weights, spec.seed + 1,
                                      qopts),
                          options);
}

/// L1 cost, a box on every attribute, a grid on the first and last, and a
/// candidate evaluation limit: every optional path of the greedy at once.
IqOptions ConstrainedOptions(int dim) {
  IqOptions options;
  options.cost = CostFunction::L1();
  AdjustBox box = AdjustBox::Unbounded(dim);
  for (int j = 0; j < dim; ++j) box.SetRange(j, -0.35, 0.4);
  options.box = box;
  options.granularity = Zeros(dim);
  options.granularity[0] = 0.05;
  options.granularity[static_cast<size_t>(dim - 1)] = 0.02;
  options.candidate_eval_limit = 4;
  return options;
}

std::vector<WorldSpec> GreedyWorlds() {
  return {{"l2", 48, 24, 3, 11, 0, IqOptions{}},
          {"l1_box_grid_limit", 48, 24, 3, 12, 0, ConstrainedOptions(3)},
          {"linearized", 40, 16, 2, 13, 3, IqOptions{}}};
}

constexpr int kTargets[] = {0, 7, 19, 33};

int TauFor(int i, int m) { return 1 + (5 * i) % (m / 2); }
double BetaFor(int i) { return 0.05 + 0.1 * i; }

const Table& GreedySchemeTable() {
  // The Efficient-IQ and RTA-IQ work hashes were re-recorded when the greedy
  // began to evaluate only the candidates that can change its pick
  // (DESIGN.md §2): fewer evaluator calls and rescored queries, the same
  // answers. l2 and l1_box_grid_limit prune by the hit bound, the Min-Cost
  // stop and Max-Hit's hit and budget filters; linearized, where the bound
  // does not apply, by the stop and the filters alone. Greedy and Random
  // evaluate no candidates, so their hashes did not move.
  //
  // The l2 work hashes of Efficient-IQ, RTA-IQ and Greedy were re-recorded
  // again when the greedy began to generate candidates best-first (DESIGN.md
  // §2): candidates_generated counts only the candidates solved before an
  // iteration stops, so it fell; every evaluation counter is unchanged.
  // l1_box_grid_limit sets candidate_eval_limit and linearized has no bound,
  // so both still solve every candidate and kept their hashes. Then the
  // Greedy baseline, to which the limit's subset does not apply, began to
  // generate best-first under the limit too: the l1_box_grid_limit Greedy
  // work hashes were re-recorded for candidates_generated alone.
  //
  // The work hashes of every ESE-evaluated key (Efficient-IQ, Greedy and
  // Random, all three worlds) were re-recorded when the ESE began to
  // re-test only the queries within reach of each step (DESIGN.md §2):
  // queries_rescored falls and queries_reused, 0 before, takes the rest.
  // Every other counter and every answer hash is unchanged, and the RTA-IQ
  // keys, whose evaluator still re-tests every query, kept theirs.
  static const Table table = {
      {"l1_box_grid_limit/Efficient-IQ/max_hit",
       {0x61d5732f9f1c34efULL, 0x3926888d4a529906ULL}},
      {"l1_box_grid_limit/Efficient-IQ/min_cost",
       {0x188b5cede8e3a997ULL, 0xc3edd870bd7c19cdULL}},
      {"l1_box_grid_limit/Greedy/max_hit",
       {0xd03a5b8687156e12ULL, 0x59472772d5c6079cULL}},
      {"l1_box_grid_limit/Greedy/min_cost",
       {0xaedff017bd513333ULL, 0x8c9d60912be1d648ULL}},
      {"l1_box_grid_limit/RTA-IQ/max_hit",
       {0x61d5732f9f1c34efULL, 0x2e1f1c907ce83ab4ULL}},
      {"l1_box_grid_limit/RTA-IQ/min_cost",
       {0x188b5cede8e3a997ULL, 0xabcea17b004ba62cULL}},
      {"l1_box_grid_limit/Random/max_hit",
       {0x1331391fe626840dULL, 0x4ddb9afc70e72b3aULL}},
      {"l1_box_grid_limit/Random/min_cost",
       {0x7170d71d5365a264ULL, 0x424d5a8aa6f37510ULL}},
      {"l2/Efficient-IQ/max_hit",
       {0xfea18d82137837d3ULL, 0x1f28d58ae58c7d82ULL}},
      {"l2/Efficient-IQ/min_cost",
       {0x8a738b8e84800c79ULL, 0xc9bec0e1e3d6c413ULL}},
      {"l2/Greedy/max_hit",
       {0xfea18d82137837d3ULL, 0xa44f63ba1ef0914fULL}},
      {"l2/Greedy/min_cost",
       {0x82e890b0faf627b2ULL, 0x405b4df31792e995ULL}},
      {"l2/RTA-IQ/max_hit",
       {0xfea18d82137837d3ULL, 0x4ff860c5942b3d02ULL}},
      {"l2/RTA-IQ/min_cost",
       {0x8a738b8e84800c79ULL, 0x4dd0254e7eea8575ULL}},
      {"l2/Random/max_hit",
       {0xc641cadb6a76a3e1ULL, 0x85956ca37caa6365ULL}},
      {"l2/Random/min_cost",
       {0x1b758a27d8c856f2ULL, 0x336a29793fee8675ULL}},
      {"linearized/Efficient-IQ/max_hit",
       {0x207ae4ccd8024d76ULL, 0x46d5237696c10ce4ULL}},
      {"linearized/Efficient-IQ/min_cost",
       {0x267bded11f655e54ULL, 0x25c560526650f709ULL}},
      {"linearized/Greedy/max_hit",
       {0x207ae4ccd8024d76ULL, 0x2ec525895e5304e5ULL}},
      {"linearized/Greedy/min_cost",
       {0x497e8f26d4eb5c46ULL, 0x7fc430f51c5f2024ULL}},
      {"linearized/RTA-IQ/max_hit",
       {0x207ae4ccd8024d76ULL, 0x40ae516742b6f09aULL}},
      {"linearized/RTA-IQ/min_cost",
       {0x267bded11f655e54ULL, 0x013206ea992d44e9ULL}},
      {"linearized/Random/max_hit",
       {0x4fa27ecd89465195ULL, 0xfc790c39e3156bf1ULL}},
      {"linearized/Random/min_cost",
       {0x3bd3c71882ba2d52ULL, 0x8f3016cca3125442ULL}},
  };
  return table;
}

const Table& ExhaustiveTable() {
  static const Table table = {
      {"tiny_l1_box/Exhaustive/max_hit",
       {0x64e6bb3b1bda3826ULL, 0x35da762063936645ULL}},
      // Re-recorded when the L1 optimum became an exact vertex enumeration
      // (it was a penalty solve).
      {"tiny_l1_box/Exhaustive/min_cost",
       {0xd6b2393ae757df06ULL, 0x35da762063936645ULL}},
      {"tiny_l2/Exhaustive/max_hit",
       {0x4f52572438dfcb17ULL, 0x35da762063936645ULL}},
      {"tiny_l2/Exhaustive/min_cost",
       {0x84e65feb952a1cd9ULL, 0x35da762063936645ULL}},
  };
  return table;
}

const Table& CombinatorialTable() {
  // The work hashes were re-recorded when SearchCall began to stamp
  // MultiIqResult with the targets' summed evaluator counters. Until then
  // the result carried none, and every work hash here was the empty hash
  // 0xcbf29ce484222325; the answer hashes did not move.
  static const Table table = {
      // Re-recorded when the §5.1 searches moved onto the one greedy loop,
      // which honours the grid and the candidate evaluation limit (the old
      // loop ignored both; with both off the old values 0xff2e50e52db9ad6a
      // and 0xc81c90d5f1f48a7d come back). Every work hash but
      // l2/Combinatorial/min_cost's was re-recorded again when the greedy
      // began to skip the candidates that cannot change its pick (DESIGN.md
      // §2); that search skipped none. l2/Combinatorial/max_hit's was
      // re-recorded once more when candidates became best-first: fewer
      // candidates solved, the same evaluations. l2/Combinatorial/min_cost
      // still solves all of its candidates.
      {"l1_box_grid_limit/Combinatorial/max_hit",
       {0x0d6cb4f15e1615e2ULL, 0x7cba4d81b060c110ULL}},
      {"l1_box_grid_limit/Combinatorial/min_cost",
       {0xdd49d6f071d23dfaULL, 0x222c58e99294df2fULL}},
      {"l2/Combinatorial/max_hit",
       {0x3958c064fe2d4311ULL, 0x844bc7d1492b417aULL}},
      {"l2/Combinatorial/min_cost",
       {0x0657f7d993b553d2ULL, 0x8ac123d6f7dce585ULL}},
      // Both linearized searches run one iteration over the same 32
      // candidates (16 queries x 2 targets). They shared one work hash
      // until Min-Cost's stop rule and Max-Hit's filters cut their
      // evaluations apart.
      {"linearized/Combinatorial/max_hit",
       {0x029ca7ceba580473ULL, 0x15489289fe08c0e4ULL}},
      {"linearized/Combinatorial/min_cost",
       {0x434a10141c2c4040ULL, 0x74f78ec58884c66cULL}},
  };
  return table;
}

TEST(SchemeFingerprintTest, GreedyAndRandomSchemesMatchRecordedHashes) {
  const IqScheme schemes[] = {IqScheme::kEfficient, IqScheme::kRta,
                              IqScheme::kGreedy, IqScheme::kRandom};
  for (int threads : {0, 2}) {
    std::map<std::string, Hashes> computed;
    for (const WorldSpec& spec : GreedyWorlds()) {
      auto engine = MakeEngine(spec, threads);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      for (IqScheme scheme : schemes) {
        const std::string prefix =
            std::string(spec.name) + "/" + IqSchemeName(scheme);
        Hashes& min_cost = computed[prefix + "/min_cost"];
        Hashes& max_hit = computed[prefix + "/max_hit"];
        for (int i = 0; i < 4; ++i) {
          const int target = kTargets[i];
          auto mc = engine->MinCost(target, TauFor(i, spec.m), spec.options,
                                    scheme);
          ASSERT_TRUE(mc.ok()) << prefix << ": " << mc.status().ToString();
          AddResult(*mc, &min_cost);
          auto mh = engine->MaxHit(target, BetaFor(i), spec.options, scheme);
          ASSERT_TRUE(mh.ok()) << prefix << ": " << mh.status().ToString();
          AddResult(*mh, &max_hit);
        }
      }
    }
    ExpectMatches(computed, GreedySchemeTable(), threads);
  }
}

TEST(SchemeFingerprintTest, ExhaustiveMatchesRecordedHashes) {
  const WorldSpec tiny[] = {{"tiny_l2", 12, 6, 2, 21, 0, IqOptions{}},
                            {"tiny_l1_box", 12, 6, 2, 22, 0, [] {
                               IqOptions options;
                               options.cost = CostFunction::L1();
                               AdjustBox box = AdjustBox::Unbounded(2);
                               box.SetRange(0, -0.6, 0.6);
                               box.SetRange(1, -0.5, 0.7);
                               options.box = box;
                               return options;
                             }()}};
  for (int threads : {0, 2}) {
    std::map<std::string, Hashes> computed;
    for (const WorldSpec& spec : tiny) {
      auto engine = MakeEngine(spec, threads);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      const std::string prefix = std::string(spec.name) + "/Exhaustive";
      Hashes& min_cost = computed[prefix + "/min_cost"];
      Hashes& max_hit = computed[prefix + "/max_hit"];
      for (int i = 0; i < 3; ++i) {
        const int target = 1 + 4 * i;
        auto mc = engine->MinCost(target, 1 + i, spec.options,
                                  IqScheme::kExhaustive);
        ASSERT_TRUE(mc.ok()) << prefix << ": " << mc.status().ToString();
        AddResult(*mc, &min_cost);
        auto mh = engine->MaxHit(target, BetaFor(i), spec.options,
                                 IqScheme::kExhaustive);
        ASSERT_TRUE(mh.ok()) << prefix << ": " << mh.status().ToString();
        AddResult(*mh, &max_hit);
      }
    }
    ExpectMatches(computed, ExhaustiveTable(), threads);
  }
}

TEST(SchemeFingerprintTest, CombinatorialMatchesRecordedHashes) {
  for (int threads : {0, 2}) {
    std::map<std::string, Hashes> computed;
    for (const WorldSpec& spec : GreedyWorlds()) {
      auto engine = MakeEngine(spec, threads);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      const std::string prefix = std::string(spec.name) + "/Combinatorial";
      const std::vector<int> targets = {kTargets[1], kTargets[2]};
      auto mc = engine->MultiMinCost(targets, spec.m / 2, {spec.options});
      ASSERT_TRUE(mc.ok()) << prefix << ": " << mc.status().ToString();
      AddMultiResult(*mc, &computed[prefix + "/min_cost"]);
      auto mh = engine->MultiMaxHit(targets, 0.3, {spec.options});
      ASSERT_TRUE(mh.ok()) << prefix << ": " << mh.status().ToString();
      AddMultiResult(*mh, &computed[prefix + "/max_hit"]);
    }
    ExpectMatches(computed, CombinatorialTable(), threads);
  }
}

}  // namespace
}  // namespace iq
