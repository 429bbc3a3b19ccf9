#include "core/iq_algorithms.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "core/combinatorial.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topk/topk.h"
#include "util/bucket_order.h"
#include "util/check.h"
#include "util/random.h"
#include "util/timer.h"

namespace iq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

AdjustBox EffectiveBox(const IqOptions& options, int dim) {
  return options.box.has_value() ? *options.box : AdjustBox::Unbounded(dim);
}

/// Sets *step to the bounds on the *step* when `s_total` has already been
/// applied and `total_box` constrains the cumulative strategy. `step` has
/// total_box's dimension.
void SetStepBox(const AdjustBox& total_box, const Vec& s_total,
                AdjustBox* step) {
  for (int j = 0; j < step->dim(); ++j) {
    double lo = total_box.lower()[static_cast<size_t>(j)] -
                s_total[static_cast<size_t>(j)];
    double hi = total_box.upper()[static_cast<size_t>(j)] -
                s_total[static_cast<size_t>(j)];
    step->SetRange(j, lo, hi);  // lo <= 0 <= hi because s_total is in the box
  }
}

/// Cached pointers into the global registry; all increments are lock-free.
struct SearchMetrics {
  Counter* iterations;            // greedy iterations across all IQ calls
  Counter* candidates_generated;  // cost-solver solutions produced
  Counter* candidates_evaluated;  // candidates whose H was computed
  Counter* rows_scanned;          // query rows scored by the round passes
  Histogram* solver_nanos;        // per-iteration candidate-solver time
  Histogram* eval_nanos;          // per-iteration H-evaluation time

  static SearchMetrics& Get() {
    static SearchMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      SearchMetrics sm;
      sm.iterations = reg.GetCounter("iq.search.iterations");
      sm.candidates_generated =
          reg.GetCounter("iq.search.candidates_generated");
      sm.candidates_evaluated =
          reg.GetCounter("iq.search.candidates_evaluated");
      sm.rows_scanned = reg.GetCounter("iq.search.rows_scanned");
      sm.solver_nanos = reg.GetHistogram("iq.search.solver_nanos");
      sm.eval_nanos = reg.GetHistogram("iq.search.eval_nanos");
      return sm;
    }();
    return m;
  }
};

}  // namespace

Result<IqContext> IqContext::FromIndex(const SubdomainIndex* index,
                                       int target) {
  // The context caches raw pointers into the index's view/queries: callers
  // must keep them stable for the context's lifetime. Engine solves do so
  // by pinning the owning epoch (IqEngine::Snapshot(), DESIGN.md §12) for
  // the whole solve; standalone callers own the index outright.
  if (index == nullptr) return Status::InvalidArgument("null index");
  const Dataset& data = index->view().dataset();
  if (target < 0 || target >= data.size() || !data.is_active(target)) {
    return Status::InvalidArgument("target is not an active object");
  }
  IqContext ctx;
  ctx.view_ = &index->view();
  ctx.queries_ = &index->queries();
  ctx.target_ = target;
  ctx.thresholds_ = index->HitThresholds(target);
  ctx.aug_w_ = index->aug_weight_rows();
  ctx.query_kernel_ = index->query_kernel();
  return ctx;
}

Result<IqContext> IqContext::FromView(const FunctionView* view,
                                      const QuerySet* queries, int target) {
  if (view == nullptr || queries == nullptr) {
    return Status::InvalidArgument("null view/queries");
  }
  const Dataset& data = view->dataset();
  if (target < 0 || target >= data.size() || !data.is_active(target)) {
    return Status::InvalidArgument("target is not an active object");
  }
  IqContext ctx;
  ctx.view_ = view;
  ctx.queries_ = queries;
  ctx.target_ = target;
  ctx.thresholds_.assign(static_cast<size_t>(queries->size()),
                         std::numeric_limits<double>::quiet_NaN());
  std::vector<Vec> aug_w(static_cast<size_t>(queries->size()));
  for (int q = 0; q < queries->size(); ++q) {
    if (!queries->is_active(q)) continue;
    Vec w = view->form().AugmentWeights(queries->query(q).weights);
    ctx.thresholds_[static_cast<size_t>(q)] =
        KthBestScore(view->rows(), &data.active_mask(), w,
                     queries->query(q).k, target);
    aug_w[static_cast<size_t>(q)] = std::move(w);
  }
  ctx.aug_w_ = CowChunks<Vec>(std::move(aug_w));
  // Inactive slots hold an empty weight vector, which Build skips.
  ctx.query_kernel_ =
      ScoreKernel::Build(ctx.aug_w_, nullptr, view->num_slots());
  return ctx;
}

bool IqContext::HitBy(int q, const Vec& c) const {
  return HitByThreshold(Dot(c, aug_w_[static_cast<size_t>(q)]),
                        thresholds_[static_cast<size_t>(q)]);
}

Result<HitSolution> IqContext::SolveCandidate(int q, const Vec& p_cur,
                                              const Vec& s_total,
                                              const IqOptions& options) const {
  const AdjustBox total_box = EffectiveBox(options, view_->dataset().dim());
  AdjustBox step_box = total_box;
  SetStepBox(total_box, s_total, &step_box);
  return SolveCandidate(q, p_cur, step_box, options.cost);
}

Result<HitSolution> IqContext::SolveCandidate(int q, const Vec& p_cur,
                                              const AdjustBox& step_box,
                                              const CostFunction& cost) const {
  const double t = thresholds_[static_cast<size_t>(q)];
  if (std::isnan(t)) return Status::InvalidArgument("inactive query");
  const Vec& w = aug_w_[static_cast<size_t>(q)];
  const double margin = kHitMargin * (1.0 + std::fabs(t));
  const double goal = t - margin;  // need score(p_cur + step) <= goal
  const int dim = view_->dataset().dim();

  if (view_->IsIdentityForm()) {
    // score = w.(p_cur + step): single linear constraint w.step <= r.
    double r = goal - Dot(w, p_cur);
    return MinCostForHalfspace(w, r, cost, step_box);
  }

  // Non-linear utility: sequential linearization around the moving point.
  const LinearForm& form = view_->form();
  auto score_at = [&](const Vec& step) {
    return Dot(form.Coefficients(Add(p_cur, step)), w);
  };
  Vec step = Zeros(dim);
  if (score_at(step) <= goal) {
    return HitSolution{step, cost.Cost(step)};
  }
  for (int it = 0; it < 16; ++it) {
    Vec x = Add(p_cur, step);
    // Gradient of score w.r.t. attributes — w here already carries the bias
    // slot, which ScoreGradient expects split off; use the augmented form.
    Vec grad = Zeros(dim);
    for (int slot = 0; slot < form.num_slots(); ++slot) {
      double ws = w[static_cast<size_t>(slot)];
      if (ws == 0.0) continue;
      for (const Monomial& mono : form.slot(slot)) {
        mono.AccumulateGradient(x, ws, &grad);
      }
    }
    double c_val = score_at(step) - goal;
    // Linearized constraint on the full step vector s:
    //   c(x) + grad.(s - step) <= 0   =>   grad.s <= grad.step - c(x).
    double rhs = Dot(grad, step) - c_val;  // iq-lint: allow(raw-scoring-loop)
    auto lin = MinCostForHalfspace(grad, rhs, cost, step_box);
    if (!lin.ok()) break;
    if (ApproxEqual(lin->s, step, 1e-12)) break;
    // Damped acceptance: the constraint is not convex in general, so a full
    // linearized jump can overshoot (e.g. past the vertex of an even power).
    // Backtrack toward the current iterate until the violation decreases.
    Vec next = lin->s;
    double damp = 1.0;
    for (int bt = 0; bt < 6; ++bt) {
      double v = score_at(next) - goal;
      if (v <= 0 || v < c_val - 1e-15) break;
      damp *= 0.5;
      next = Add(step, Scale(Sub(lin->s, step), damp));
    }
    step = std::move(next);
    if (score_at(step) <= goal) {
      return HitSolution{step, cost.Cost(step)};
    }
  }
  return Status::FailedPrecondition(
      "sequential linearization found no feasible step");
}

namespace {

/// Relative slack of the hit bound (CandidateQueue). It compares a query's
/// distance d_j with a step's norm; both come from rounded scores and costs
/// whose errors are a few ulps of the magnitudes involved (DESIGN.md §2).
/// The slack only ever counts more queries as reachable, lowers the bounds
/// on step costs, and makes the budget stop later.
constexpr double kBoundSlack = 1e-9;

/// Track t's evaluator in a §5.1 search, where a query counts once however
/// many targets hit it: the queries another track hits, plus one CountHits
/// pass over t's dense thresholds with those queries masked to NaN (a NaN
/// threshold never hits). CountHits is bit-identical to HitBy (DESIGN.md
/// §13.2), so this is a scalar union recount. Round::Scan rewrites the mask
/// once per round, before any evaluation. A call rescores every row of the
/// kernel: the mask moves every round, so EseEvaluator's reach layout,
/// built once per solve, does not apply.
struct UnionEvaluator final : StrategyEvaluator {
  explicit UnionEvaluator(const ScoreKernel* k)
      : kernel(k), masked(static_cast<size_t>(k->num_rows())) {}
  int HitsForCoeffs(const Vec& c) override {
    ++calls_;
    queries_rescored_ += masked.size();
    return others + kernel->CountHits(c, masked);
  }
  int base_hits() const override { return union_hits; }
  const char* name() const override { return "Union"; }

  const ScoreKernel* kernel;
  std::vector<double> masked;  // in kernel (dense) order
  int others = 0;              // queries another track hits
  int union_hits = 0;          // at the last Round::Scan
};

/// ‖w‖_*, the dual of the cost's norm, so |w·s| <= ‖w‖_*·‖s‖ (Hölder).
/// Quadratic is the WeightedL2 norm squared. A WeightedL1 axis with unit
/// cost 0 is free: ∞ unless w ignores that axis.
double DualNorm(const CostFunction& cost, const Vec& w) {
  IQ_DCHECK(cost.kind() != CostFunction::Kind::kCustom);
  const Vec& units = cost.unit_costs();
  double acc = 0.0;
  switch (cost.kind()) {
    case CostFunction::Kind::kL1:
      for (double x : w) acc = std::max(acc, std::fabs(x));
      return acc;
    case CostFunction::Kind::kWeightedL1:
      for (size_t i = 0; i < w.size(); ++i) {
        if (w[i] == 0.0) continue;
        if (units[i] == 0.0) return kInf;
        acc = std::max(acc, std::fabs(w[i]) / units[i]);
      }
      return acc;
    case CostFunction::Kind::kL2:
      return NormL2(w);
    default:  // WeightedL2 and Quadratic
      for (size_t i = 0; i < w.size(); ++i) acc += w[i] * w[i] / units[i];
      return std::sqrt(acc);
  }
}

/// ‖s‖ for a step that costs `cost` under a built-in cost.
double NormOfCost(const CostFunction& cost, double value) {
  return cost.kind() == CostFunction::Kind::kQuadratic ? std::sqrt(value)
                                                       : value;
}

/// One target of a greedy search: its context, evaluator and per-target
/// options (cost, box, granularity), and where the search has moved it.
/// A single-target search runs one track with the caller's evaluator; a
/// §5.1 search runs one per target, each with a UnionEvaluator.
struct Track {
  Track(const IqContext& context, StrategyEvaluator* eval,
        const IqOptions& opts)
      : ctx(&context),
        evaluator(eval),
        options(&opts),
        s_total(Zeros(context.view().dataset().dim())),
        p_cur(context.view().dataset().attrs(context.target())),
        c_cur(context.view().coeffs(context.target())),
        spent(opts.cost.Cost(s_total)) {
    // The hit bound needs a built-in cost, which is a norm (Quadratic: a
    // squared norm), and the identity form, where a step s moves query j's
    // score by exactly w_j·s.
    const bool bounded = opts.cost.kind() != CostFunction::Kind::kCustom &&
                         context.view().IsIdentityForm();
    for (const auto& block : context.query_kernel().blocks()) {
      for (int q : block->ids) {
        thresholds.push_back(context.thresholds()[static_cast<size_t>(q)]);
        if (bounded) {
          dual_norms.push_back(DualNorm(opts.cost, context.aug_w(q)));
        }
      }
    }
  }

  const IqContext* ctx;
  StrategyEvaluator* evaluator;
  const IqOptions* options;
  Vec s_total;
  Vec p_cur;
  Vec c_cur;
  double spent;                      // options->cost.Cost(s_total)
  UnionEvaluator* unions = nullptr;  // == evaluator in a §5.1 search
  std::vector<double> thresholds;    // t_j per dense row of the query kernel
  std::vector<double> dual_norms;    // ‖w_j‖_* per dense row; empty: no bound
};

double TotalSpent(std::span<const Track> tracks) {
  double total = 0.0;
  for (const Track& t : tracks) total += t.spent;
  return total;
}

/// One round's hit state. One ScoreKernel::ScoreAll pass per track scores
/// every active query under the track's c_cur, bit-identical to HitBy
/// (DESIGN.md §13.2). From it come the pending queries (active, hit by no
/// track) and, in a §5.1 search, every union evaluator's mask. The round
/// stays fresh until a track moves.
struct Round {
  explicit Round(std::span<const Track> tracks)
      : ids(tracks[0].ctx->query_kernel().ids()), scores(tracks.size()) {}

  /// Runs the passes, timed as candidate solving, and counts active rows x
  /// tracks in iq.search.rows_scanned.
  void Scan(std::span<const Track> tracks, EvalBreakdown* bd) {
    WallTimer timer;
    const ScoreKernel& kernel = tracks[0].ctx->query_kernel();
    for (size_t t = 0; t < tracks.size(); ++t) {
      kernel.ScoreAll(tracks[t].c_cur, &scores[t]);
    }
    const bool multi = tracks[0].unions != nullptr;
    if (multi) {
      for (const Track& t : tracks) t.unions->others = 0;
    }
    pending.clear();
    for (size_t d = 0; d < ids.size(); ++d) {
      int hitters = 0;
      size_t hitter = 0;
      for (size_t t = 0; t < tracks.size(); ++t) {
        if (HitByThreshold(scores[t][d], tracks[t].thresholds[d])) {
          ++hitters;
          hitter = t;
        }
      }
      if (hitters == 0) pending.push_back(d);
      if (!multi) continue;
      for (size_t t = 0; t < tracks.size(); ++t) {
        // Another track hits the query unless t is its only hitter.
        const bool other = hitters > 1 || (hitters == 1 && hitter != t);
        tracks[t].unions->masked[d] =
            other ? std::numeric_limits<double>::quiet_NaN()
                  : tracks[t].thresholds[d];
        tracks[t].unions->others += other ? 1 : 0;
      }
    }
    hits = static_cast<int>(ids.size() - pending.size());
    if (multi) {
      for (const Track& t : tracks) t.unions->union_hits = hits;
    }
    fresh = true;
    SearchMetrics::Get().rows_scanned->Increment(ids.size() * tracks.size());
    bd->solver_seconds += timer.ElapsedSeconds();
  }

  std::vector<int> ids;                     // query id per dense row
  std::vector<std::vector<double>> scores;  // per track, per dense row
  std::vector<size_t> pending;              // dense rows, ascending id
  int hits = 0;                             // rows hit by some track
  bool fresh = false;
};

/// One candidate: the step that makes a track hit query q, plus its
/// evaluation.
struct Candidate {
  int q = -1;
  int track = 0;
  /// The pick's tie order: the (pending query, track) slot, or the place in
  /// the candidate_eval_limit subset.
  uint32_t pos = 0;
  Vec step;
  double step_cost = 0.0;
  int hits = 0;  // H(p_cur + step) under the track's evaluator
};

/// H for the improved coefficients `c`, timed as evaluation.
int TimedHits(StrategyEvaluator* evaluator, const Vec& c, EvalBreakdown* bd) {
  WallTimer eval_timer;
  const int hits = evaluator->HitsForCoeffs(c);
  bd->eval_seconds += eval_timer.ElapsedSeconds();
  return hits;
}

double Ratio(double cost, int hits) {
  return cost / static_cast<double>(std::max(1, hits));
}
double Ratio(const Candidate& c) { return Ratio(c.step_cost, c.hits); }

/// What a search is for. The goal sets the stop rule, the default iteration
/// cap, the budget filter and the cost cap of the granularity snap.
struct Goal {
  bool min_cost = true;
  int tau = 0;         // Min-Cost: hits to reach
  double beta = kInf;  // Max-Hit: budget on the targets' total cost

  static Result<Goal> MinCost(int tau) {
    if (tau < 1) return Status::InvalidArgument("tau must be >= 1");
    return Goal{true, tau, kInf};
  }
  static Result<Goal> MaxHit(double beta) {
    // NaN fails this test too; +inf is an unbounded budget.
    if (!(beta >= 0)) return Status::InvalidArgument("budget must be >= 0");
    return Goal{false, 0, beta};
  }

  /// Min-Cost stops once tau queries are hit; Max-Hit runs until no step
  /// fits the budget.
  bool Reached(int hits) const { return min_cost && hits >= tau; }
  /// IqResult::reached_goal: Max-Hit always meets its goal (the budget).
  bool Met(int hits) const { return !min_cost || hits >= tau; }
  int DefaultIterations(int num_queries) const {
    return min_cost ? 4 * tau + 16 : num_queries + 16;
  }
};

/// How a greedy iteration picks its step.
enum class PickRule {
  /// Algorithms 3 and 4: evaluate the candidates, take the best
  /// cost-per-hit ratio.
  kBestRatio,
  /// The Greedy baseline (§6.1): take the cheapest step, ignoring the
  /// ratio; only the step taken is evaluated.
  kCheapest,
};

/// The candidates of one greedy iteration, generated best-first (DESIGN.md
/// §2). Start makes one entry per (pending query, track) pair: a lower bound
/// on its candidate's step cost and its slot in (query, track) order. Under
/// a built-in cost and the identity form, with no candidate_eval_limit
/// subset to choose, the bound is the hit bound's d_j (below) in cost units;
/// elsewhere it is -inf. The -inf entries are solved up front, in slot
/// order; the rest, ordered by (bound, d_j, slot) one bucket at a time, are
/// solved one at a time, when Next reaches them. All solving runs on the
/// calling thread. Next releases a solved candidate only when its cost is
/// strictly below the next unsolved bound, so
/// candidates come out in ascending (step cost, position) order, exactly as
/// if all were solved and sorted, and a visit loop that stops early also
/// stops the solving. Under a custom cost nothing is pruned: every entry is
/// -inf and candidates come out in position order.
///
/// The hit bound: a step s moves pending query j's score by w_j·s, and
/// |w_j·s| <= ‖w_j‖_*·‖s‖, so the step can hit j only if ‖s‖ >= d_j =
/// (score_j - t_j)/‖w_j‖_*. Queries the step makes the target lose only
/// lower its count, so it gets at most U = H_cur + #{pending j : d_j <=
/// ‖s‖} hits, with kBoundSlack widening the comparison past every rounding
/// error. In a §5.1 search H_cur and the pending set are the union's and
/// d_j is the candidate's track's. A track without the bound gets U = every
/// active query. The candidate for j hits j, so ‖s‖ >= d_j less the slack:
/// that is its entry's bound.
class CandidateQueue {
 public:
  /// `options` gives candidate_eval_limit, whose subset applies only when
  /// the pick rule `evaluates` candidates.
  CandidateQueue(std::span<const Track> tracks, const IqOptions& options,
                 bool evaluates)
      : limit_(options.candidate_eval_limit),
        evaluates_(evaluates),
        prune_(std::none_of(tracks.begin(), tracks.end(),
                            [](const Track& t) {
                              return t.options->cost.kind() ==
                                     CostFunction::Kind::kCustom;
                            })) {
    for (const Track& track : tracks) {
      const int dim = track.ctx->view().dataset().dim();
      PerTrack& pt = tracks_.emplace_back();
      pt.box = EffectiveBox(*track.options, dim);
      pt.step_box = pt.box;
      pt.after = Zeros(dim);
    }
  }

  bool prune() const { return prune_; }

  /// Starts an iteration over `round`'s pending queries: builds the
  /// entries, puts the -inf ones first in slot order and buckets the rest
  /// by bound (BucketOrder, each bucket sorted when Next reaches it), and
  /// solves the -inf prefix. A ratio pick under a set candidate_eval_limit
  /// solves every candidate, as the subset is chosen from all of them, so
  /// every entry is -inf; the cheapest pick keeps its bounds, since the
  /// subset does not apply to it.
  void Start(std::span<const Track> tracks, const Round& round) {
    IQ_TRACE_SCOPE_ARG("CandidateQueue::Start", tracks[0].ctx->target());
    WallTimer timer;
    const size_t num_tracks = tracks.size();
    const size_t n = round.pending.size() * num_tracks;
    hits_ = round.hits;
    active_ = static_cast<int>(round.ids.size());
    for (size_t t = 0; t < num_tracks; ++t) {
      const Track& track = tracks[t];
      PerTrack& pt = tracks_[t];
      SetStepBox(pt.box, track.s_total, &pt.step_box);
      pt.cost = &track.options->cost;
      const double p_norm =
          prune_ ? NormOfCost(*pt.cost, pt.cost->Cost(track.p_cur)) : kInf;
      pt.bounded = !track.dual_norms.empty() && std::isfinite(p_norm);
      pt.slack = pt.bounded ? kBoundSlack * p_norm : 0.0;
      pt.reach_in.clear();
    }
    prefix_.clear();
    bounded_.clear();
    for (size_t i = 0; i < round.pending.size(); ++i) {
      const size_t d = round.pending[i];
      for (size_t t = 0; t < num_tracks; ++t) {
        PerTrack& pt = tracks_[t];
        Entry e{-kInf, -kInf, static_cast<uint32_t>(i * num_tracks + t)};
        if (pt.bounded) {
          const double t_j = tracks[t].thresholds[d];
          const double dist =
              (round.scores[t][d] - t_j - kBoundSlack * std::fabs(t_j)) /
              tracks[t].dual_norms[d];
          if (!std::isnan(dist)) {
            e.reach = dist;
            if (limit_ <= 0 || !evaluates_) {
              const double norm =
                  std::max(0.0, dist - pt.slack) * (1.0 - kBoundSlack);
              e.lo = pt.cost->kind() == CostFunction::Kind::kQuadratic
                         ? norm * norm
                         : norm;
            }
          }
          pt.reach_in.push_back(e.reach);
        }
        if (e.lo == -kInf) {
          prefix_.push_back(e.slot);
        } else {
          bounded_.push_back(e);
        }
      }
    }
    for (PerTrack& pt : tracks_) {
      if (pt.bounded) pt.reach.Assign(pt.reach_in);
    }
    rest_.Assign(bounded_);
    round_ = &round;
    next_ = 0;
    rest_.SortThrough(0, EntryLess{});
    SolvePrefix(tracks, n);
    ready_.clear();
    for (uint32_t i = 0; i < candidates_.size(); ++i) ready_.push_back(i);
    std::make_heap(ready_.begin(), ready_.end(), After{this});
    solve_seconds_ = timer.ElapsedSeconds();
  }

  /// The next candidate in ascending (step cost, position) order, or, under
  /// a custom cost, in position order; null when none is left. Solves
  /// entries, serially on the caller, until one can be released. The
  /// pointer stays valid until the next Start.
  Candidate* Next(std::span<const Track> tracks) {
    if (!Releasable() && next_ < rest_.size()) {
      WallTimer timer;
      do {
        const uint32_t slot = rest_.items()[next_].slot;
        rest_.SortThrough(++next_, EntryLess{});
        if (!Solve(tracks, slot)) continue;
        ++solved_;
        ready_.push_back(static_cast<uint32_t>(candidates_.size() - 1));
        std::push_heap(ready_.begin(), ready_.end(), After{this});
      } while (!Releasable() && next_ < rest_.size());
      solve_seconds_ += timer.ElapsedSeconds();
    }
    if (ready_.empty()) return nullptr;
    std::pop_heap(ready_.begin(), ready_.end(), After{this});
    Candidate* c = &candidates_[ready_.back()];
    ready_.pop_back();
    return c;
  }

  /// A lower bound on the step cost of every candidate Next has not
  /// returned (+inf when none is left). Pre: prune().
  double RemainingCost() const {
    double lo = next_ < rest_.size() ? rest_.items()[next_].lo : kInf;
    if (!ready_.empty()) {
      lo = std::min(lo, candidates_[ready_.front()].step_cost);
    }
    return lo;
  }

  /// U for candidate c (see the class comment).
  int Bound(const Candidate& c) const {
    const PerTrack& pt = tracks_[static_cast<size_t>(c.track)];
    return BoundAtNorm(pt, NormOfCost(*pt.cost, c.step_cost));
  }

  /// Max-Hit's budget test: the targets' total cost stays within beta after
  /// the step, total - cost_t(s_t) + cost_t(s_t + step) <= beta, which for
  /// one track is exactly cost(s + step) <= beta (c - c is 0). s_t + step is
  /// summed into the track's scratch vector, element by element as Add
  /// sums.
  bool Affordable(const Candidate& c, const Goal& goal,
                  std::span<const Track> tracks, double total) {
    const Track& t = tracks[static_cast<size_t>(c.track)];
    Vec& after = tracks_[static_cast<size_t>(c.track)].after;
    for (size_t j = 0; j < after.size(); ++j) {
      after[j] = t.s_total[j] + c.step[j];
    }
    return total - t.spent + t.options->cost.Cost(after) <= goal.beta;
  }

  /// Max-Hit's stop: true when every candidate Next has not returned would
  /// be skipped, because on its track it is over budget or beaten, cost/U >
  /// best_ratio, at the largest U an affordable step can have. Both follow
  /// from the triangle inequality on the track's norm, with s_t the track's
  /// strategy: ‖s_t + step‖ >= ‖step‖ - ‖s_t‖, and an affordable step has
  /// ‖step‖ <= ‖s_t‖ + ‖s_t + step‖ with cost_t(s_t + step) <= beta less
  /// the other tracks' costs. kBoundSlack covers the rounding. Pre: prune().
  bool Exhausted(std::span<const Track> tracks, const Goal& goal,
                 double total, double best_ratio) const {
    const double lo = RemainingCost();
    if (lo == kInf) return true;
    for (size_t t = 0; t < tracks.size(); ++t) {
      const CostFunction& cost = *tracks_[t].cost;
      const double others = total - tracks[t].spent;
      const double n_spent = NormOfCost(cost, tracks[t].spent);
      const double n_lo = NormOfCost(cost, lo);
      const double gap = n_lo - n_spent - kBoundSlack * (n_lo + n_spent);
      if (gap > 0) {
        const double after =
            cost.kind() == CostFunction::Kind::kQuadratic ? gap * gap : gap;
        if (others + after * (1.0 - kBoundSlack) >
            goal.beta * (1.0 + kBoundSlack)) {
          continue;
        }
      }
      const double room =
          std::max(0.0, goal.beta - others) + kBoundSlack * goal.beta;
      const double n_max =
          (n_spent + NormOfCost(cost, room)) * (1.0 + kBoundSlack);
      if (Ratio(lo, BoundAtNorm(tracks_[t], n_max)) > best_ratio) continue;
      return false;
    }
    return true;
  }

  /// Counts the iteration's solves and their time into `bd` and the
  /// registry.
  void Record(EvalBreakdown* bd) const {
    bd->solver_seconds += solve_seconds_;
    bd->candidates_generated += solved_;
    SearchMetrics::Get().solver_nanos->Record(
        static_cast<uint64_t>(solve_seconds_ * 1e9));
    SearchMetrics::Get().candidates_generated->Increment(solved_);
  }

  /// Time spent solving so far this iteration.
  double solve_seconds() const { return solve_seconds_; }

 private:
  /// One (pending query, track) pair; slot = pending index * tracks + track.
  struct Entry {
    double lo;     // lower bound on the candidate's step cost
    double reach;  // d_j under the track (-inf: no bound)
    uint32_t slot;
  };
  struct EntryLo {
    double operator()(const Entry& e) const { return e.lo; }
  };
  /// The visit order of the bounded entries: by (lo, reach, slot). Within a
  /// track lo never falls as d_j rises.
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.lo != b.lo) return a.lo < b.lo;
      if (a.reach != b.reach) return a.reach < b.reach;
      return a.slot < b.slot;
    }
  };
  struct PerTrack {
    AdjustBox box;       // the track's options.box, or unbounded
    AdjustBox step_box;  // box less s_total, this iteration
    const CostFunction* cost = nullptr;
    bool bounded = false;
    double slack = 0.0;                        // kBoundSlack * ‖p_cur‖
    std::vector<double> reach_in;              // d_j per pending query
    BucketOrder<double, std::identity> reach;  // the same, bucketed for U
    Vec after;                                 // Affordable's s_total + step
  };

  /// Heap order of ready_: true when candidate a comes out after b.
  struct After {
    bool operator()(uint32_t a, uint32_t b) const {
      const Candidate& x = queue->candidates_[a];
      const Candidate& y = queue->candidates_[b];
      if (queue->prune_ && x.step_cost != y.step_cost) {
        return x.step_cost > y.step_cost;
      }
      return x.pos > y.pos;
    }
    const CandidateQueue* queue;
  };

  /// True when the cheapest solved candidate is below every unsolved bound.
  bool Releasable() const {
    return !ready_.empty() &&
           (next_ == rest_.size() ||
            candidates_[ready_.front()].step_cost < rest_.items()[next_].lo);
  }

  int BoundAtNorm(const PerTrack& pt, double norm) const {
    if (!pt.bounded) return active_;
    const double limit = norm + kBoundSlack * norm + pt.slack;
    return hits_ + static_cast<int>(pt.reach.CountAtMost(limit));
  }

  /// Solves slot `slot` onto the end of candidates_; false, appending
  /// nothing, when its query cannot be hit.
  bool Solve(std::span<const Track> tracks, uint32_t slot) {
    const size_t t = slot % tracks.size();
    const int q = round_->ids[round_->pending[slot / tracks.size()]];
    const Track& track = tracks[t];
    auto sol = track.ctx->SolveCandidate(q, track.p_cur, tracks_[t].step_box,
                                         *tracks_[t].cost);
    if (!sol.ok()) return false;
    Candidate& c = candidates_.emplace_back();
    c.q = q;
    c.track = static_cast<int>(t);
    c.pos = slot;
    c.step = std::move(sol->s);
    c.step_cost = sol->cost;
    return true;
  }

  /// Solves the -inf prefix into candidates_, in slot order. Then, when the
  /// pick rule evaluates, keeps the candidate_eval_limit subset: half the
  /// limit goes to the cheapest steps (the likely best cost-per-hit ratios),
  /// half is strided across the remaining cost range so bold far-reaching
  /// candidates stay in play for Max-Hit searches.
  void SolvePrefix(std::span<const Track> tracks, size_t n) {
    candidates_.clear();
    candidates_.reserve(n);  // Next's pointers must survive its appends
    for (uint32_t slot : prefix_) Solve(tracks, slot);
    solved_ = candidates_.size();
    if (!evaluates_ || limit_ <= 0 ||
        candidates_.size() <= static_cast<size_t>(limit_)) {
      return;
    }
    std::sort(candidates_.begin(), candidates_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.step_cost < b.step_cost;
              });
    kept_.clear();
    const int cheap = limit_ / 2;
    for (int i = 0; i < cheap; ++i) {
      kept_.push_back(std::move(candidates_[static_cast<size_t>(i)]));
    }
    const int rest = static_cast<int>(candidates_.size()) - cheap;
    const int strided = limit_ - cheap;
    for (int i = 0; i < strided; ++i) {
      size_t idx = static_cast<size_t>(cheap) +
                   static_cast<size_t>((static_cast<long long>(i) * rest) /
                                       strided);
      kept_.push_back(std::move(candidates_[idx]));
    }
    candidates_.swap(kept_);
    for (size_t i = 0; i < candidates_.size(); ++i) {
      candidates_[i].pos = static_cast<uint32_t>(i);
    }
  }

  const int limit_;        // candidate_eval_limit
  const bool evaluates_;   // the pick rule evaluates candidates
  const bool prune_;       // no custom cost: candidates come out by cost
  std::vector<PerTrack> tracks_;
  const Round* round_ = nullptr;      // this iteration's
  std::vector<uint32_t> prefix_;      // the -inf entries' slots, ascending
  std::vector<Entry> bounded_;        // the other entries, in slot order
  BucketOrder<Entry, EntryLo> rest_;  // bounded_ by lo; [next_, end) unsolved
  size_t next_ = 0;
  std::vector<Candidate> candidates_;  // solved this iteration
  std::vector<Candidate> kept_;        // the limit subset's buffer
  std::vector<uint32_t> ready_;        // heap of unreleased candidates
  int hits_ = 0;                       // H_cur
  int active_ = 0;                     // active queries
  size_t solved_ = 0;
  double solve_seconds_ = 0.0;
};

/// Takes the iteration's candidates from `queue` and returns the one it
/// takes, or null when none is admissible (DESIGN.md §2).
///
/// kBestRatio (Algorithms 3 and 4) evaluates H(p'+s), one candidate at a
/// time on the calling thread, and takes the best cost-per-hit ratio, ties
/// to the lower position; Max-Hit admits only affordable steps that raise
/// the hit count. Once the best reaches tau, Algorithm 3 takes the cheapest
/// tau-reacher evaluated instead. kCheapest (the Greedy baseline) takes the
/// cheapest affordable step, ties to the lower position, and evaluates
/// nothing.
///
/// Under a built-in cost every step cost is >= 0 and the candidates come in
/// ascending (step cost, position) order. R* is the best ratio among the
/// evaluated candidates the pick could take. Candidate i, with hit bound U,
/// is skipped when cost_i/U > R*, so its ratio loses to R*, and, for
/// Min-Cost, it cannot reach tau (U < tau) or a tau-reacher has already been
/// evaluated (one visited earlier wins Algorithm 3's cheapest-reacher pick).
/// Max-Hit also skips what Algorithm 4 never takes: U <= cur_hits, or a
/// step over the budget. The visit, and with it the solving, stops:
///   - Min-Cost, once the best evaluated candidate, in the pick's order
///     (ratio, then position), reaches tau and no later candidate below tau
///     can tie or beat it;
///   - Max-Hit, once every remaining candidate would be skipped
///     (CandidateQueue::Exhausted);
///   - kCheapest, at the first affordable candidate.
/// A custom cost may be negative: its candidates come in position order and
/// every one is evaluated.
const Candidate* VisitCandidates(CandidateQueue* queue,
                                 std::span<const Track> tracks,
                                 const Goal& goal, PickRule rule, int cur_hits,
                                 EvalBreakdown* bd) {
  WallTimer timer;
  const double solving_before = queue->solve_seconds();
  const bool by_ratio = rule == PickRule::kBestRatio;
  const bool prune = queue->prune();
  const double total = TotalSpent(tracks);
  double best_ratio = kInf;            // R*
  const Candidate* best = nullptr;     // its candidate
  const Candidate* reacher = nullptr;  // the cheapest tau-reacher evaluated
  size_t evaluated = 0;
  while (Candidate* c = queue->Next(tracks)) {
    if (!by_ratio) {
      if (goal.min_cost || queue->Affordable(*c, goal, tracks, total)) {
        if (best == nullptr || c->step_cost < best->step_cost) best = c;
        if (prune) break;
      } else if (prune && queue->Exhausted(tracks, goal, total, kInf)) {
        break;
      }
      continue;
    }
    const Track& track = tracks[static_cast<size_t>(c->track)];
    if (prune) {
      const int u = queue->Bound(*c);
      const bool beaten = Ratio(c->step_cost, u) > best_ratio;
      if (goal.min_cost ? beaten && (u < goal.tau || reacher != nullptr)
                        : beaten || u <= cur_hits ||
                              !queue->Affordable(*c, goal, tracks, total)) {
        if (!goal.min_cost &&
            queue->Exhausted(tracks, goal, total, best_ratio)) {
          break;
        }
        continue;
      }
    }
    c->hits = track.evaluator->HitsForCoeffs(
        track.ctx->view().CoefficientsFor(Add(track.p_cur, c->step)));
    ++evaluated;
    // Algorithm 4 takes only affordable steps that raise the hit count;
    // with pruning, every evaluated step is affordable.
    if (goal.min_cost ||
        (c->hits > cur_hits &&
         (prune || queue->Affordable(*c, goal, tracks, total)))) {
      const double ratio = Ratio(*c);
      if (best == nullptr || ratio < best_ratio ||
          (ratio == best_ratio && c->pos < best->pos)) {
        best_ratio = ratio;
        best = c;
      }
      if (goal.Reached(c->hits) &&
          (reacher == nullptr || c->step_cost < reacher->step_cost)) {
        reacher = c;
      }
    }
    if (!prune) continue;
    if (goal.min_cost) {
      // Every later candidate costs >= c's step, so one below tau has a
      // ratio >= step_cost/(tau-1) (rounding is monotone). At tau = 1 it
      // has 0 hits and ratio cost >= R*; a tie means the best costs as much
      // and was visited first, so it has the lower position.
      if (best != nullptr && goal.Reached(best->hits) &&
          (goal.tau == 1 ||
           c->step_cost / static_cast<double>(goal.tau - 1) > best_ratio)) {
        break;
      }
    } else if (queue->Exhausted(tracks, goal, total, best_ratio)) {
      break;
    }
  }
  if (by_ratio) {
    const double seconds = timer.ElapsedSeconds() -
                           (queue->solve_seconds() - solving_before);
    bd->eval_seconds += seconds;
    bd->candidates_evaluated += evaluated;
    SearchMetrics::Get().eval_nanos->Record(
        static_cast<uint64_t>(std::max(0.0, seconds) * 1e9));
    SearchMetrics::Get().candidates_evaluated->Increment(evaluated);
    // Algorithm 3, lines 10-13: once the goal is reachable this round, take
    // the cheapest candidate that reaches it (avoid over-achieving).
    if (best != nullptr && goal.Reached(best->hits)) best = reacher;
  }
  return best;
}

/// Snaps the strategy onto the per-attribute grid of options.granularity
/// (coordinates with granularity 0 stay continuous). Per coordinate, the
/// neighbouring multiple with the higher re-evaluated hit count wins (ties:
/// the smaller magnitude); candidates violating the box or `max_cost` are
/// skipped. Updates *s_total and *hits.
void ApplyGranularity(const IqContext& ctx, StrategyEvaluator* evaluator,
                      const IqOptions& options, double max_cost, Vec* s_total,
                      int* hits) {
  if (options.granularity.empty()) return;
  const int dim = ctx.view().dataset().dim();
  IQ_CHECK(static_cast<int>(options.granularity.size()) == dim);
  AdjustBox box = EffectiveBox(options, dim);
  const Vec& p = ctx.view().dataset().attrs(ctx.target());

  auto hits_of = [&](const Vec& s) {
    return evaluator->HitsForCoeffs(ctx.view().CoefficientsFor(Add(p, s)));
  };

  Vec snapped = *s_total;
  for (int j = 0; j < dim; ++j) {
    double g = options.granularity[static_cast<size_t>(j)];
    if (g <= 0) continue;
    double v = snapped[static_cast<size_t>(j)];
    double lo = std::floor(v / g) * g;
    double hi = lo + g;
    int best_hits = -1;
    double best_value = 0.0;
    for (double cand : {lo, hi}) {
      Vec trial = snapped;
      trial[static_cast<size_t>(j)] = cand;
      if (!box.Contains(trial, 1e-12)) continue;
      if (options.cost.Cost(trial) > max_cost + 1e-12) continue;
      int h = hits_of(trial);
      if (h > best_hits ||
          (h == best_hits && std::fabs(cand) < std::fabs(best_value))) {
        best_hits = h;
        best_value = cand;
      }
    }
    if (best_hits < 0) {
      // Neither multiple is admissible; fall back to no adjustment on this
      // axis (0 is always a grid multiple inside the box).
      best_value = 0.0;
      Vec trial = snapped;
      trial[static_cast<size_t>(j)] = 0.0;
      best_hits = hits_of(trial);
    }
    snapped[static_cast<size_t>(j)] = best_value;
    *hits = best_hits;
  }
  *s_total = std::move(snapped);
}

/// The counts a greedy search ends with.
struct SearchOutcome {
  int hits_before = 0;
  int hits = 0;
  int iterations = 0;
};

/// Algorithms 3 and 4 and the Greedy baseline, for one target or for the
/// several of §5.1: the one greedy iteration loop. Each iteration scores the
/// round (Round::Scan), generates the single-constraint steps (Eq. 13-14),
/// one per (pending query, track) pair, best-first (CandidateQueue), and
/// takes the one the pick rule chooses (VisitCandidates), until the goal is
/// reached, no step is admissible, or the iteration cap. Then
/// each track is snapped onto its grid in target order, Max-Hit capping it
/// at beta less the other targets' costs. `options` gives the loop-level
/// settings: max_iterations and candidate_eval_limit. A single-target
/// search starts from its evaluator's base hits; a §5.1 search from the
/// union count of its first pass, which also serves its first round.
SearchOutcome GreedySearch(std::span<Track> tracks, const Goal& goal,
                           PickRule rule, const IqOptions& options,
                           EvalBreakdown* bd) {
  const int max_iters =
      options.max_iterations > 0
          ? options.max_iterations
          : goal.DefaultIterations(tracks[0].ctx->queries().size());
  const bool by_ratio = rule == PickRule::kBestRatio;
  const bool multi = tracks[0].unions != nullptr;
  Round round(tracks);
  if (multi) round.Scan(tracks, bd);
  SearchOutcome out;
  out.hits = multi ? round.hits : tracks[0].evaluator->base_hits();
  out.hits_before = out.hits;
  CandidateQueue queue(tracks, options, /*evaluates=*/by_ratio);
  while (!goal.Reached(out.hits) && out.iterations < max_iters) {
    ++out.iterations;
    if (!round.fresh) round.Scan(tracks, bd);
    queue.Start(tracks, round);
    const Candidate* best =
        VisitCandidates(&queue, tracks, goal, rule, out.hits, bd);
    queue.Record(bd);
    if (best == nullptr) break;
    Track& track = tracks[static_cast<size_t>(best->track)];
    AddInPlace(&track.s_total, best->step);
    track.p_cur = Add(track.p_cur, best->step);
    track.c_cur = track.ctx->view().CoefficientsFor(track.p_cur);
    track.spent = track.options->cost.Cost(track.s_total);
    round.fresh = false;
    // The ratio pick already evaluated the step it took.
    const int new_hits =
        by_ratio ? best->hits : TimedHits(track.evaluator, track.c_cur, bd);
    if (new_hits <= out.hits && NormL2(best->step) < 1e-15) break;  // stuck
    out.hits = new_hits;
  }
  for (Track& track : tracks) {
    if (track.options->granularity.empty()) continue;
    if (multi && !round.fresh) round.Scan(tracks, bd);
    ApplyGranularity(*track.ctx, track.evaluator, *track.options,
                     goal.beta - (TotalSpent(tracks) - track.spent),
                     &track.s_total, &out.hits);
    track.spent = track.options->cost.Cost(track.s_total);
    track.c_cur = track.ctx->view().CoefficientsFor(
        Add(track.ctx->view().dataset().attrs(track.ctx->target()),
            track.s_total));
    round.fresh = false;
  }
  return out;
}

/// The per-call accounting of every search: the greedy loop with one track
/// or several, and the Random baselines. Construction snapshots the
/// evaluators' counters and starts the clock; Finish stamps the result with
/// its EvalBreakdown and folds the iteration count into the global
/// registry, once per call.
class SearchCall {
 public:
  explicit SearchCall(std::vector<StrategyEvaluator*> evaluators)
      : evaluators_(std::move(evaluators)), before_(Counted()) {}

  EvalBreakdown* breakdown() { return &bd_; }

  IqResult Finish(const Goal& goal, const CostFunction& cost, Vec strategy,
                  int hits_before, int hits, int iterations) {
    IqResult r;
    r.strategy = std::move(strategy);
    r.cost = cost.Cost(r.strategy);
    r.hits_before = hits_before;
    r.hits_after = hits;
    r.reached_goal = goal.Met(hits);
    r.iterations = iterations;
    r.breakdown = Stamp(iterations);
    r.evaluator_calls = r.breakdown.evaluator_calls;
    r.seconds = r.breakdown.total_seconds;
    return r;
  }

  /// The §5.1 form: `r` already holds the targets, strategies and costs.
  void Finish(const Goal& goal, int hits, int iterations, MultiIqResult* r) {
    r->hits_after = hits;
    r->reached_goal = goal.Met(hits);
    r->iterations = iterations;
    r->breakdown = Stamp(iterations);
    r->evaluator_calls = r->breakdown.evaluator_calls;
    r->seconds = r->breakdown.total_seconds;
  }

 private:
  /// The evaluators' counters so far, summed.
  EvalBreakdown Counted() const {
    EvalBreakdown c;
    for (const StrategyEvaluator* e : evaluators_) {
      c.evaluator_calls += e->calls();
      c.queries_rescored += e->queries_rescored();
      c.queries_reused += e->queries_reused();
    }
    return c;
  }

  const EvalBreakdown& Stamp(int iterations) {
    const EvalBreakdown now = Counted();
    bd_.iterations = iterations;
    bd_.evaluator_calls = now.evaluator_calls - before_.evaluator_calls;
    bd_.queries_rescored = now.queries_rescored - before_.queries_rescored;
    bd_.queries_reused = now.queries_reused - before_.queries_reused;
    bd_.total_seconds = timer_.ElapsedSeconds();
    SearchMetrics::Get().iterations->Increment(
        static_cast<uint64_t>(iterations));
    return bd_;
  }

  const std::vector<StrategyEvaluator*> evaluators_;
  WallTimer timer_;
  const EvalBreakdown before_;
  EvalBreakdown bd_;
};

/// A single-target greedy: one track with the caller's evaluator.
Result<IqResult> SingleGreedy(const IqContext& ctx,
                              StrategyEvaluator* evaluator, const Goal& goal,
                              PickRule rule, const IqOptions& options) {
  IQ_RETURN_IF_ERROR(CheckIqOptions(options, ctx.view().dataset().dim()));
  SearchCall call({evaluator});
  Track track(ctx, evaluator, options);
  const SearchOutcome o = GreedySearch(std::span<Track>(&track, 1), goal,
                                       rule, options, call.breakdown());
  return call.Finish(goal, options.cost, std::move(track.s_total),
                     o.hits_before, o.hits, o.iterations);
}

/// The §5.1 searches: one track per target, hits counted over the union.
Result<MultiIqResult> MultiGreedy(const SubdomainIndex& index,
                                  const std::vector<int>& targets,
                                  const Goal& goal,
                                  const std::vector<IqOptions>& options) {
  if (targets.empty()) {
    return Status::InvalidArgument("no target objects given");
  }
  if (options.size() != 1 && options.size() != targets.size()) {
    return Status::InvalidArgument(
        "options must have one entry or one per target");
  }
  const size_t n = targets.size();
  auto options_of = [&options](size_t t) -> const IqOptions& {
    return options[options.size() == 1 ? 0 : t];
  };
  for (size_t t = 0; t < n; ++t) {
    IQ_RETURN_IF_ERROR(
        CheckIqOptions(options_of(t), index.view().dataset().dim()));
  }
  std::deque<UnionEvaluator> evaluators;
  std::vector<StrategyEvaluator*> counted;
  for (size_t t = 0; t < n; ++t) {
    counted.push_back(&evaluators.emplace_back(&index.query_kernel()));
  }
  SearchCall call(std::move(counted));
  std::vector<IqContext> contexts;
  contexts.reserve(n);  // the tracks point into it
  std::vector<Track> tracks;
  for (size_t t = 0; t < n; ++t) {
    IQ_ASSIGN_OR_RETURN(IqContext ctx, IqContext::FromIndex(&index, targets[t]));
    contexts.push_back(std::move(ctx));
    tracks.emplace_back(contexts.back(), &evaluators[t], options_of(t))
        .unions = &evaluators[t];
  }
  const SearchOutcome o = GreedySearch(tracks, goal, PickRule::kBestRatio,
                                       options[0], call.breakdown());
  MultiIqResult r;
  r.targets = targets;
  r.hits_before = o.hits_before;
  for (const Track& track : tracks) {
    r.strategies.push_back(track.s_total);
    r.costs.push_back(track.spent);
    r.total_cost += track.spent;
  }
  call.Finish(goal, o.hits, o.iterations, &r);
  return r;
}

/// Attribute span of the active dataset (for the Random baseline's radius
/// schedule).
double DataSpan(const Dataset& data) {
  double span2 = 0.0;
  for (int j = 0; j < data.dim(); ++j) {
    double lo = kInf, hi = -kInf;
    for (int i = 0; i < data.size(); ++i) {
      if (!data.is_active(i)) continue;
      lo = std::min(lo, data.attrs(i)[static_cast<size_t>(j)]);
      hi = std::max(hi, data.attrs(i)[static_cast<size_t>(j)]);
    }
    if (hi > lo) span2 += (hi - lo) * (hi - lo);
  }
  return span2 > 0 ? std::sqrt(span2) : 1.0;
}

Vec RandomDirection(Rng* rng, int dim) {
  Vec dir(static_cast<size_t>(dim));
  double norm2 = 0.0;
  do {
    for (auto& x : dir) x = rng->Gaussian();
    norm2 = NormL2Squared(dir);
  } while (norm2 < 1e-12);
  return Scale(dir, 1.0 / std::sqrt(norm2));
}

}  // namespace

Status CheckIqOptions(const IqOptions& options, int dim) {
  if (options.box.has_value()) {
    const AdjustBox& box = *options.box;
    if (box.dim() != dim) {
      return Status::InvalidArgument("box dimension does not match the data");
    }
    for (size_t j = 0; j < static_cast<size_t>(dim); ++j) {
      // Fails on a NaN bound too. A box that excludes 0 stays legal.
      if (!(box.lower()[j] <= box.upper()[j])) {
        return Status::InvalidArgument(
            "box bounds must be numbers with lower <= upper");
      }
    }
  }
  if (!options.granularity.empty()) {
    if (static_cast<int>(options.granularity.size()) != dim) {
      return Status::InvalidArgument(
          "granularity needs one entry per attribute");
    }
    for (double g : options.granularity) {
      if (!std::isfinite(g) || g < 0) {
        return Status::InvalidArgument(
            "granularity entries must be finite and >= 0");
      }
    }
  }
  using Kind = CostFunction::Kind;
  const Kind kind = options.cost.kind();
  if (kind == Kind::kWeightedL1 || kind == Kind::kWeightedL2 ||
      kind == Kind::kQuadratic) {
    const Vec& units = options.cost.unit_costs();
    if (static_cast<int>(units.size()) != dim) {
      return Status::InvalidArgument(
          "cost needs one unit cost per attribute");
    }
    // Weighted L1 may leave an attribute free; the quadratic solvers
    // divide by every unit cost.
    const bool zero_ok = kind == Kind::kWeightedL1;
    for (double c : units) {
      if (!std::isfinite(c) || c < 0 || (c == 0 && !zero_ok)) {
        return Status::InvalidArgument(
            zero_ok ? "unit costs must be finite and >= 0"
                    : "unit costs must be finite and > 0");
      }
    }
  }
  return Status::Ok();
}

Result<IqResult> MinCostIq(const IqContext& ctx, StrategyEvaluator* evaluator,
                           int tau, const IqOptions& options) {
  IQ_TRACE_SCOPE_ARG2("MinCostIq", ctx.target(), tau);
  IQ_ASSIGN_OR_RETURN(const Goal goal, Goal::MinCost(tau));
  return SingleGreedy(ctx, evaluator, goal, PickRule::kBestRatio, options);
}

Result<IqResult> MaxHitIq(const IqContext& ctx, StrategyEvaluator* evaluator,
                          double beta, const IqOptions& options) {
  IQ_TRACE_SCOPE_ARG("MaxHitIq", ctx.target());
  IQ_ASSIGN_OR_RETURN(const Goal goal, Goal::MaxHit(beta));
  return SingleGreedy(ctx, evaluator, goal, PickRule::kBestRatio, options);
}

Result<IqResult> GreedyMinCost(const IqContext& ctx,
                               StrategyEvaluator* evaluator, int tau,
                               const IqOptions& options) {
  IQ_ASSIGN_OR_RETURN(const Goal goal, Goal::MinCost(tau));
  return SingleGreedy(ctx, evaluator, goal, PickRule::kCheapest, options);
}

Result<IqResult> GreedyMaxHit(const IqContext& ctx,
                              StrategyEvaluator* evaluator, double beta,
                              const IqOptions& options) {
  IQ_ASSIGN_OR_RETURN(const Goal goal, Goal::MaxHit(beta));
  return SingleGreedy(ctx, evaluator, goal, PickRule::kCheapest, options);
}

Result<MultiIqResult> CombinatorialMinCostIq(
    const SubdomainIndex& index, const std::vector<int>& targets, int tau,
    const std::vector<IqOptions>& options) {
  IQ_ASSIGN_OR_RETURN(const Goal goal, Goal::MinCost(tau));
  return MultiGreedy(index, targets, goal, options);
}

Result<MultiIqResult> CombinatorialMaxHitIq(
    const SubdomainIndex& index, const std::vector<int>& targets, double beta,
    const std::vector<IqOptions>& options) {
  IQ_ASSIGN_OR_RETURN(const Goal goal, Goal::MaxHit(beta));
  return MultiGreedy(index, targets, goal, options);
}

Result<IqResult> RandomMinCost(const IqContext& ctx,
                               StrategyEvaluator* evaluator, int tau,
                               const IqOptions& options) {
  IQ_ASSIGN_OR_RETURN(const Goal goal, Goal::MinCost(tau));
  const int dim = ctx.view().dataset().dim();
  IQ_RETURN_IF_ERROR(CheckIqOptions(options, dim));
  SearchCall call({evaluator});
  const Vec& p = ctx.view().dataset().attrs(ctx.target());
  Rng rng(options.seed);
  AdjustBox box = EffectiveBox(options, dim);
  double radius = 0.05 * DataSpan(ctx.view().dataset());

  Vec best_s = Zeros(dim);
  const int hits_before = evaluator->base_hits();
  int best_hits = hits_before;
  int samples = 0;
  while (!goal.Reached(best_hits) && samples < options.random_samples) {
    ++samples;
    Vec s = box.Clamp(Scale(RandomDirection(&rng, dim),
                            radius * rng.UniformDouble(0.2, 1.0)));
    int hits = TimedHits(evaluator, ctx.view().CoefficientsFor(Add(p, s)),
                         call.breakdown());
    if (hits > best_hits) {
      best_hits = hits;
      best_s = std::move(s);
    }
    if (samples % 16 == 0) radius *= 1.5;  // widen the search
  }
  ApplyGranularity(ctx, evaluator, options, goal.beta, &best_s, &best_hits);
  return call.Finish(goal, options.cost, std::move(best_s), hits_before,
                     best_hits, samples);
}

Result<IqResult> RandomMaxHit(const IqContext& ctx,
                              StrategyEvaluator* evaluator, double beta,
                              const IqOptions& options) {
  IQ_ASSIGN_OR_RETURN(const Goal goal, Goal::MaxHit(beta));
  const int dim = ctx.view().dataset().dim();
  IQ_RETURN_IF_ERROR(CheckIqOptions(options, dim));
  SearchCall call({evaluator});
  const Vec& p = ctx.view().dataset().attrs(ctx.target());
  Rng rng(options.seed);
  AdjustBox box = EffectiveBox(options, dim);

  Vec best_s = Zeros(dim);
  const int hits_before = evaluator->base_hits();
  int best_hits = hits_before;
  for (int sample = 0; sample < options.random_samples; ++sample) {
    Vec dir = RandomDirection(&rng, dim);
    // Scale the sample so its cost stays within the budget (bisection —
    // cost is monotone along a ray for all built-in kinds).
    double lo = 0.0, hi = 1.0;
    while (options.cost.Cost(box.Clamp(Scale(dir, hi))) <= beta && hi < 1e9) {
      hi *= 2;
    }
    for (int it = 0; it < 40; ++it) {
      double mid = 0.5 * (lo + hi);
      if (options.cost.Cost(box.Clamp(Scale(dir, mid))) <= beta) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    Vec s = box.Clamp(Scale(dir, lo * rng.UniformDouble(0.3, 1.0)));
    if (options.cost.Cost(s) > beta) continue;
    int hits = TimedHits(evaluator, ctx.view().CoefficientsFor(Add(p, s)),
                         call.breakdown());
    if (hits > best_hits) {
      best_hits = hits;
      best_s = std::move(s);
    }
  }
  ApplyGranularity(ctx, evaluator, options, goal.beta, &best_s, &best_hits);
  return call.Finish(goal, options.cost, std::move(best_s), hits_before,
                     best_hits, options.random_samples);
}

}  // namespace iq
