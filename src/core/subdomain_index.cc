#include "core/subdomain_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topk/topk.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace iq {
namespace {

/// Cached pointers into the global registry; all increments are lock-free.
struct IndexMetrics {
  Counter* full_reranks;          // queries ranked in full (RankSignatures)
  Counter* signature_cache_hits;  // OnQueryAdded resolved by kNN shortcut
  Counter* cells_visited;         // subdomains scanned in OnObjectRemoved
  Counter* parallel_rank_batches; // ranking rounds fanned out over a pool
  Counter* cow_cells_cloned;      // cells copied-on-write for a new epoch
  Gauge* num_subdomains;
  Histogram* build_nanos;

  static IndexMetrics& Get() {
    static IndexMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      IndexMetrics im;
      im.full_reranks = reg.GetCounter("iq.index.full_reranks");
      im.signature_cache_hits =
          reg.GetCounter("iq.index.signature_cache_hits");
      im.cells_visited = reg.GetCounter("iq.index.cells_visited");
      im.parallel_rank_batches =
          reg.GetCounter("iq.index.parallel_rank_batches");
      im.cow_cells_cloned = reg.GetCounter("iq.index.cow_cells_cloned");
      im.num_subdomains = reg.GetGauge("iq.index.num_subdomains");
      im.build_nanos = reg.GetHistogram("iq.index.build_nanos");
      return im;
    }();
    return m;
  }
};

/// Queries per RankSignatures tile: one ScoreKernel::TopKappaSignatures
/// pass scores each object block for the whole tile while the block is in
/// L1. Serial CPU per query on the build_house ranking (HOUSE, n=100000,
/// m=2000, κ=51, 4-CPU host, 9 runs each): one query per pass median
/// 557 µs (444-606), 16-query tiles 505 µs (494-526), 32 and 64 2-4%
/// lower, inside that spread.
constexpr size_t kRankTileQueries = 16;

std::string SignatureKey(const std::vector<int>& sig) {
  std::string key(sig.size() * sizeof(int), '\0');
  if (!sig.empty()) std::memcpy(key.data(), sig.data(), key.size());
  return key;
}

}  // namespace

Result<SubdomainIndex> SubdomainIndex::Build(const FunctionView* view,
                                             const QuerySet* queries,
                                             SubdomainIndexOptions options) {
  if (view == nullptr || queries == nullptr) {
    return Status::InvalidArgument("view/queries must not be null");
  }
  if (queries->num_weights() != view->form().num_weights()) {
    return Status::InvalidArgument(
        "query weight count does not match the utility form");
  }
  const int max_k = queries->max_k();
  if (options.kappa > 0 && options.kappa <= max_k) {
    return Status::InvalidArgument(
        "kappa " + std::to_string(options.kappa) +
        " must exceed the largest query k (" + std::to_string(max_k) + ")");
  }
  IQ_TRACE_SCOPE_ARG2("SubdomainIndex::Build", queries->size(),
                      options.epoch);
  WallTimer timer;
  SubdomainIndex index;
  index.view_ = view;
  index.queries_ = queries;
  index.kappa_ = std::max(options.kappa > 0 ? options.kappa : max_k + 1, 2);
  index.pool_ = options.pool;
  index.epoch_ = options.epoch;

  const int m = queries->size();
  std::vector<Vec> aug_w(static_cast<size_t>(m));
  for (int q = 0; q < m; ++q) {
    if (queries->is_active(q)) {
      aug_w[static_cast<size_t>(q)] =
          view->form().AugmentWeights(queries->query(q).weights);
    }
  }
  index.aug_w_ = CowChunks<Vec>(std::move(aug_w));

  // SoA object kernel first (DESIGN.md §13): the ranking scores against it,
  // shared read-only across the pool workers.
  index.object_kernel_ = ScoreKernel::Build(
      view->rows(), &view->dataset().active_mask(), view->form().num_slots());
  const std::vector<int> active = index.GroupQueries();

  std::vector<Vec> points;
  points.reserve(active.size());
  for (int q : active) points.push_back(index.aug_w_[static_cast<size_t>(q)]);
  index.rtree_ = std::make_shared<RTree>(RTree::BulkLoad(
      view->form().num_slots(), points, active, options.rtree_max_entries));

  {
    std::vector<bool> qmask(static_cast<size_t>(m), false);
    for (int q : active) qmask[static_cast<size_t>(q)] = true;
    index.query_kernel_ =
        ScoreKernel::Build(index.aug_w_, &qmask, view->form().num_slots());
  }

  index.build_seconds_ = timer.ElapsedSeconds();
  IndexMetrics::Get().build_nanos->Record(timer.ElapsedNanos());
  IndexMetrics::Get().num_subdomains->Set(index.num_occupied_);
  return index;
}

std::vector<int> SubdomainIndex::GroupQueries() {
  const int m = queries_->size();
  std::vector<int> active;
  active.reserve(static_cast<size_t>(queries_->num_active()));
  for (int q = 0; q < m; ++q) {
    if (queries_->is_active(q)) active.push_back(q);
  }
  // Fresh cells: a clone drops its references to the shared ones, which the
  // published epochs keep.
  sd_of_.assign(static_cast<size_t>(m), -1);
  kth_score_ = CowChunks<double>(std::vector<double>(
      static_cast<size_t>(m), std::numeric_limits<double>::infinity()));
  kth_id_ = CowChunks<int>(std::vector<int>(static_cast<size_t>(m), -1));
  subdomains_.clear();
  free_subdomains_.clear();
  num_occupied_ = 0;
  signature_to_sd_ = std::make_shared<std::unordered_map<std::string, int>>();
  sig_member_count_.assign(static_cast<size_t>(view_->dataset().size()), 0);
  std::vector<std::vector<int>> sigs = RankSignatures(active);
  // Serial, in ascending query id: subdomain ids are assigned in
  // first-encounter order whatever the pool.
  for (size_t i = 0; i < active.size(); ++i) {
    AttachQueryToSubdomain(active[i],
                           FindOrCreateSubdomain(std::move(sigs[i])));
  }
  return active;
}

std::vector<std::vector<int>> SubdomainIndex::RankSignatures(
    const std::vector<int>& qs) const {
  std::vector<std::vector<int>> sigs(qs.size());
  const size_t tiles = (qs.size() + kRankTileQueries - 1) / kRankTileQueries;
  IndexMetrics::Get().full_reranks->Increment(qs.size());
  if (pool_ != nullptr && tiles > 1) {
    IndexMetrics::Get().parallel_rank_batches->Increment();
  }
  // Every tile writes only its own slots.
  ParallelForOrSerial(
      pool_, static_cast<int64_t>(tiles),
      [&](int64_t begin, int64_t end) {
        for (int64_t t = begin; t < end; ++t) {
          const size_t first = static_cast<size_t>(t) * kRankTileQueries;
          const size_t last = std::min(qs.size(), first + kRankTileQueries);
          std::vector<const Vec*> ws;
          for (size_t i = first; i < last; ++i) {
            ws.push_back(&aug_w_[static_cast<size_t>(qs[i])]);
          }
          std::vector<std::vector<int>> tile =
              object_kernel_.TopKappaSignatures(ws, kappa_);
          std::move(tile.begin(), tile.end(),
                    sigs.begin() + static_cast<std::ptrdiff_t>(first));
        }
      },
      "index.build_rank");
  return sigs;
}

SubdomainIndex SubdomainIndex::CloneCow(const FunctionView* view,
                                        const QuerySet* queries,
                                        uint64_t epoch) const {
  SubdomainIndex copy;
  copy.view_ = view;
  copy.queries_ = queries;
  copy.kappa_ = kappa_;
  copy.pool_ = pool_;
  copy.epoch_ = epoch;
  copy.sd_of_ = sd_of_;
  // Cells, the R-tree, the signature map and the aug_w_/kth_* chunks are
  // shared, not copied: the Mutable* accessors clone them lazily when (and
  // only when) a maintenance hook touches them. Kernel blocks are
  // immutable; the hooks replace the one block they re-pack.
  copy.aug_w_ = aug_w_;
  copy.kth_score_ = kth_score_;
  copy.kth_id_ = kth_id_;
  copy.subdomains_ = subdomains_;
  copy.rtree_ = rtree_;
  copy.signature_to_sd_ = signature_to_sd_;
  copy.object_kernel_ = object_kernel_;
  copy.query_kernel_ = query_kernel_;
  copy.free_subdomains_ = free_subdomains_;
  copy.num_occupied_ = num_occupied_;
  copy.sig_member_count_ = sig_member_count_;
  copy.build_seconds_ = build_seconds_;
  copy.knn_shortcut_hits_ = knn_shortcut_hits_;
  copy.maintenance_rerank_events_ = maintenance_rerank_events_;
  copy.maintenance_affected_subdomains_ = maintenance_affected_subdomains_;
  return copy;
}

SubdomainIndex::Subdomain& SubdomainIndex::MutableCell(int sd) {
  std::shared_ptr<Subdomain>& cell = subdomains_[static_cast<size_t>(sd)];
  if (cell.use_count() > 1) {
    cell = std::make_shared<Subdomain>(*cell);
    IndexMetrics::Get().cow_cells_cloned->Increment();
  }
  return *cell;
}

RTree& SubdomainIndex::MutableRTree() {
  if (rtree_.use_count() > 1) {
    rtree_ = std::make_shared<RTree>(rtree_->Clone());
  }
  return *rtree_;
}

std::unordered_map<std::string, int>& SubdomainIndex::MutableSignatureMap() {
  if (signature_to_sd_.use_count() > 1) {
    signature_to_sd_ = std::make_shared<std::unordered_map<std::string, int>>(
        *signature_to_sd_);
  }
  return *signature_to_sd_;
}

void SubdomainIndex::RepackObject(int id) {
  const Dataset& data = view_->dataset();
  object_kernel_.Repack(id, view_->rows(), [&data](size_t i) {
    return data.is_active(static_cast<int>(i));
  });
}

void SubdomainIndex::RepackQuery(int q) {
  query_kernel_.Repack(q, aug_w_, [this](size_t i) {
    return queries_->is_active(static_cast<int>(i));
  });
}

void SubdomainIndex::RebuildScoreKernels() {
  object_kernel_ = ScoreKernel::Build(view_->rows(),
                                      &view_->dataset().active_mask(),
                                      view_->form().num_slots());
  std::vector<bool> qmask(aug_w_.size(), false);
  for (int q = 0; q < queries_->size(); ++q) {
    if (queries_->is_active(q)) qmask[static_cast<size_t>(q)] = true;
  }
  query_kernel_ = ScoreKernel::Build(aug_w_, &qmask, view_->form().num_slots());
}

bool SubdomainIndex::SignatureMatches(const Vec& aug_w,
                                      const std::vector<int>& sig) const {
  const Dataset& data = view_->dataset();
  // A short signature is only valid when it holds every active object.
  if (static_cast<int>(sig.size()) < kappa_ &&
      static_cast<int>(sig.size()) != data.num_active()) {
    return false;
  }
  // One unsorted pass: (a) members must appear in strictly increasing
  // (score, id) order along the signature, (b) no non-member may rank
  // before the last member. This is the signature analogue of checking the
  // above/below relations against a subdomain's boundary intersections.
  std::vector<bool> is_member(static_cast<size_t>(data.size()), false);
  for (int obj : sig) {
    if (obj < 0 || obj >= data.size() || !data.is_active(obj)) return false;
    is_member[static_cast<size_t>(obj)] = true;
  }
  double prev_score = -std::numeric_limits<double>::infinity();
  int prev_id = -1;
  for (int obj : sig) {
    double s = view_->Score(obj, aug_w);  // iq-lint: allow(raw-scoring-loop)
    if (s < prev_score || (s == prev_score && obj < prev_id)) return false;
    prev_score = s;
    prev_id = obj;
  }
  for (int i = 0; i < data.size(); ++i) {
    if (!data.is_active(i) || is_member[static_cast<size_t>(i)]) continue;
    double s = view_->Score(i, aug_w);  // iq-lint: allow(raw-scoring-loop)
    if (s < prev_score || (s == prev_score && i < prev_id)) return false;
  }
  return true;
}

int SubdomainIndex::FindOrCreateSubdomain(std::vector<int> signature) {
  std::string key = SignatureKey(signature);
  auto it = signature_to_sd_->find(key);
  if (it != signature_to_sd_->end()) return it->second;
  int sd;
  if (!free_subdomains_.empty()) {
    sd = free_subdomains_.back();
    free_subdomains_.pop_back();
  } else {
    sd = static_cast<int>(subdomains_.size());
    subdomains_.push_back(std::make_shared<Subdomain>());
  }
  Subdomain& s = MutableCell(sd);
  s.signature = std::move(signature);
  s.query_ids.clear();
  s.occupied = true;
  ++num_occupied_;
  MutableSignatureMap().emplace(std::move(key), sd);
  for (int obj : s.signature) ++sig_member_count_[static_cast<size_t>(obj)];
  return sd;
}

void SubdomainIndex::AttachQueryToSubdomain(int q, int sd) {
  sd_of_[static_cast<size_t>(q)] = sd;
  MutableCell(sd).query_ids.push_back(q);
  const ScoredObject kth = SignatureEntry(
      q, static_cast<size_t>(queries_->query(q).k) - 1);
  kth_score_.Mutable(static_cast<size_t>(q)) = kth.score;
  kth_id_.Mutable(static_cast<size_t>(q)) = kth.id;
}

ScoredObject SubdomainIndex::SignatureEntry(int q, size_t rank) const {
  const std::vector<int>& sig = Cell(sd_of_[static_cast<size_t>(q)]).signature;
  if (rank >= sig.size()) {
    return {-1, std::numeric_limits<double>::infinity()};
  }
  return {sig[rank], view_->Score(sig[rank], aug_w_[static_cast<size_t>(q)])};
}

void SubdomainIndex::DetachQueryFromSubdomain(int q) {
  int sd = sd_of_[static_cast<size_t>(q)];
  if (sd < 0) return;
  auto& list = MutableCell(sd).query_ids;
  list.erase(std::remove(list.begin(), list.end(), q), list.end());
  sd_of_[static_cast<size_t>(q)] = -1;
  ReleaseSubdomainIfEmpty(sd);
}

void SubdomainIndex::ReleaseSubdomainIfEmpty(int sd) {
  if (!Cell(sd).occupied || !Cell(sd).query_ids.empty()) return;
  Subdomain& s = MutableCell(sd);
  MutableSignatureMap().erase(SignatureKey(s.signature));
  for (int obj : s.signature) {
    --sig_member_count_[static_cast<size_t>(obj)];
  }
  s.signature.clear();
  s.occupied = false;
  --num_occupied_;
  free_subdomains_.push_back(sd);
}

std::vector<int> SubdomainIndex::SignatureMembers() const {
  std::vector<int> members;
  for (int i = 0; i < static_cast<int>(sig_member_count_.size()); ++i) {
    if (sig_member_count_[static_cast<size_t>(i)] > 0) members.push_back(i);
  }
  return members;
}

std::vector<double> SubdomainIndex::ThresholdsAndScores(
    int target, std::vector<double>* scores) const {
  std::vector<double> t(static_cast<size_t>(queries_->size()),
                        std::numeric_limits<double>::quiet_NaN());
  const Dataset& data = view_->dataset();
  const bool in_range = target >= 0 && target < data.size();
  const bool active = in_range && data.is_active(target);
  scores->clear();
  if (in_range) query_kernel_.ScoreAll(view_->coeffs(target), scores);
  // The kernel's scores equal view_->Score bit for bit, the scores every
  // signature was ranked by, so the (score, id) test below is exact: an
  // active target ranks in q's top k iff it sorts at or before q's k-th
  // entry. Only then does excluding it move t_q to the (k+1)-th entry.
  size_t d = 0;
  for (const auto& block : query_kernel_.blocks()) {
    for (const int q : block->ids) {
      const size_t slot = static_cast<size_t>(q);
      const double kth = kth_score_[slot];
      double t_q = kth;
      if (active) {
        const double s = (*scores)[d];
        if (s < kth || (s == kth && target <= kth_id_[slot])) {
          t_q = SignatureEntry(q, static_cast<size_t>(queries_->query(q).k))
                    .score;
        }
      }
      t[slot] = t_q;
      ++d;
    }
  }
  return t;
}

std::vector<double> SubdomainIndex::HitThresholds(int target) const {
  std::vector<double> scores;
  return ThresholdsAndScores(target, &scores);
}

int SubdomainIndex::HitCount(int target) const {
  return static_cast<int>(HitSet(target).size());
}

std::vector<int> SubdomainIndex::HitSet(int target) const {
  std::vector<double> scores;
  const std::vector<double> t = ThresholdsAndScores(target, &scores);
  std::vector<int> out;
  if (scores.empty()) return out;
  size_t d = 0;
  for (const auto& block : query_kernel_.blocks()) {
    for (const int q : block->ids) {
      if (HitByThreshold(scores[d++], t[static_cast<size_t>(q)])) {
        out.push_back(q);
      }
    }
  }
  return out;
}

Status SubdomainIndex::OnQueryAdded(int q) {
  IQ_TRACE_SCOPE_ARG2("SubdomainIndex::OnQueryAdded", q, epoch_);
  if (q < 0 || q >= queries_->size() || !queries_->is_active(q)) {
    return Status::InvalidArgument("query id is not an active query");
  }
  if (static_cast<size_t>(q) < aug_w_.size() &&
      sd_of_.size() > static_cast<size_t>(q) &&
      sd_of_[static_cast<size_t>(q)] >= 0) {
    return Status::AlreadyExists("query already indexed");
  }
  while (aug_w_.size() < static_cast<size_t>(queries_->size())) {
    aug_w_.push_back(Vec());
    kth_score_.push_back(std::numeric_limits<double>::infinity());
    kth_id_.push_back(-1);
  }
  sd_of_.resize(static_cast<size_t>(queries_->size()), -1);
  aug_w_.Mutable(static_cast<size_t>(q)) =
      view_->form().AugmentWeights(queries_->query(q).weights);
  RepackQuery(q);
  const Vec& w = aug_w_[static_cast<size_t>(q)];

  const int k = queries_->query(q).k;
  if (k >= kappa_) {
    // κ growth (DESIGN.md §2): a prefix of κ <= k ranks cannot answer this
    // query's top-k, so every active query is re-ranked at κ = k + 1 and
    // regrouped — Build's grouping in place, keeping the epoch, the pool
    // and the running maintenance counters.
    const int cells_before = num_occupied_;
    kappa_ = k + 1;
    const size_t ranked = GroupQueries().size();
    maintenance_rerank_events_ += ranked - 1;
    maintenance_affected_subdomains_ += static_cast<size_t>(cells_before);
    MutableRTree().Insert(w, q);
    IndexMetrics::Get().num_subdomains->Set(num_occupied_);
    return Status::Ok();
  }

  // kNN shortcut (§4.3): try the subdomains of nearby query points first.
  int sd = -1;
  for (const auto& [nbr, dist] : rtree_->KNearest(w, 4)) {
    (void)dist;
    int cand = sd_of_[static_cast<size_t>(nbr)];
    if (cand < 0) continue;
    if (SignatureMatches(w, Cell(cand).signature)) {
      sd = cand;
      ++knn_shortcut_hits_;
      IndexMetrics::Get().signature_cache_hits->Increment();
      break;
    }
  }
  if (sd < 0) {
    sd = FindOrCreateSubdomain(std::move(RankSignatures({q}).front()));
  }
  AttachQueryToSubdomain(q, sd);
  MutableRTree().Insert(w, q);
  return Status::Ok();
}

Status SubdomainIndex::OnQueryRemoved(int q) {
  IQ_TRACE_SCOPE_ARG2("SubdomainIndex::OnQueryRemoved", q, epoch_);
  if (q < 0 || q >= static_cast<int>(sd_of_.size()) ||
      sd_of_[static_cast<size_t>(q)] < 0) {
    return Status::NotFound("query is not indexed");
  }
  RepackQuery(q);
  MutableRTree().Remove(aug_w_[static_cast<size_t>(q)], q);
  DetachQueryFromSubdomain(q);
  return Status::Ok();
}

Status SubdomainIndex::OnObjectAdded(int id) {
  IQ_TRACE_SCOPE_ARG2("SubdomainIndex::OnObjectAdded", id, epoch_);
  if (id < 0 || id >= view_->dataset().size() ||
      !view_->dataset().is_active(id)) {
    return Status::InvalidArgument("object id is not an active object");
  }
  RepackObject(id);
  sig_member_count_.resize(static_cast<size_t>(view_->dataset().size()), 0);
  const Vec& c = view_->coeffs(id);
  std::vector<int> touched_sds;

  // A new object can only change a query's signature when it enters the
  // top-κ prefix; test against the current κ-th member first. One query-
  // kernel pass scores the object under every active query, in ascending
  // query id (Dot(c, w) bit for bit).
  std::vector<double> scores;
  query_kernel_.ScoreAll(c, &scores);
  const std::vector<int> active_queries = query_kernel_.ids();
  for (size_t d = 0; d < active_queries.size(); ++d) {
    const int q = active_queries[d];
    int sd = sd_of_[static_cast<size_t>(q)];
    const Vec& w = aug_w_[static_cast<size_t>(q)];
    const std::vector<int>& sig = Cell(sd).signature;
    const double score_new = scores[d];
    bool enters;
    if (static_cast<int>(sig.size()) < kappa_) {
      enters = true;  // prefix not full: the new object always joins it
    } else {
      int last = sig.back();
      // iq-lint: allow(raw-scoring-loop): O(kappa) prefix repair
      double last_score = view_->Score(last, w);
      enters = score_new < last_score ||
               (score_new == last_score && id < last);
    }
    if (!enters) continue;
    // Rebuild the prefix by inserting into the ordered member list.
    std::vector<std::pair<double, int>> ranked;
    ranked.reserve(sig.size() + 1);
    // iq-lint: allow(raw-scoring-loop): O(kappa) prefix repair
    for (int obj : sig) ranked.emplace_back(view_->Score(obj, w), obj);
    ranked.emplace_back(score_new, id);
    std::sort(ranked.begin(), ranked.end());
    if (static_cast<int>(ranked.size()) > kappa_) ranked.pop_back();
    std::vector<int> new_sig;
    new_sig.reserve(ranked.size());
    for (const auto& [s, obj] : ranked) new_sig.push_back(obj);
    int old_sd = sd_of_[static_cast<size_t>(q)];
    if (std::find(touched_sds.begin(), touched_sds.end(), old_sd) ==
        touched_sds.end()) {
      touched_sds.push_back(old_sd);
    }
    DetachQueryFromSubdomain(q);
    AttachQueryToSubdomain(q, FindOrCreateSubdomain(std::move(new_sig)));
    ++maintenance_rerank_events_;
  }
  maintenance_affected_subdomains_ += touched_sds.size();
  IndexMetrics::Get().num_subdomains->Set(num_occupied_);
  return Status::Ok();
}

Status SubdomainIndex::OnObjectRemoved(int id) {
  IQ_TRACE_SCOPE_ARG2("SubdomainIndex::OnObjectRemoved", id, epoch_);
  if (id < 0 || id >= static_cast<int>(sig_member_count_.size())) {
    return Status::OutOfRange("object id out of range");
  }
  // The re-ranks below score against the object kernel, so it must drop the
  // (now inactive) object's row first.
  RepackObject(id);
  // Collect the queries of every cell whose signature holds the object, in
  // ascending cell id. sig_member_count_ counts those cells exactly (where
  // paper §4.3 keeps a Bloom filter over subdomain boundaries), so an
  // object no signature holds scans no cell, and the scan stops at the
  // last cell that holds it.
  std::vector<int> affected;
  const int holders = sig_member_count_[static_cast<size_t>(id)];
  uint64_t visited = 0;
  int affected_cells = 0;
  for (int sd = 0; affected_cells < holders &&
                   sd < static_cast<int>(subdomains_.size());
       ++sd) {
    const Subdomain& s = Cell(sd);
    if (!s.occupied) continue;
    ++visited;
    if (std::find(s.signature.begin(), s.signature.end(), id) ==
        s.signature.end()) {
      continue;
    }
    ++affected_cells;
    affected.insert(affected.end(), s.query_ids.begin(), s.query_ids.end());
  }
  IndexMetrics::Get().cells_visited->Increment(visited);
  for (int q : affected) {
    DetachQueryFromSubdomain(q);
  }
  // Re-rank the affected queries (the §4.3 hot loop); cell creation stays
  // serial in `affected` order so ids match the serial path.
  std::vector<std::vector<int>> sigs = RankSignatures(affected);
  for (size_t i = 0; i < affected.size(); ++i) {
    AttachQueryToSubdomain(affected[i],
                           FindOrCreateSubdomain(std::move(sigs[i])));
  }
  maintenance_rerank_events_ += affected.size();
  maintenance_affected_subdomains_ += static_cast<size_t>(affected_cells);
  IndexMetrics::Get().num_subdomains->Set(num_occupied_);
  return Status::Ok();
}

namespace {

std::string IntListString(const std::vector<int>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(v[static_cast<size_t>(i)]);
  }
  s += "]";
  return s;
}

}  // namespace

Status SubdomainIndex::CheckInvariants() const {
  const int m = queries_->size();
  if (static_cast<int>(sd_of_.size()) != m ||
      static_cast<int>(aug_w_.size()) != m ||
      static_cast<int>(kth_score_.size()) != m ||
      static_cast<int>(kth_id_.size()) != m) {
    return Status::Internal("per-query tables are not sized to the QuerySet");
  }

  // 1. Query → subdomain assignment, checked in both directions.
  for (int q = 0; q < m; ++q) {
    int sd = sd_of_[static_cast<size_t>(q)];
    if (!queries_->is_active(q)) {
      if (sd >= 0) {
        return Status::Internal("inactive query " + std::to_string(q) +
                                " is still assigned to subdomain " +
                                std::to_string(sd));
      }
      continue;
    }
    if (sd < 0 || sd >= static_cast<int>(subdomains_.size()) ||
        !Cell(sd).occupied) {
      return Status::Internal("active query " + std::to_string(q) +
                              " is not assigned to an occupied subdomain");
    }
    const std::vector<int>& members = Cell(sd).query_ids;
    if (std::find(members.begin(), members.end(), q) == members.end()) {
      return Status::Internal("query " + std::to_string(q) +
                              " claims subdomain " + std::to_string(sd) +
                              " but is missing from its member list");
    }
    // A prefix shorter than k + 1 answers the query's top-k only when it
    // holds every active object.
    const int k = queries_->query(q).k;
    const size_t sig_len = Cell(sd).signature.size();
    if (k >= kappa_ &&
        sig_len < static_cast<size_t>(view_->dataset().num_active())) {
      return Status::Internal(
          "query " + std::to_string(q) + " has k = " + std::to_string(k) +
          " >= kappa = " + std::to_string(kappa_) + ", but its signature " +
          "holds only " + std::to_string(sig_len) + " of " +
          std::to_string(view_->dataset().num_active()) + " active objects");
    }
  }

  // 2. Occupancy and membership counters re-count.
  int occupied = 0;
  std::vector<int> member_recount(sig_member_count_.size(), 0);
  for (int sd = 0; sd < static_cast<int>(subdomains_.size()); ++sd) {
    const Subdomain& s = Cell(sd);
    if (!s.occupied) continue;
    ++occupied;
    if (s.query_ids.empty()) {
      return Status::Internal("occupied subdomain " + std::to_string(sd) +
                              " has no member queries (should have been "
                              "released)");
    }
    for (int q : s.query_ids) {
      if (q < 0 || q >= m || sd_of_[static_cast<size_t>(q)] != sd) {
        return Status::Internal("subdomain " + std::to_string(sd) +
                                " lists query " + std::to_string(q) +
                                " that is not assigned back to it");
      }
    }
    for (int obj : s.signature) {
      if (obj < 0 || obj >= static_cast<int>(member_recount.size())) {
        return Status::Internal("subdomain " + std::to_string(sd) +
                                " signature holds out-of-range object " +
                                std::to_string(obj));
      }
      ++member_recount[static_cast<size_t>(obj)];
    }
  }
  if (occupied != num_occupied_) {
    return Status::Internal(
        "occupied-subdomain counter disagrees with a re-count: counter " +
        std::to_string(num_occupied_) + ", re-count " +
        std::to_string(occupied));
  }
  if (static_cast<int>(signature_to_sd_->size()) != num_occupied_) {
    return Status::Internal("signature hash table holds " +
                            std::to_string(signature_to_sd_->size()) +
                            " entries for " + std::to_string(num_occupied_) +
                            " occupied subdomains");
  }
  for (size_t obj = 0; obj < member_recount.size(); ++obj) {
    if (member_recount[obj] != sig_member_count_[obj]) {
      return Status::Internal(
          "signature-membership counter for object " + std::to_string(obj) +
          " disagrees with a re-count: counter " +
          std::to_string(sig_member_count_[obj]) + ", re-count " +
          std::to_string(member_recount[obj]));
    }
  }

  // 3. Cached total orders agree with direct f_p(q) re-ranking: a full
  // recompute at each cell's representative query, plus the cheaper
  // signature-match scan at every other member query.
  for (int sd = 0; sd < static_cast<int>(subdomains_.size()); ++sd) {
    const Subdomain& s = Cell(sd);
    if (!s.occupied) continue;
    int rep = s.query_ids.front();
    std::vector<int> fresh = std::move(RankSignatures({rep}).front());
    if (fresh != s.signature) {
      size_t pos = 0;
      while (pos < fresh.size() && pos < s.signature.size() &&
             fresh[pos] == s.signature[pos]) {
        ++pos;
      }
      return Status::Internal(
          "subdomain " + std::to_string(sd) +
          ": cached signature disagrees with direct re-ranking at "
          "representative query " +
          std::to_string(rep) + " (first divergence at position " +
          std::to_string(pos) + "): cached " + IntListString(s.signature) +
          ", re-ranked " + IntListString(fresh));
    }
    for (int q : s.query_ids) {
      if (q == rep) continue;
      if (!SignatureMatches(aug_w_[static_cast<size_t>(q)], s.signature)) {
        return Status::Internal("query " + std::to_string(q) +
                                " no longer ranks according to the cached "
                                "signature of its subdomain " +
                                std::to_string(sd));
      }
    }
  }

  // 4. Each active query's stored k-th entry is its signature's k-th entry,
  // score bit for bit (HitThresholds reads it; after check 3, so a
  // corrupted signature is blamed on the ranking, not on its entries).
  for (int q = 0; q < m; ++q) {
    if (!queries_->is_active(q)) continue;
    const size_t slot = static_cast<size_t>(q);
    const ScoredObject kth = SignatureEntry(
        q, static_cast<size_t>(queries_->query(q).k) - 1);
    if (kth_id_[slot] != kth.id ||
        std::bit_cast<uint64_t>(kth_score_[slot]) !=
            std::bit_cast<uint64_t>(kth.score)) {
      return Status::Internal(
          "query " + std::to_string(q) + ": stored k-th entry (object " +
          std::to_string(kth_id_[slot]) + ", score " +
          std::to_string(kth_score_[slot]) +
          ") disagrees with its signature's (object " +
          std::to_string(kth.id) + ", score " + std::to_string(kth.score) +
          ")");
    }
  }

  // 5. The R-tree mirrors the active queries exactly.
  if (rtree_ == nullptr) return Status::Internal("R-tree is missing");
  IQ_RETURN_IF_ERROR(rtree_->CheckInvariants());
  if (static_cast<int>(rtree_->size()) != queries_->num_active()) {
    return Status::Internal("R-tree holds " + std::to_string(rtree_->size()) +
                            " query points for " +
                            std::to_string(queries_->num_active()) +
                            " active queries");
  }
  return Status::Ok();
}

void SubdomainIndex::TestOnlyCorruptSignature(int sd) {
  Subdomain& s = MutableCell(sd);
  IQ_CHECK(s.occupied && s.signature.size() >= 2)
      << "corruption hook needs an occupied subdomain with >= 2 members";
  std::swap(s.signature[0], s.signature[1]);
}

size_t SubdomainIndex::MemoryBytes() const {
  // Sizes, not capacities: the figure depends on what the index holds, not
  // on how its tables grew, so a hook-patched clone and a replayed one
  // agree.
  size_t bytes = sizeof(SubdomainIndex);
  for (size_t q = 0; q < aug_w_.size(); ++q) {
    bytes += aug_w_[q].size() * sizeof(double);
  }
  bytes += kth_score_.size() * sizeof(double) + kth_id_.size() * sizeof(int);
  bytes += sd_of_.size() * sizeof(int);
  for (const auto& s : subdomains_) {
    bytes += sizeof(Subdomain) + sizeof(std::shared_ptr<Subdomain>);
    bytes += s->signature.size() * sizeof(int);
    bytes += s->query_ids.size() * sizeof(int);
  }
  bytes += sig_member_count_.size() * sizeof(int);
  if (rtree_ != nullptr) bytes += rtree_->MemoryBytes();
  bytes += object_kernel_.MemoryBytes() + query_kernel_.MemoryBytes();
  return bytes;
}

}  // namespace iq
