#ifndef IQ_CORE_SUBDOMAIN_INDEX_H_
#define IQ_CORE_SUBDOMAIN_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/function_view.h"
#include "core/query.h"
#include "core/score_kernel.h"
#include "index/rtree.h"
#include "topk/topk.h"
#include "util/annotations.h"
#include "util/cow_chunks.h"
#include "util/status.h"

namespace iq {

class ThreadPool;

/// Options for SubdomainIndex::Build.
struct SubdomainIndexOptions {
  /// Signature prefix length κ. Queries are grouped by the identity of their
  /// ordered top-κ objects — the scalable equivalent of the subdomain
  /// partition of Algorithm 1 (see DESIGN.md §2): two queries share a
  /// truncated subdomain iff every rank that can influence any top-k result
  /// (k <= max_k < κ) is identical. -1 = max_k + 1; an explicit κ <= max_k
  /// is rejected. OnQueryAdded grows κ past a larger k.
  int kappa = -1;
  int rtree_max_entries = 16;
  /// Non-owning worker pool (DESIGN.md §8). When set, Build's ranking
  /// (signature computation) and the §4.3 maintenance re-ranks fan tiles of
  /// queries out over the pool; the subdomain cells are still created
  /// serially in query-id order, so cell ids and contents match the serial
  /// build exactly. The pool must outlive the index. nullptr = serial.
  ThreadPool* pool = nullptr;
  /// Epoch id stamped onto the built index and its maintenance-hook trace
  /// scopes (DESIGN.md §12). IqEngine starts at 1; standalone indexes keep
  /// 0.
  uint64_t epoch = 0;
};

/// The paper's query index (§4.1): query points grouped by subdomain and
/// indexed in an R-tree over the (augmented) weight domain.
///
/// Responsibilities:
///  * build-time: find each query's subdomain (signature), cache the shared
///    ranking prefix — this is the expensive ranking work that ESE reuses —
///    and store each query's k-th signature entry;
///  * query-time: a target's hit thresholds t_q (the score of each query's
///    k-th best competitor) in one kernel pass over the queries, read off
///    the stored k-th entries, sort-free;
///  * geometric retrieval: the R-tree supports the affected-subspace (wedge)
///    searches of Algorithm 2;
///  * maintenance (§4.3): add/remove query (kNN candidate subdomains),
///    add/remove object (signature patching; the exact per-object count of
///    signatures holding the object decides whether a removal scans the
///    cells at all).
///
/// Concurrency: externally synchronized, frozen-after-publish (DESIGN.md
/// §12). The index owns no lock. In the engine's epoch architecture every
/// published index is immutable: readers pin the owning EpochSnapshot (via
/// IqEngine::Snapshot()) and call the const query-time surface
/// (HitThresholds, HitCount, HitSet, the R-tree searches) from any
/// number of threads with no lock at all. The On*() maintenance hooks run
/// only on an *unpublished* clone — CloneCow() shares the subdomain cells
/// and the R-tree with the parent epoch and the hooks copy-on-write the
/// cells they touch — and only under the writer's serialization
/// (IqEngine::mu_). Standalone (non-engine) indexes keep the old contract:
/// one owner serializes hooks against reads. The mutable members below
/// carry IQ_GUARDED_BY_CALLER markers naming the writer lock; the
/// annotations are documentation, not compiler-enforced, because the
/// guarding mutex lives in another class.
class SubdomainIndex {
 public:
  /// `view` and `queries` must outlive the index. Both may be mutated later
  /// only through the On*() update hooks below (plus the owners' own
  /// mutators), never behind the index's back.
  static Result<SubdomainIndex> Build(const FunctionView* view,
                                      const QuerySet* queries,
                                      SubdomainIndexOptions options = {});

  SubdomainIndex(SubdomainIndex&&) = default;
  SubdomainIndex& operator=(SubdomainIndex&&) = default;

  /// Copy-on-write clone for the next epoch (DESIGN.md §12): the subdomain
  /// cells, the R-tree, the signature map, the augmented-weight and k-th
  /// entry chunks and both kernels' blocks are *shared* with this index
  /// (pointer copies); the small per-query and per-object tables are
  /// copied, and `view`/`queries` rebind the clone to the next epoch's own
  /// owners. The clone's maintenance hooks then clone any cell they touch
  /// before mutating it (the §4.3 affected-subspace computation decides
  /// which), counted by iq.index.cow_cells_cloned — untouched cells stay
  /// shared across arbitrarily many epochs. `this` must be treated as
  /// frozen while any clone of it is alive.
  SubdomainIndex CloneCow(const FunctionView* view, const QuerySet* queries,
                          uint64_t epoch) const;

  const FunctionView& view() const { return *view_; }
  const QuerySet& queries() const { return *queries_; }
  const RTree& rtree() const { return *rtree_; }

  int kappa() const { return kappa_; }
  /// Epoch id this index was built or cloned for (0 = standalone).
  uint64_t epoch() const { return epoch_; }
  /// Number of non-empty subdomains.
  int num_subdomains() const { return num_occupied_; }
  /// Subdomain id of query q (-1 when the query is inactive).
  int subdomain_of(int q) const { return sd_of_[static_cast<size_t>(q)]; }
  /// Ordered ids of the top-κ objects shared by every query in `sd`.
  const std::vector<int>& signature(int sd) const {
    return subdomains_[static_cast<size_t>(sd)]->signature;
  }
  /// Query ids currently assigned to `sd`.
  const std::vector<int>& subdomain_queries(int sd) const {
    return subdomains_[static_cast<size_t>(sd)]->query_ids;
  }
  /// Augmented weight vector of query q (bias slot included).
  const Vec& aug_weights(int q) const {
    return aug_w_[static_cast<size_t>(q)];
  }
  /// Every query's augmented weights, by id; copying the table shares its
  /// chunks. Rows of inactive queries are stale or empty.
  const CowChunks<Vec>& aug_weight_rows() const { return aug_w_; }

  /// SoA batch-scoring kernels (DESIGN.md §13), never stale.
  /// `object_kernel()` mirrors the active FunctionView rows (signature
  /// ranking scores against it); `query_kernel()` mirrors the active
  /// queries' augmented weights (ESE scan evaluation and OnObjectAdded
  /// score against it). Build() packs both; CloneCow() shares their blocks;
  /// each On*() hook re-packs the one block of the row it touches.
  const ScoreKernel& object_kernel() const { return object_kernel_; }
  const ScoreKernel& query_kernel() const { return query_kernel_; }
  /// Re-packs both kernels from scratch out of the current owners: the
  /// oracle the hook-patched kernels equal byte for byte. Caller holds the
  /// writer lock (or owns the index exclusively, standalone).
  void RebuildScoreKernels();

  /// Object ids that appear in at least one signature — the only possible
  /// "boundary" competitors for hit changes; the geometric ESE path loops
  /// over these instead of all n objects.
  std::vector<int> SignatureMembers() const;

  /// t_q for every active query, by query id (inactive slots = NaN): the
  /// score of the k-th best object under q excluding `target`, +infinity
  /// when fewer than k competitors exist. One query-kernel pass scores the
  /// target under every active query; t_q is then q's stored k-th entry,
  /// or, when the target is active and ranks in q's top k, its (k+1)-th
  /// signature entry (DESIGN.md §2). Bit-identical to a full KthBestScore
  /// scan.
  std::vector<double> HitThresholds(int target) const;

  /// The active queries an object hits in its original position
  /// (HitByThreshold of its score against HitThresholds), ascending, and
  /// their count. An id outside the dataset hits nothing.
  int HitCount(int target) const;
  std::vector<int> HitSet(int target) const;

  // ---- §4.3 maintenance hooks (call after mutating the owners) ----

  /// Query `q` was appended to the QuerySet. Uses the kNN candidate-
  /// subdomain shortcut before falling back to a full signature computation.
  /// A query with k >= κ instead grows κ to k + 1 and regroups every
  /// active query (DESIGN.md §2).
  Status OnQueryAdded(int q);
  /// Query `q` was tombstoned in the QuerySet.
  Status OnQueryRemoved(int q);
  /// Object `id` was appended (FunctionView row already appended).
  Status OnObjectAdded(int id);
  /// Object `id` was tombstoned (dataset row inactive). Re-ranks the
  /// queries of every cell whose signature holds `id`; an object no
  /// signature holds scans no cell. An in-place attribute change is this
  /// hook, then the row's new values and its reactivation, then
  /// OnObjectAdded (IqEngine::ApplyStrategy's order).
  Status OnObjectRemoved(int id);

  // ---- correctness tooling ----

  /// Deep validation of the cached subdomain structure against direct
  /// re-ranking (the cross-check-against-naive discipline; see DESIGN.md
  /// "Correctness tooling"): the query ↔ subdomain assignment is consistent
  /// in both directions, occupancy/membership counters re-count, every
  /// cell's cached total order agrees with a fresh f_p(q) re-ranking at the
  /// cell's representative query (and signature-matches every other member
  /// query), and the R-tree passes its own CheckInvariants. Returns the
  /// first defect found, precisely located; Ok when sound. After the
  /// re-ranking check it re-derives every active query's stored k-th entry
  /// from its cell's signature. O(S·n·κ).
  Status CheckInvariants() const;

  /// Test-only: corrupts subdomain `sd`'s cached signature by swapping its
  /// first two members, so CheckInvariants() must flag the cell. Never call
  /// outside tests.
  void TestOnlyCorruptSignature(int sd);

  // ---- stats ----
  double build_seconds() const { return build_seconds_; }
  size_t MemoryBytes() const;
  /// How many OnQueryAdded calls were resolved by the kNN shortcut.
  size_t knn_shortcut_hits() const { return knn_shortcut_hits_; }

  /// Running total of query re-rank events across the On*() maintenance
  /// hooks: each time a query's cached subdomain assignment had to be
  /// recomputed (full re-rank or local signature patch) this advances by
  /// one. IqEngine::ApplyStrategy diffs it to derive the ESE reuse ratio.
  size_t maintenance_rerank_events() const {
    return maintenance_rerank_events_;
  }
  /// Running total of distinct subdomains touched per maintenance hook call
  /// (the "affected subspaces" of §4.3 update handling).
  size_t maintenance_affected_subdomains() const {
    return maintenance_affected_subdomains_;
  }

 private:
  struct Subdomain {
    std::vector<int> signature;
    std::vector<int> query_ids;
    bool occupied = false;
  };

  SubdomainIndex() = default;

  /// The ordered top-κ signature of each query in `qs` (aug_w_ must hold
  /// their weights): fixed-size tiles of queries, one blocked
  /// ScoreKernel::TopKappaSignatures pass each, fanned out over the pool.
  /// The one ranking path of Build, the §4.3 hooks and CheckInvariants.
  std::vector<std::vector<int>> RankSignatures(
      const std::vector<int>& qs) const;
  /// Drops every cell and groups the active queries by their signature at
  /// the current κ, creating cells serially in ascending query id (Build,
  /// and OnQueryAdded's κ growth). Returns the active query ids.
  std::vector<int> GroupQueries();
  /// Verifies "q belongs to subdomain sd" with one unsorted scan (the
  /// signature-based analogue of the paper's boundary above/below checks).
  bool SignatureMatches(const Vec& aug_w, const std::vector<int>& sig) const;
  int FindOrCreateSubdomain(std::vector<int> signature);
  void DetachQueryFromSubdomain(int q);
  /// Assigns q to cell `sd` and refreshes q's k-th entry from the cell's
  /// signature: the one place Build, κ growth and every §4.3 hook (re)set
  /// a query's cell.
  void AttachQueryToSubdomain(int q, int sd);
  void ReleaseSubdomainIfEmpty(int sd);
  /// The object at 0-based position `rank` of q's signature and its score
  /// under q; {-1, +infinity} past the signature's end.
  ScoredObject SignatureEntry(int q, size_t rank) const;
  /// HitThresholds, plus the target's score under every active query in
  /// the query kernel's dense order (`scores` is left empty for an id
  /// outside the dataset).
  std::vector<double> ThresholdsAndScores(int target,
                                          std::vector<double>* scores) const;

  const Subdomain& Cell(int sd) const {
    return *subdomains_[static_cast<size_t>(sd)];
  }
  /// Copy-on-write access to cell `sd`: when the cell is shared with a
  /// published epoch (use_count > 1) it is cloned first, so the epoch keeps
  /// its frozen copy. Only the serialized writer calls this; a concurrent
  /// reader can drop a retired epoch's reference (making the count fall),
  /// never raise it, so a count of 1 proves exclusive ownership.
  Subdomain& MutableCell(int sd);
  /// Same discipline for the shared R-tree (query add/remove only) and the
  /// shared signature map (subdomain creation and release only).
  RTree& MutableRTree();
  std::unordered_map<std::string, int>& MutableSignatureMap();
  /// Re-packs the kernel block holding object `id` / query `q` (DESIGN.md
  /// §13).
  void RepackObject(int id);
  void RepackQuery(int q);

  const FunctionView* view_ = nullptr;
  const QuerySet* queries_ = nullptr;
  int kappa_ = 0;
  /// Non-owning; see SubdomainIndexOptions::pool. Survives engine moves
  /// because the pool object itself never relocates.
  ThreadPool* pool_ = nullptr;
  /// Epoch id (DESIGN.md §12); the maintenance-hook scopes' second arg.
  uint64_t epoch_ = 0;

  // Subdomain structure: written by Build and the On*() maintenance hooks,
  // read by everything. The writer's lock separates clone construction from
  // the publish; published epochs are frozen (see the class comment). Cells,
  // the R-tree, the signature map and the aug_w_/kth_* chunks are shared
  // across epochs and mutated only through the COW accessors above.
  CowChunks<Vec> aug_w_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  // Each query's k-th signature entry, by query id: the score and id of the
  // k-th object of its cell's signature ({+inf, -1} when the signature is
  // shorter than k). Written only by AttachQueryToSubdomain; rows of
  // inactive queries are stale.
  CowChunks<double> kth_score_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  CowChunks<int> kth_id_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  std::vector<int> sd_of_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  std::vector<std::shared_ptr<Subdomain>> subdomains_
      IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  std::vector<int> free_subdomains_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  int num_occupied_ IQ_GUARDED_BY_CALLER(IqEngine::mu_) = 0;
  std::shared_ptr<std::unordered_map<std::string, int>> signature_to_sd_
      IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  // sig_member_count_[obj] = number of occupied subdomains whose signature
  // holds obj: exact, so OnObjectRemoved knows how many cells to find.
  std::vector<int> sig_member_count_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  std::shared_ptr<RTree> rtree_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  // SoA scoring kernels (see accessors above); their immutable blocks are
  // shared with the epochs this index was cloned from.
  ScoreKernel object_kernel_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);
  ScoreKernel query_kernel_ IQ_GUARDED_BY_CALLER(IqEngine::mu_);

  double build_seconds_ = 0.0;
  size_t knn_shortcut_hits_ IQ_GUARDED_BY_CALLER(IqEngine::mu_) = 0;
  size_t maintenance_rerank_events_ IQ_GUARDED_BY_CALLER(IqEngine::mu_) = 0;
  size_t maintenance_affected_subdomains_
      IQ_GUARDED_BY_CALLER(IqEngine::mu_) = 0;
};

}  // namespace iq

#endif  // IQ_CORE_SUBDOMAIN_INDEX_H_
