#include "util/prof.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "util/annotations.h"
#include "util/timer.h"

namespace iq {
namespace prof {
namespace {

// Capture capacities. All storage is static and fixed-size so recording is
// allocation-free; overflow increments a dropped counter instead of
// blocking or growing.
constexpr int kMaxThreads = 128;
constexpr int kMaxSitesPerThread = 64;
constexpr int kMaxHeldPerThread = 32;

/// One (rank, label) accumulator. Fields are relaxed atomics: the owning
/// thread is the only writer for per-thread tables (the shared overflow
/// table may have several), and snapshotters read concurrently.
struct SiteSlot {
  std::atomic<const char*> label{nullptr};  // claim marker; set last
  std::atomic<int> rank{0};
  std::atomic<uint64_t> acquisitions{0};
  std::atomic<uint64_t> contended{0};
  std::atomic<uint64_t> wait_nanos{0};
  std::atomic<uint64_t> max_wait_nanos{0};
  std::atomic<uint64_t> held_nanos{0};
};

struct SiteTable {
  SiteSlot slots[kMaxSitesPerThread];
};

SiteTable g_tables[kMaxThreads];
/// Shared fallback once kMaxThreads distinct threads have recorded; all its
/// updates are atomic, so correctness survives, only per-thread exactness
/// of max_wait does.
SiteTable g_overflow_table;
std::atomic<int> g_num_tables{0};
std::atomic<uint64_t> g_dropped{0};

thread_local SiteTable* t_table = nullptr;

SiteTable& TableForThisThread() {
  if (t_table == nullptr) {
    int idx = g_num_tables.fetch_add(1, std::memory_order_relaxed);
    t_table = idx < kMaxThreads ? &g_tables[idx] : &g_overflow_table;
  }
  return *t_table;
}

/// Finds (or claims) the slot for (rank, label) in `table`. Claiming uses a
/// CAS on `label` so the shared overflow table stays correct; per-thread
/// tables never actually race it. Returns null when the table is full.
SiteSlot* SlotFor(SiteTable& table, LockRank rank, const char* label) {
  for (SiteSlot& slot : table.slots) {
    const char* cur = slot.label.load(std::memory_order_acquire);
    if (cur == nullptr) {
      slot.rank.store(static_cast<int>(rank), std::memory_order_relaxed);
      if (slot.label.compare_exchange_strong(cur, label,
                                             std::memory_order_acq_rel)) {
        return &slot;
      }
      // Lost the claim; fall through to re-check what won.
      cur = slot.label.load(std::memory_order_acquire);
    }
    if (cur == label &&
        slot.rank.load(std::memory_order_relaxed) == static_cast<int>(rank)) {
      return &slot;
    }
  }
  return nullptr;
}

/// Per-thread stack of currently-profiled holds, for held-time accounting.
/// Entries carry the capture epoch so holds that straddle a disable/enable
/// cycle are discarded instead of mis-credited with ancient timestamps.
struct HeldRecord {
  const void* mu = nullptr;
  SiteSlot* slot = nullptr;
  uint64_t since_ns = 0;
  uint64_t epoch = 0;
};

struct HeldStack {
  HeldRecord entries[kMaxHeldPerThread];
  int size = 0;
};

thread_local HeldStack t_held;

std::atomic<uint64_t> g_epoch{0};
std::atomic<uint64_t> g_enabled_since_ns{0};

void PopHeld(const void* mu, bool credit) {
  HeldStack& s = t_held;
  const uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  for (int i = s.size - 1; i >= 0; --i) {
    HeldRecord& rec = s.entries[i];
    if (rec.mu != mu) continue;
    if (credit && rec.epoch == epoch && rec.slot != nullptr) {
      rec.slot->held_nanos.fetch_add(MonotonicNanos() - rec.since_ns,
                                     std::memory_order_relaxed);
    }
    for (int j = i; j + 1 < s.size; ++j) s.entries[j] = s.entries[j + 1];
    --s.size;
    return;
  }
}

}  // namespace

std::atomic<bool> g_enabled{false};

void SetEnabled(bool on) {
  if (on) {
    g_epoch.fetch_add(1, std::memory_order_relaxed);
    g_enabled_since_ns.store(MonotonicNanos(), std::memory_order_relaxed);
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t EnabledSinceNanos() {
  return g_enabled_since_ns.load(std::memory_order_relaxed);
}

void Reset() {
  const int tables = std::min(g_num_tables.load(std::memory_order_relaxed),
                              kMaxThreads);
  auto reset_table = [](SiteTable& table) {
    for (SiteSlot& slot : table.slots) {
      if (slot.label.load(std::memory_order_acquire) == nullptr) break;
      slot.acquisitions.store(0, std::memory_order_relaxed);
      slot.contended.store(0, std::memory_order_relaxed);
      slot.wait_nanos.store(0, std::memory_order_relaxed);
      slot.max_wait_nanos.store(0, std::memory_order_relaxed);
      slot.held_nanos.store(0, std::memory_order_relaxed);
    }
  };
  for (int i = 0; i < tables; ++i) reset_table(g_tables[i]);
  reset_table(g_overflow_table);
  g_dropped.store(0, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::vector<MutexSiteStats> SnapshotMutexSites() {
  // Merge per-thread slots by (rank, label). The map keeps the output
  // deterministic (rank order, then label pointer order is avoided by
  // comparing label text).
  struct Key {
    int rank;
    const char* label;
    bool operator<(const Key& o) const {
      if (rank != o.rank) return rank < o.rank;
      return std::string_view(label) < std::string_view(o.label);
    }
  };
  std::map<Key, MutexSiteStats> merged;
  auto add_table = [&merged](const SiteTable& table) {
    for (const SiteSlot& slot : table.slots) {
      const char* label = slot.label.load(std::memory_order_acquire);
      if (label == nullptr) break;
      const uint64_t acq = slot.acquisitions.load(std::memory_order_relaxed);
      const uint64_t held = slot.held_nanos.load(std::memory_order_relaxed);
      if (acq == 0 && held == 0) continue;
      Key key{slot.rank.load(std::memory_order_relaxed), label};
      MutexSiteStats& out = merged[key];
      out.rank = static_cast<LockRank>(key.rank);
      out.label = label;
      out.acquisitions += acq;
      out.contended += slot.contended.load(std::memory_order_relaxed);
      out.wait_nanos += slot.wait_nanos.load(std::memory_order_relaxed);
      out.max_wait_nanos =
          std::max(out.max_wait_nanos,
                   slot.max_wait_nanos.load(std::memory_order_relaxed));
      out.held_nanos += held;
    }
  };
  const int tables = std::min(g_num_tables.load(std::memory_order_relaxed),
                              kMaxThreads);
  for (int i = 0; i < tables; ++i) add_table(g_tables[i]);
  add_table(g_overflow_table);
  std::vector<MutexSiteStats> out;
  out.reserve(merged.size());
  for (auto& [key, stats] : merged) out.push_back(stats);
  return out;
}

uint64_t DroppedRecords() {
  return g_dropped.load(std::memory_order_relaxed);
}

namespace internal {

void OnAcquired(const void* mu, LockRank rank, const char* label,
                uint64_t wait_nanos) {
  if (label == nullptr) label = LockRankName(rank);
  SiteSlot* slot = SlotFor(TableForThisThread(), rank, label);
  if (slot == nullptr) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot->acquisitions.fetch_add(1, std::memory_order_relaxed);
  if (wait_nanos > 0) {
    slot->contended.fetch_add(1, std::memory_order_relaxed);
    slot->wait_nanos.fetch_add(wait_nanos, std::memory_order_relaxed);
    uint64_t prev = slot->max_wait_nanos.load(std::memory_order_relaxed);
    while (prev < wait_nanos &&
           !slot->max_wait_nanos.compare_exchange_weak(
               prev, wait_nanos, std::memory_order_relaxed)) {
    }
  }
  HeldStack& s = t_held;
  if (s.size >= kMaxHeldPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.entries[s.size++] = HeldRecord{
      mu, slot, MonotonicNanos(), g_epoch.load(std::memory_order_relaxed)};
}

void OnReleased(const void* mu) { PopHeld(mu, /*credit=*/true); }

void OnCondWaitBegin(const void* mu) { PopHeld(mu, /*credit=*/true); }

void OnCondWaitEnd(const void* mu, LockRank rank, const char* label) {
  // Re-opens the hold record at wake-up time without counting a fresh
  // acquisition: the waiter logically owned the lock all along, but the
  // blocked interval must not read as held time.
  if (label == nullptr) label = LockRankName(rank);
  SiteSlot* slot = SlotFor(TableForThisThread(), rank, label);
  HeldStack& s = t_held;
  if (slot == nullptr || s.size >= kMaxHeldPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.entries[s.size++] = HeldRecord{
      mu, slot, MonotonicNanos(), g_epoch.load(std::memory_order_relaxed)};
}

}  // namespace internal

// Out-of-line profiled lock paths for iq::Mutex (declared in
// util/annotations.h). Defined here so the header stays dependency-light
// and the cold path stays out of the inlined fast path.

}  // namespace prof

void Mutex::LockProfiled() {
  if (mu_.try_lock()) {
    prof::internal::OnAcquired(this, rank_, label_, /*wait_nanos=*/0);
    return;
  }
  const uint64_t t0 = MonotonicNanos();
  mu_.lock();
  prof::internal::OnAcquired(this, rank_, label_, MonotonicNanos() - t0);
}

void Mutex::UnlockProfiled() {
  prof::internal::OnReleased(this);
  mu_.unlock();
}

}  // namespace iq
