#include "obs/metrics.h"

#include <bit>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace iq {
namespace {

/// Bridges ThreadPool's layering-safe observer hook into the registry:
/// util/ may not depend on obs/, so the pool publishes one callback per
/// executed task and this always-linked TU turns it into iq.pool.* metrics.
struct PoolMetricsBridge {
  PoolMetricsBridge() {
    ThreadPool::SetTaskObserver(+[](uint64_t queue_wait_nanos) {
      struct Cached {
        Counter* tasks;
        Histogram* queue_wait;
      };
      static Cached c = [] {
        MetricsRegistry& reg = MetricsRegistry::Global();
        return Cached{reg.GetCounter("iq.pool.tasks"),
                      reg.GetHistogram("iq.pool.queue_wait_nanos")};
      }();
      c.tasks->Increment();
      c.queue_wait->Record(queue_wait_nanos);
    });
  }
};
const PoolMetricsBridge g_pool_metrics_bridge;

}  // namespace

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

int Histogram::BucketIndex(uint64_t v) {
  if (v == 0) return 0;
  int idx = std::bit_width(v);  // v in [2^(idx-1), 2^idx)
  return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

uint64_t Histogram::BucketLowerBound(int i) {
  if (i <= 0) return 0;
  return uint64_t{1} << (i - 1);
}

double HistogramSnapshot::Mean() const {
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  double target = p / 100.0 * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    uint64_t in_bucket = buckets[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      double lo = static_cast<double>(Histogram::BucketLowerBound(i));
      double hi = static_cast<double>(Histogram::BucketLowerBound(i + 1));
      double frac = (target - static_cast<double>(cumulative)) /
                    static_cast<double>(in_bucket);
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(
      Histogram::BucketLowerBound(static_cast<int>(buckets.size())));
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToText() const {
  size_t width = 0;
  for (const auto& [n, v] : counters) width = std::max(width, n.size());
  for (const auto& [n, v] : gauges) width = std::max(width, n.size());
  for (const HistogramSnapshot& h : histograms) {
    width = std::max(width, h.name.size());
  }
  std::string out;
  for (const auto& [n, v] : counters) {
    out += StrFormat("%-*s  %llu\n", static_cast<int>(width), n.c_str(),
                     static_cast<unsigned long long>(v));
  }
  for (const auto& [n, v] : gauges) {
    out += StrFormat("%-*s  %lld\n", static_cast<int>(width), n.c_str(),
                     static_cast<long long>(v));
  }
  for (const HistogramSnapshot& h : histograms) {
    out += StrFormat(
        "%-*s  count=%llu mean=%.1f p50=%.0f p95=%.0f p99=%.0f\n",
        static_cast<int>(width), h.name.c_str(),
        static_cast<unsigned long long>(h.count), h.Mean(), h.Percentile(50),
        h.Percentile(95), h.Percentile(99));
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [n, v] : counters) {
    out += StrFormat("%s\n    \"%s\": %llu", first ? "" : ",",
                     JsonEscape(n).c_str(),
                     static_cast<unsigned long long>(v));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [n, v] : gauges) {
    out += StrFormat("%s\n    \"%s\": %lld", first ? "" : ",",
                     JsonEscape(n).c_str(), static_cast<long long>(v));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    out += StrFormat(
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"mean\": %.3f, "
        "\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f, \"buckets\": [",
        first ? "" : ",", JsonEscape(h.name).c_str(),
        static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.sum), h.Mean(), h.Percentile(50),
        h.Percentile(95), h.Percentile(99));
    bool first_bucket = true;
    for (int i = 0; i < static_cast<int>(h.buckets.size()); ++i) {
      if (h.buckets[static_cast<size_t>(i)] == 0) continue;
      out += StrFormat(
          "%s[%llu, %llu]", first_bucket ? "" : ", ",
          static_cast<unsigned long long>(Histogram::BucketLowerBound(i)),
          static_cast<unsigned long long>(h.buckets[static_cast<size_t>(i)]));
      first_bucket = false;
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: metrics outlive every static destructor that might
  // still record into them.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.buckets.resize(Histogram::kNumBuckets);
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      hs.buckets[static_cast<size_t>(i)] = h->bucket(i);
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace iq
