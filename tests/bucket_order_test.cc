#include "util/bucket_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/random.h"

namespace iq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Item {
  double key;
  uint32_t id;
};
struct ItemKey {
  double operator()(const Item& i) const { return i.key; }
};
struct ItemLess {
  bool operator()(const Item& a, const Item& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
};

std::vector<Item> Items(const std::vector<double>& keys) {
  std::vector<Item> out;
  for (size_t i = 0; i < keys.size(); ++i) {
    out.push_back({keys[i], static_cast<uint32_t>(i)});
  }
  return out;
}

/// Probes: every key, its neighbours, the infinities, both zeros and NaN.
std::vector<double> Probes(const std::vector<double>& keys) {
  std::vector<double> out = {-kInf, kInf, 0.0, -0.0,
                             std::numeric_limits<double>::quiet_NaN(), 1.0,
                             -1.0};
  for (double k : keys) {
    out.push_back(k);
    out.push_back(std::nextafter(k, -kInf));
    out.push_back(std::nextafter(k, kInf));
  }
  return out;
}

/// The helper's order equals std::sort's, whether sorted at once or one
/// position at a time, and its counts equal std::upper_bound's, before and
/// after any bucket is sorted.
void ExpectLikeSort(const std::vector<double>& keys, int step) {
  SCOPED_TRACE(testing::Message() << keys.size() << " keys, step " << step);
  const std::vector<Item> in = Items(keys);
  std::vector<Item> sorted = in;
  std::sort(sorted.begin(), sorted.end(), ItemLess{});
  std::vector<double> sorted_keys;
  for (const Item& i : sorted) sorted_keys.push_back(i.key);

  BucketOrder<Item, ItemKey> order;
  order.Assign(in);
  ASSERT_EQ(order.size(), keys.size());
  auto expect_counts = [&] {
    for (double x : Probes(keys)) {
      const size_t want = static_cast<size_t>(
          std::upper_bound(sorted_keys.begin(), sorted_keys.end(), x) -
          sorted_keys.begin());
      EXPECT_EQ(order.CountAtMost(x), want) << "x = " << x;
      if (std::isnan(x)) continue;
      // x's bucket splits the items: keys below x before it, above after.
      const auto [begin, end] = order.BucketRange(x);
      for (size_t i = 0; i < begin; ++i) {
        EXPECT_LT(order.items()[i].key, x) << "x = " << x << ", item " << i;
      }
      for (size_t i = end; i < keys.size(); ++i) {
        EXPECT_GT(order.items()[i].key, x) << "x = " << x << ", item " << i;
      }
    }
  };
  expect_counts();
  for (size_t pos = 0; pos < keys.size(); pos += static_cast<size_t>(step)) {
    order.SortThrough(pos, ItemLess{});
    for (size_t i = 0; i <= pos; ++i) {
      ASSERT_EQ(order.items()[i].id, sorted[i].id) << "position " << i;
    }
  }
  order.SortThrough(keys.size(), ItemLess{});
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(order.items()[i].id, sorted[i].id) << "position " << i;
  }
  expect_counts();
}

TEST(BucketOrderTest, EdgeSetsMatchSortAndUpperBound) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  const std::vector<std::vector<double>> sets = {
      {},
      {3.5},
      {-kInf},
      {kInf, kInf},
      {2.0, 2.0, 2.0, 2.0, 2.0},
      {0.0, -0.0, 0.0, -0.0, 1.0, -1.0},
      {kInf, -kInf, 0.5, kInf, -kInf, 0.5, -0.0, 0.0},
      {1.0, 1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 2.0, 1.0},
      {-huge, huge, 0.0, -huge, huge},  // the range overflows
      {0.0, tiny, 2 * tiny, tiny, 0.0},  // a subnormal range
      {1.0, std::nextafter(1.0, 2.0), 1.0, kInf},
      {5.0, 4.0, 3.0, 2.0, 1.0, 0.0, -1.0},
      {1e-300, 1e300, 1.0, 1e-300, 1e300},
  };
  for (const auto& keys : sets) {
    for (int step : {1, 2, 5}) ExpectLikeSort(keys, step);
  }
}

TEST(BucketOrderTest, SeededKeysMatchSortAndUpperBound) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(0, 300));
    std::vector<double> keys;
    for (int i = 0; i < n; ++i) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind == 0) {
        keys.push_back(rng.Bernoulli(0.5) ? kInf : -kInf);
      } else if (kind == 1 && !keys.empty()) {
        keys.push_back(keys[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(keys.size()) - 1))]);
      } else if (kind == 2) {
        keys.push_back(std::exp(rng.UniformDouble(-40.0, 40.0)));
      } else {
        keys.push_back(rng.UniformDouble(-1.0, 1.0));
      }
    }
    ExpectLikeSort(keys, 1 + trial % 7);
  }
}

// Assign reuses its storage: a second, smaller set leaves nothing of the
// first behind.
TEST(BucketOrderTest, ReassignStartsOver) {
  BucketOrder<Item, ItemKey> order;
  order.Assign(Items({5.0, 1.0, 3.0, 2.0}));
  order.SortThrough(3, ItemLess{});
  order.Assign(Items({9.0, 7.0}));
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(order.CountAtMost(8.0), 1u);
  order.SortThrough(1, ItemLess{});
  EXPECT_EQ(order.items()[0].id, 1u);
  EXPECT_EQ(order.items()[1].id, 0u);
}

}  // namespace
}  // namespace iq
