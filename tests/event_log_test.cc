// Tests for the flight recorder (src/obs/event_log.*): per-kind JSON
// rendering, JSONL well-formedness (escaping, one event per line), ring
// wrap-around with drop accounting, multithreaded SolveBatch emission (this
// suite also runs under the TSan CI lane), and the engine's automatic
// dump-on-error via EngineOptions::event_dump_path.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/event_log.h"
#include "util/string_util.h"

namespace iq {
namespace {

int CountLines(const std::string& s) {
  int lines = 0;
  for (char c : s) lines += c == '\n';
  return lines;
}

TEST(EventLogTest, PerKindJsonFields) {
  Event solve = EventLog::SolveEnd("MinCost", "efficient", 3, true, 1.5, 2, 9,
                                   4, 100, 60, 500, 700, 0.25);
  std::string json = solve.ToJson();
  EXPECT_NE(json.find("\"type\":\"solve_end\""), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"MinCost\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\":\"efficient\""), std::string::npos);
  EXPECT_NE(json.find("\"hits_before\":2"), std::string::npos);
  EXPECT_NE(json.find("\"hits_after\":9"), std::string::npos);
  EXPECT_NE(json.find("\"candidates_generated\":100"), std::string::npos);
  EXPECT_NE(json.find("\"queries_reused\":700"), std::string::npos);

  std::string build = EventLog::IndexBuild(50, 12, 0.01).ToJson();
  EXPECT_NE(build.find("\"type\":\"index_build\""), std::string::npos);
  EXPECT_NE(build.find("\"num_queries\":50"), std::string::npos);
  EXPECT_NE(build.find("\"num_subdomains\":12"), std::string::npos);

  std::string pool = EventLog::PoolSaturation("SolveBatch", 999, 4).ToJson();
  EXPECT_NE(pool.find("\"type\":\"pool_saturation\""), std::string::npos);
  EXPECT_NE(pool.find("\"work_units\":999"), std::string::npos);
  EXPECT_NE(pool.find("\"num_threads\":4"), std::string::npos);
}

TEST(EventLogTest, NoteIsJsonEscaped) {
  Event e = EventLog::Error("IqEngine", "line1\nline2 \"quoted\" \\ \t\x01");
  std::string json = e.ToJson();
  // The rendered line must stay a single line with all specials escaped.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\ \\t\\u0001"), std::string::npos);
}

TEST(EventLogTest, RecordSnapshotOrder) {
  EventLog& log = EventLog::Global();
  log.Clear();
  log.Record(EventLog::IndexBuild(1, 1, 0.1));
  log.Record(EventLog::IndexMaintenance("OnQueryAdded", 7, true));
  log.Record(EventLog::Error("test", "boom"));
  std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(events[0].type, EventType::kIndexBuild);
  EXPECT_EQ(events[2].type, EventType::kError);
  EXPECT_EQ(CountLines(log.ToJsonl()), 3);
}

TEST(EventLogTest, RingWrapAroundKeepsNewestAndCountsDrops) {
  EventLog& log = EventLog::Global();
  log.Clear();
  uint64_t dropped_before = log.dropped_count();
  // A single thread always lands in one stripe, so overshooting the stripe
  // capacity must wrap that ring and count the overwrites as drops.
  const int overshoot = 100;
  const int total = static_cast<int>(EventLog::kStripeCapacity) + overshoot;
  for (int i = 0; i < total; ++i) {
    log.Record(EventLog::IndexMaintenance("wrap", i, true));
  }
  std::vector<Event> events = log.Snapshot();
  EXPECT_EQ(events.size(), EventLog::kStripeCapacity);
  EXPECT_GE(log.dropped_count() - dropped_before,
            static_cast<uint64_t>(overshoot));
  // The retained window is the newest events: the very last recorded id
  // must be present, the very first must have been overwritten.
  bool has_last = false, has_first = false;
  for (const Event& e : events) {
    has_last = has_last || e.target == total - 1;
    has_first = has_first || e.target == 0;
  }
  EXPECT_TRUE(has_last);
  EXPECT_FALSE(has_first);
}

TEST(EventLogTest, ConcurrentRecordFromManyThreads) {
  EventLog& log = EventLog::Global();
  log.Clear();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(EventLog::IndexMaintenance("concurrent",
                                              t * kPerThread + i, true));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Event> events = log.Snapshot();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  // Sequence numbers are unique and sorted after the merge.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(EventLogTest, SolveBatchEmitsPerItemEvents) {
  EventLog& log = EventLog::Global();
  Dataset data = MakeIndependent(60, 3, 91);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  EngineOptions eopts;
  eopts.num_threads = 4;
  auto engine = IqEngine::Create(std::move(data), LinearForm::Identity(3),
                                 MakeQueries(40, 3, 92, qopts), eopts);
  ASSERT_TRUE(engine.ok());
  log.Clear();  // after Create so the index-build event doesn't count

  std::vector<BatchItem> items;
  for (int t = 0; t < 12; ++t) {
    BatchItem item;
    item.kind =
        t % 2 == 0 ? BatchItem::Kind::kMinCost : BatchItem::Kind::kMaxHit;
    item.target = t;
    item.tau = 2;
    item.beta = 0.2;
    items.push_back(item);
  }
  auto batch = engine->SolveBatch(items);
  ASSERT_TRUE(batch.ok());

  int starts = 0, ends = 0;
  for (const Event& e : log.Snapshot()) {
    if (e.type == EventType::kSolveStart &&
        std::string(e.op) == "SolveBatch") {
      ++starts;
    }
    if (e.type == EventType::kSolveEnd && std::string(e.op) == "SolveBatch") {
      ++ends;
      EXPECT_TRUE(e.ok);
      EXPECT_GE(e.seconds, 0.0);
    }
  }
  EXPECT_EQ(starts, static_cast<int>(items.size()));
  EXPECT_EQ(ends, static_cast<int>(items.size()));
}

TEST(EventLogTest, JsonlLinesAreBalancedObjects) {
  EventLog& log = EventLog::Global();
  log.Clear();
  log.Record(EventLog::SolveStart("MinCost", "efficient", 1, 5, 0.0));
  log.Record(EventLog::SolveEnd("MinCost", "efficient", 1, false, 0.0, 0, 0,
                                0, 0, 0, 0, 0, 0.001));
  log.Record(EventLog::ApplyStrategy(1, true, 10, 20, 2, 0.002));
  log.Record(EventLog::Error("test", "with \"quotes\" and\nnewline"));
  std::string jsonl = log.ToJsonl();
  ASSERT_EQ(CountLines(jsonl), 4);
  std::istringstream stream(jsonl);
  std::string line;
  while (std::getline(stream, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // Braces and quotes balance on every line (escaped quotes excluded).
    int depth = 0, quotes = 0;
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '\\') {
        ++i;  // skip the escaped character
        continue;
      }
      if (line[i] == '{') ++depth;
      if (line[i] == '}') --depth;
      if (line[i] == '"') ++quotes;
    }
    EXPECT_EQ(depth, 0) << line;
    EXPECT_EQ(quotes % 2, 0) << line;
  }
}

TEST(EventLogTest, EngineDumpsJsonlOnError) {
  std::string dump_path =
      ::testing::TempDir() + "/iq_event_dump_on_error.jsonl";
  std::remove(dump_path.c_str());

  Dataset data = MakeIndependent(30, 3, 93);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  EngineOptions eopts;
  eopts.event_dump_path = dump_path;
  auto engine = IqEngine::Create(std::move(data), LinearForm::Identity(3),
                                 MakeQueries(20, 3, 94, qopts), eopts);
  ASSERT_TRUE(engine.ok());
  EventLog::Global().Clear();

  // An invalid target fails the solve; the engine must record the error and
  // dump the retained window to the configured path.
  auto r = engine->MinCost(-1, 3, {});
  ASSERT_FALSE(r.ok());

  Result<std::string> read = ReadFileToString(dump_path);
  ASSERT_TRUE(read.ok()) << "expected dump at " << dump_path;
  const std::string& dump = *read;
  EXPECT_NE(dump.find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(dump.find("\"op\":\"IqEngine\""), std::string::npos);
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace iq
