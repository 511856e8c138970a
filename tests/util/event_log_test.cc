#include "util/event_log.h"

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>  // lint:allow(thread-primitives): test drives the MPMC queue and EventLog from raw threads on purpose
#include <vector>

#include "gtest/gtest.h"
#include "testing/temp_path.h"

namespace crashsim {
namespace {

using event_log_internal::BoundedQueue;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(EventBuilderTest, EmitsSchemaTimestampAndTypedFields) {
  const std::string line = EventBuilder("unit_test")
                               .Str("name", "x")
                               .Int("count", -3)
                               .UInt("id", 18446744073709551615ull)
                               .Double("ratio", 0.5)
                               .Bool("flag", true)
                               .Raw("nested", "{\"a\": 1}")
                               .Finish();
  EXPECT_EQ(line.find("{\"schema\": \"crashsim.event.v1\""), 0u);
  EXPECT_NE(line.find("\"ts_unix_ms\": "), std::string::npos);
  EXPECT_NE(line.find("\"event\": \"unit_test\""), std::string::npos);
  EXPECT_NE(line.find("\"name\": \"x\""), std::string::npos);
  EXPECT_NE(line.find("\"count\": -3"), std::string::npos);
  EXPECT_NE(line.find("\"id\": 18446744073709551615"), std::string::npos);
  EXPECT_NE(line.find("\"ratio\": 0.5"), std::string::npos);
  EXPECT_NE(line.find("\"flag\": true"), std::string::npos);
  EXPECT_NE(line.find("\"nested\": {\"a\": 1}"), std::string::npos);
  EXPECT_EQ(line.back(), '}');
}

TEST(EventBuilderTest, EscapesStringsAndRejectsNonFiniteDoubles) {
  const std::string line = EventBuilder("esc")
                               .Str("s", "a\"b\\c\nd\te")
                               .Double("inf", 1.0 / 0.0)
                               .Finish();
  EXPECT_NE(line.find("\"s\": \"a\\\"b\\\\c\\nd\\te\""), std::string::npos);
  EXPECT_NE(line.find("\"inf\": null"), std::string::npos);
}

TEST(BoundedQueueTest, RoundsCapacityUpToPowerOfTwo) {
  BoundedQueue q(5);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(BoundedQueueTest, FifoUntilFullThenRejects) {
  BoundedQueue q(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.TryPush(std::to_string(i)));
  }
  EXPECT_FALSE(q.TryPush("overflow"));
  std::string out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, std::to_string(i));
  }
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(BoundedQueueTest, SlotsAreReusableAcrossManyWraps) {
  BoundedQueue q(2);
  std::string out;
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(q.TryPush(std::to_string(round)));
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, std::to_string(round));
  }
}

TEST(BoundedQueueTest, ConcurrentProducersLoseNothingBelowCapacity) {
  BoundedQueue q(1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;  // 800 < 1024: no drops expected
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&q, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(q.TryPush(std::to_string(t * kPerThread + i)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  std::vector<bool> seen(kThreads * kPerThread, false);
  std::string out;
  int popped = 0;
  while (q.TryPop(&out)) {
    const int value = std::stoi(out);
    ASSERT_FALSE(seen[static_cast<size_t>(value)]) << "duplicate " << value;
    seen[static_cast<size_t>(value)] = true;
    ++popped;
  }
  EXPECT_EQ(popped, kThreads * kPerThread);
}

TEST(EventLogTest, WritesOneJsonLinePerEvent) {
  const test::TempPath temp("event_log_basic.jsonl");
  const std::string& path = temp.path();
  {
    EventLog::Options options;
    options.path = path;
    EventLog log(options);
    ASSERT_TRUE(log.ok());
    log.Log(EventBuilder("first").Int("n", 1).Finish());
    log.Log(EventBuilder("second").Int("n", 2).Finish());
    log.Flush();
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\": \"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\": \"second\""), std::string::npos);
}

TEST(EventLogTest, DestructorDrainsPendingLines) {
  const test::TempPath temp("event_log_drain.jsonl");
  const std::string& path = temp.path();
  {
    EventLog::Options options;
    options.path = path;
    EventLog log(options);
    for (int i = 0; i < 100; ++i) {
      log.Log(EventBuilder("tick").Int("i", i).Finish());
    }
    // No Flush: the destructor must drain everything already enqueued.
  }
  EXPECT_EQ(ReadLines(path).size(), 100u);
}

TEST(EventLogTest, AppendsAcrossInstances) {
  const test::TempPath temp("event_log_append.jsonl");
  const std::string& path = temp.path();
  for (int run = 0; run < 2; ++run) {
    EventLog::Options options;
    options.path = path;
    EventLog log(options);
    log.Log(EventBuilder("run").Int("run", run).Finish());
  }
  EXPECT_EQ(ReadLines(path).size(), 2u);
}

TEST(EventLogTest, ConcurrentLoggersAllLand) {
  const test::TempPath temp("event_log_mt.jsonl");
  const std::string& path = temp.path();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  {
    EventLog::Options options;
    options.path = path;
    options.queue_capacity = 4096;  // larger than the total: no drops
    EventLog log(options);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&log, t] {
        for (int i = 0; i < kPerThread; ++i) {
          log.Log(EventBuilder("mt").Int("t", t).Int("i", i).Finish());
        }
      });
    }
    for (std::thread& t : workers) t.join();
    log.Flush();
    EXPECT_EQ(log.dropped(), 0);
  }
  EXPECT_EQ(ReadLines(path).size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(EventLogTest, OverflowDropsAndCountsInsteadOfBlocking) {
  const test::TempPath temp("event_log_drop.jsonl");
  const std::string& path = temp.path();
  EventLog::Options options;
  options.path = path;
  options.queue_capacity = 4;
  EventLog log(options);
  // Far more lines than the queue can hold, pushed faster than one writer
  // can drain: some must drop, none may block, and the tally must add up.
  constexpr int kLines = 10000;
  for (int i = 0; i < kLines; ++i) {
    log.Log(EventBuilder("burst").Int("i", i).Finish());
  }
  log.Flush();
  const int64_t dropped = log.dropped();
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, kLines);  // the writer kept up with at least some
  log.Flush();
  EXPECT_EQ(static_cast<int64_t>(ReadLines(path).size()) + dropped, kLines);
}

TEST(EventLogTest, UnopenablePathFallsBackToStderr) {
  EventLog::Options options;
  options.path = "/nonexistent-dir-for-sure/event.log";
  EventLog log(options);
  EXPECT_FALSE(log.ok());
  // Still usable: the line goes to stderr rather than crashing.
  log.Log(EventBuilder("fallback").Finish());
  log.Flush();
}

}  // namespace
}  // namespace crashsim
