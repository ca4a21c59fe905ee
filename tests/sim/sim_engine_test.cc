#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/sim/engine.h"

namespace pipedream {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(SimTime::Micros(30), [&] { order.push_back(3); });
  queue.Push(SimTime::Micros(10), [&] { order.push_back(1); });
  queue.Push(SimTime::Micros(20), [&] { order.push_back(2); });
  while (!queue.empty()) {
    SimTime at;
    queue.Pop(&at)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAmongTies) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Push(SimTime::Micros(5), [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) {
    SimTime at;
    queue.Pop(&at)();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimEngineTest, ClockAdvancesToEventTimes) {
  SimEngine engine;
  SimTime seen;
  engine.ScheduleAt(SimTime::Millis(5), [&] { seen = engine.now(); });
  engine.Run();
  EXPECT_EQ(seen, SimTime::Millis(5));
  EXPECT_EQ(engine.now(), SimTime::Millis(5));
}

TEST(SimEngineTest, ScheduleAfterIsRelative) {
  SimEngine engine;
  std::vector<int64_t> times;
  engine.ScheduleAt(SimTime::Micros(10), [&] {
    times.push_back(engine.now().nanos());
    engine.ScheduleAfter(SimTime::Micros(5), [&] { times.push_back(engine.now().nanos()); });
  });
  engine.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1] - times[0], 5000);
}

TEST(SimEngineTest, CascadedEventsAllRun) {
  SimEngine engine;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) {
      engine.ScheduleAfter(SimTime::Nanos(1), chain);
    }
  };
  engine.ScheduleAt(SimTime(), chain);
  const int64_t processed = engine.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(processed, 100);
}

TEST(SimEngineTest, RunUntilStopsEarly) {
  SimEngine engine;
  int ran = 0;
  engine.ScheduleAt(SimTime::Micros(1), [&] { ++ran; });
  engine.ScheduleAt(SimTime::Micros(100), [&] { ++ran; });
  engine.Run(SimTime::Micros(50));
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(engine.idle());
  engine.Run();
  EXPECT_EQ(ran, 2);
}

TEST(ResourceTimelineTest, SerializesOverlappingAcquisitions) {
  ResourceTimeline timeline;
  const SimTime s1 = timeline.Acquire(SimTime::Micros(0), SimTime::Micros(10));
  EXPECT_EQ(s1, SimTime::Micros(0));
  // Requested while busy: starts when free.
  const SimTime s2 = timeline.Acquire(SimTime::Micros(5), SimTime::Micros(10));
  EXPECT_EQ(s2, SimTime::Micros(10));
  // Requested after idle gap: starts at request time.
  const SimTime s3 = timeline.Acquire(SimTime::Micros(100), SimTime::Micros(1));
  EXPECT_EQ(s3, SimTime::Micros(100));
  EXPECT_EQ(timeline.total_busy(), SimTime::Micros(21));
}

TEST(SimEngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimEngine engine;
    uint64_t hash = 0;  // unsigned: the multiply wraps by design
    for (int i = 0; i < 50; ++i) {
      engine.ScheduleAt(SimTime::Micros(i % 7), [&hash, i, &engine] {
        hash = hash * 31 + static_cast<uint64_t>(i + engine.now().nanos());
      });
    }
    engine.Run();
    return hash;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pipedream
