#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>


namespace alex::obs {
namespace {

// The recorder is process-global; every test starts from a clean, disabled
// recorder and leaves it that way.
class TraceRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().SetEnabled(false);
    TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    TraceRecorder::Global().SetEnabled(false);
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceRecorderTest, DisabledRecorderRetainsNothing) {
  { TraceSpan span("test", "ShouldNotAppear"); }
  EXPECT_TRUE(TraceRecorder::Global().Events().empty());
}

TEST_F(TraceRecorderTest, SpanEnabledAtConstructionIsRecorded) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  { TraceSpan span("test", "Recorded"); }
  recorder.SetEnabled(false);
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "Recorded");
  EXPECT_STREQ(events[0].category, "test");
}

TEST_F(TraceRecorderTest, NestedSpansExportParentBeforeChildren) {
  // A parent span strictly encloses its children, so in the (ts asc,
  // dur desc) export order the parent comes first and every child's
  // interval nests inside it — what Perfetto needs to draw the stack.
  TraceRecorder& recorder = TraceRecorder::Global();
  // Busy-waits one clock tick so consecutive spans get distinct begin
  // timestamps and nonzero durations (no sleeps; the steady clock itself
  // is the only dependency).
  auto tick = [&recorder] {
    const uint64_t start = recorder.NowMicros();
    while (recorder.NowMicros() == start) {
    }
  };
  recorder.SetEnabled(true);
  {
    TraceSpan outer("test", "Outer");
    tick();
    {
      TraceSpan middle("test", "Middle");
      tick();
      {
        TraceSpan inner("test", "Inner");
        tick();
      }
      tick();
    }
    {
      TraceSpan sibling("test", "Sibling");
      tick();
    }
  }
  recorder.SetEnabled(false);

  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "Outer");

  auto find = [&events](const std::string& name) {
    return *std::find_if(events.begin(), events.end(),
                         [&name](const TraceEvent& e) {
                           return name == e.name;
                         });
  };
  const TraceEvent outer = find("Outer");
  const TraceEvent middle = find("Middle");
  const TraceEvent inner = find("Inner");
  const TraceEvent sibling = find("Sibling");

  auto encloses = [](const TraceEvent& a, const TraceEvent& b) {
    return a.ts_micros <= b.ts_micros &&
           a.ts_micros + a.dur_micros >= b.ts_micros + b.dur_micros;
  };
  EXPECT_TRUE(encloses(outer, middle));
  EXPECT_TRUE(encloses(middle, inner));
  EXPECT_TRUE(encloses(outer, sibling));
  // Sibling starts after the middle branch ended.
  EXPECT_GE(sibling.ts_micros, middle.ts_micros + middle.dur_micros);
  // Events are sorted by begin time; equal begins put the longer first.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_micros, events[i].ts_micros);
  }
}

TEST_F(TraceRecorderTest, ThreadsGetDistinctTidsAndAllSpansSurvive) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("test", "PoolSpan");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  recorder.SetEnabled(false);

  const std::vector<TraceEvent> events = recorder.Events();
  size_t pool_spans = 0;
  std::set<uint32_t> tids;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "PoolSpan") {
      ++pool_spans;
      tids.insert(e.tid);
    }
  }
  // Ring buffers of exited threads must survive into the export.
  EXPECT_EQ(pool_spans, static_cast<size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST_F(TraceRecorderTest, ClearDropsRetainedEvents) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  { TraceSpan span("test", "Dropped"); }
  recorder.Clear();
  { TraceSpan span("test", "Kept"); }
  recorder.SetEnabled(false);
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "Kept");
}

TEST_F(TraceRecorderTest, ChromeTraceExportIsWellFormed) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  {
    TraceSpan outer("build", "Outer");
    TraceSpan inner("build", "Inner");
  }
  recorder.SetEnabled(false);

  std::ostringstream os;
  recorder.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"Outer\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"build\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  // Structurally balanced (no nested strings in our literal-only names, so
  // brace counting is a valid well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(TraceRecorderTest, RingBufferOverwritesOldestBeyondCapacity) {
  // Record well past kRingCapacity on one thread via the public Record()
  // overload with synthetic monotone timestamps: the ring must retain
  // exactly the newest kRingCapacity events, in order, no duplicates.
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  const size_t total = TraceRecorder::kRingCapacity + 1000;
  for (size_t i = 0; i < total; ++i) {
    TraceEvent event;
    event.category = "test";
    event.name = "wrap";
    event.ts_micros = static_cast<uint64_t>(i);
    event.dur_micros = 1;
    recorder.Record(event);
  }
  recorder.SetEnabled(false);

  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), TraceRecorder::kRingCapacity);
  // Events() sorts by ts; synthetic stamps are unique, so the retained
  // window is exactly [total - capacity, total).
  EXPECT_EQ(events.front().ts_micros,
            static_cast<uint64_t>(total - TraceRecorder::kRingCapacity));
  EXPECT_EQ(events.back().ts_micros, static_cast<uint64_t>(total - 1));
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_micros, events[i - 1].ts_micros + 1);
  }
}

TEST_F(TraceRecorderTest, ConcurrentWritersDuringExportStaySane) {
  // Writers keep recording while another thread repeatedly snapshots and
  // exports; the exercise is for TSan (this test is in the sanitize label),
  // and the invariant checked here is that every export is internally
  // consistent (balanced JSON, monotone event order). Each writer records a
  // fixed slice of spans per export round, starting it as the round starts,
  // so every round overlaps the writers and the rings stay small.
  constexpr int kWriters = 3;
  constexpr int kRounds = 20;
  constexpr int kSpansPerRound = 100;
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  std::atomic<int> round_started{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&round_started] {
      for (int round = 0; round < kRounds; ++round) {
        for (int seen = round_started.load(); seen < round;
             seen = round_started.load()) {
          round_started.wait(seen);
        }
        for (int i = 0; i < kSpansPerRound; ++i) {
          TraceSpan span("test", "concurrent");
          span.AddArg("writer", 1);
        }
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    round_started.store(round);
    round_started.notify_all();
    const std::vector<TraceEvent> events = recorder.Events();
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].ts_micros, events[i].ts_micros);
    }
    std::ostringstream os;
    recorder.WriteChromeTrace(os);
    const std::string json = os.str();
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
  }
  for (std::thread& writer : writers) writer.join();
  recorder.SetEnabled(false);
}

TEST_F(TraceRecorderTest, MacroSpansCompileAndRespectRuntimeGate) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  {
    ALEX_TRACE_SPAN("test", "MacroSpan");
  }
  recorder.SetEnabled(false);
  const std::vector<TraceEvent> events = recorder.Events();
#ifdef ALEX_TRACING_ENABLED
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "MacroSpan");
#else
  // Tracing compiled out: the macro must expand to nothing.
  EXPECT_TRUE(events.empty());
#endif
}

}  // namespace
}  // namespace alex::obs
