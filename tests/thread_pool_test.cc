#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace alex {
namespace {

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(&pool, hits.size(),
              [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIterations) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "must not be called"; });
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  ParallelFor(&pool, 10, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, OneThreadPoolRunsOnCaller) {
  // Each index sleeps, so a helper thread, if there were one, would have
  // time to wake and claim a chunk.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  ParallelFor(&pool, 64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPoolTest, FirstOfManyExceptionsWins) {
  // On one thread the chunks run in index order, so the first throw is
  // index 0's; later ones are dropped.
  ThreadPool serial(1);
  try {
    ParallelFor(&serial, 3, [](size_t i) {
      throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "ParallelFor must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom 0");
  }
  // Every index throws a distinct message; the call rethrows exactly one of
  // them, and every chunk still ran its first index.
  ThreadPool pool(4);
  constexpr size_t kN = 32;  // 32 chunks of one index on four threads.
  std::atomic<int> throws{0};
  try {
    ParallelFor(&pool, kN, [&throws](size_t i) {
      throws.fetch_add(1);
      throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "ParallelFor must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u) << e.what();
  }
  EXPECT_EQ(throws.load(), static_cast<int>(kN));
}

TEST(ThreadPoolTest, ParallelForThrowAbandonsOwnChunkOnly) {
  // Chunked exception semantics: index 0 throws, killing the remainder of
  // its chunk; every index in every OTHER chunk still runs. Two threads get
  // 16 chunks, so 160 indices chunk into runs of 10.
  ThreadPool pool(2);
  constexpr size_t kN = 160;
  constexpr size_t kGrain = 10;
  std::vector<std::atomic<int>> hits(kN);
  try {
    ParallelFor(&pool, kN, [&hits](size_t i) {
      if (i == 0) throw std::runtime_error("chunk boom");
      hits[i].fetch_add(1);
    });
    FAIL() << "ParallelFor must rethrow the chunk exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "chunk boom");
  }
  for (size_t i = 1; i < kGrain; ++i) {
    EXPECT_EQ(hits[i].load(), 0) << "index " << i
                                 << " ran after its chunk threw";
  }
  for (size_t i = kGrain; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " in an innocent chunk";
  }
}

TEST(ThreadPoolTest, PoolUsableAfterException) {
  // The error belongs to the call that raised it; the next call starts
  // clean.
  ThreadPool pool(2);
  EXPECT_THROW(ParallelFor(&pool, 4,
                           [](size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    // Must neither hang nor rethrow the stale exception.
    ParallelFor(&pool, 25, [&counter](size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), (round + 1) * 25);
  }
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // A call from inside a running fn runs inline on that thread; waiting for
  // helpers instead would hang, since they are busy in the parent call.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(12 * 7);
  ParallelFor(&pool, 12, [&](size_t outer) {
    ParallelFor(&pool, 7,
                [&](size_t inner) { hits[outer * 7 + inner].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersSeeOnlyTheirOwnWork) {
  // Two external threads share one pool: each call returns only after its
  // own indices ran, and rethrows only its own exception.
  ThreadPool pool(3);
  constexpr size_t kN = 500;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  std::atomic<int> a_errors{0};
  std::atomic<int> b_errors{0};
  std::atomic<int> a_incomplete{0};
  std::atomic<int> b_incomplete{0};
  auto caller = [&pool](const char* tag, std::vector<std::atomic<int>>* hits,
                        std::atomic<int>* errors,
                        std::atomic<int>* incomplete) {
    for (int round = 0; round < kRounds; ++round) {
      try {
        ParallelFor(&pool, kN, [&](size_t i) {
          (*hits)[i].fetch_add(1);
          if (i == kN - 1) throw std::runtime_error(tag);
        });
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == tag) errors->fetch_add(1);
      }
      for (const auto& h : *hits) {
        if (h.load() != round + 1) incomplete->fetch_add(1);
      }
    }
  };
  std::thread a(caller, "a", &hits_a, &a_errors, &a_incomplete);
  std::thread b(caller, "b", &hits_b, &b_errors, &b_incomplete);
  a.join();
  b.join();
  EXPECT_EQ(a_errors.load(), kRounds);
  EXPECT_EQ(b_errors.load(), kRounds);
  EXPECT_EQ(a_incomplete.load(), 0);
  EXPECT_EQ(b_incomplete.load(), 0);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    ParallelFor(&pool, 50, [&counter](size_t) { counter.fetch_add(1); });
  }  // Destructor must join without deadlock.
  EXPECT_EQ(counter.load(), 50);
  { ThreadPool idle(4); }  // Helpers that never ran a job join too.
}

}  // namespace
}  // namespace alex
