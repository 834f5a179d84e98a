#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace alex {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&pool, &counter] {
    counter.fetch_add(1);
    pool.Submit([&counter] { counter.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

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

TEST(ThreadPoolTest, ThrowingTaskRethrownFromWait) {
  // A task exception used to escape WorkerLoop and std::terminate the whole
  // process (with in_flight_ left dangling). It must instead surface from
  // Wait() on the submitting thread.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Submit([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task boom");
  }
  // Every non-throwing task still ran: the worker decremented in_flight_ for
  // the throwing task too, so Wait() was able to drain.
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, FirstOfManyExceptionsWins) {
  ThreadPool pool(4);
  std::atomic<int> throws{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&throws] {
      throws.fetch_add(1);
      throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(throws.load(), 8);  // All tasks ran despite the failures.
}

TEST(ThreadPoolTest, PoolUsableAfterTaskException) {
  // The error slot is cleared by the Wait() that reports it; the next cycle
  // starts clean.
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  std::atomic<int> counter{0};
  for (int i = 0; i < 25; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();  // Must neither hang nor rethrow the stale exception.
  EXPECT_EQ(counter.load(), 25);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }  // Destructor must join without deadlock.
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, AffinityHintsRunEveryTask) {
  // Hints are locality advice, never placement filters: every task must run
  // exactly once whatever the hint, including hints far beyond num_threads.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(200);
  for (size_t i = 0; i < hits.size(); ++i) {
    pool.Submit([&hits, i] { hits[i].fetch_add(1); }, /*affinity_hint=*/i * 7);
  }
  pool.Wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitFromWorkerRecursionStress) {
  // Deep fan-out submitted from inside workers: each task spawns two more
  // until the budget is spent. Exercises worker-local enqueue plus stealing
  // under load; Wait() must count tasks submitted by tasks.
  ThreadPool pool(4);
  std::atomic<int> budget{2047};  // Full binary tree of depth 10.
  std::atomic<int> ran{0};
  std::function<void()> task = [&] {
    ran.fetch_add(1);
    for (int child = 0; child < 2; ++child) {
      if (budget.fetch_sub(1) > 0) pool.Submit(task);
    }
  };
  budget.fetch_sub(1);
  pool.Submit(task);
  pool.Wait();
  EXPECT_EQ(ran.load(), 2047);
}

TEST(ThreadPoolTest, StealingStressManyProducers) {
  // TSan target: external submitters round-robin across every queue while
  // workers pop their own fronts and steal each other's backs. All counters
  // must land exactly, with no data-race reports under -DALEX_SANITIZE.
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  constexpr int kTasks = 20000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      for (int i = p; i < kTasks; i += 3) {
        pool.Submit([&sum, i] { sum.fetch_add(i); },
                    /*affinity_hint=*/static_cast<size_t>(i));
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(sum.load(), int64_t{kTasks} * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, ParallelForThrowAbandonsOwnChunkOnly) {
  // Chunked exception semantics: index 0 throws, killing the remainder of
  // its chunk; every index in every OTHER chunk still runs. Two workers get
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

}  // namespace
}  // namespace alex
