#ifndef ALEX_COMMON_THREAD_POOL_H_
#define ALEX_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace alex {

/// Fixed-size worker pool used to run ALEX partitions in parallel
/// (Section 6.2 of the paper: equal-size partitions explored independently).
///
/// Each worker owns its own task queue (no single-mutex convoy on the
/// dispatch path) and idle workers steal from siblings, starting at the
/// next worker index and wrapping. Submit takes an optional affinity hint
/// naming the worker whose queue the task should land on; combined with
/// stealing this is soft locality, not a correctness contract — any worker
/// may ultimately run any task.
///
/// Tasks are void() callables. `Wait()` blocks until every submitted task
/// (including tasks submitted by tasks) has finished; the destructor drains
/// remaining tasks and joins all workers.
///
/// A throwing task never takes down the process: the worker catches the
/// exception at the task boundary (otherwise the unwind would hit the worker
/// loop and std::terminate, skipping the in-flight bookkeeping and wedging
/// Wait()). The first captured exception is rethrown from the next Wait();
/// later ones are counted in `threadpool.task_exceptions` and dropped.
/// Remaining tasks still run either way.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (at least 1), named
  /// "<name_prefix><worker index>". Keep the prefix short — Linux truncates
  /// thread names to 15 characters.
  explicit ThreadPool(size_t num_threads, std::string name_prefix = "alexw");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe to call from any thread, including workers — a
  /// worker submits to its own queue (the recursive task is warm there and
  /// runs next unless stolen), external threads round-robin across queues.
  void Submit(std::function<void()> task);

  /// Enqueues a task onto worker `affinity_hint % num_threads()`'s queue.
  /// A locality hint, not placement: an idle sibling may still steal the
  /// task. Use a stable hint per logical owner (e.g. the partition index)
  /// so the same worker keeps touching the same partition's memory.
  void Submit(std::function<void()> task, size_t affinity_hint);

  /// Blocks until all submitted tasks have completed. If any task threw
  /// since the last Wait(), rethrows the first such exception (after the
  /// drain, so the pool is quiescent and reusable when the caller catches).
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  /// A task plus its enqueue time, so the queue-wait latency each task
  /// experienced lands in the `threadpool.task_wait_seconds` histogram.
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One worker's queue behind its own mutex; unique_ptr keeps addresses
  /// stable and the mutexes on separate allocations (no false sharing of
  /// two hot locks in one cache line).
  struct WorkerQueue {
    std::mutex mu;
    std::deque<QueuedTask> tasks;
  };

  void WorkerLoop(size_t self);
  /// Pops from own queue, else steals from the workers after `self`, in
  /// index order with wraparound, so concurrent thieves fan out instead of
  /// all hammering worker 0's lock. Decrements pending_ on success.
  bool TryAcquire(size_t self, QueuedTask* task);
  void Enqueue(std::function<void()> task, size_t target);
  void RunTask(QueuedTask* task);

  const std::string name_prefix_;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;

  /// Tasks sitting in queues (not yet picked up). Drives worker sleep.
  std::atomic<size_t> pending_{0};
  /// Tasks submitted but not yet finished (queued + running). Drives Wait.
  std::atomic<size_t> unfinished_{0};
  /// Workers blocked in task_available_; lets Enqueue skip the notify
  /// rendezvous entirely when everyone is busy. seq_cst store/load pairs
  /// with pending_ (a Dekker-style flag handshake, see Enqueue).
  std::atomic<size_t> sleepers_{0};
  std::atomic<size_t> next_queue_{0};
  std::atomic<bool> shutting_down_{false};

  std::mutex sleep_mu_;
  std::condition_variable task_available_;
  std::mutex wait_mu_;
  std::condition_variable all_done_;
  /// First exception thrown by a task since the last Wait() (guarded by
  /// wait_mu_).
  std::exception_ptr first_error_;

  std::vector<std::thread> workers_;
};

/// Runs fn(i) for i in [0, n) across the pool and waits for completion.
/// Indices are chunked ceil(n / (8 * workers)) per task, so a 100k-index
/// loop costs hundreds of task dispatches instead of 100k std::function
/// allocations and queue round-trips, while leaving enough surplus tasks
/// for stealing to balance uneven chunks. Chunk c carries affinity hint c,
/// so when n is small (e.g. one chunk per partition) index i lands on the
/// same home worker every call. Exceptions keep task granularity: a throw
/// abandons the remaining indices of its own chunk only, other chunks
/// still run, and Wait() rethrows the first error.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace alex

#endif  // ALEX_COMMON_THREAD_POOL_H_
