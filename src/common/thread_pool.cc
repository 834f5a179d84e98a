#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#endif

#include "obs/metrics.h"

namespace alex {
namespace {

/// Pool metrics: queue depth (with high-water mark), time tasks spend
/// queued before a worker picks them up, task run time, and work steals.
/// Handles are cached once; updates are relaxed atomics, invisible to task
/// latency.
struct PoolMetrics {
  obs::Counter& tasks = obs::MetricsRegistry::Global().counter(
      "threadpool.tasks");
  obs::Gauge& queue_depth = obs::MetricsRegistry::Global().gauge(
      "threadpool.queue_depth");
  obs::Histogram& wait_seconds = obs::MetricsRegistry::Global().histogram(
      "threadpool.task_wait_seconds");
  obs::Histogram& run_seconds = obs::MetricsRegistry::Global().histogram(
      "threadpool.task_run_seconds");
  obs::Counter& task_exceptions = obs::MetricsRegistry::Global().counter(
      "threadpool.task_exceptions");
  obs::Counter& steals = obs::MetricsRegistry::Global().counter(
      "threadpool.steals");

  static PoolMetrics& Get() {
    static PoolMetrics* metrics = new PoolMetrics();
    return *metrics;
  }
};

/// Identity of the current pool worker, so Submit from inside a task lands
/// on the submitting worker's own queue (the recursion-friendly fast path)
/// instead of bouncing through the round-robin counter.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker = 0;

/// Best-effort thread naming (shows up in /proc, gdb, perf). Names longer
/// than the Linux limit of 15 characters are truncated. No-op elsewhere.
void SetCurrentThreadName(const std::string& name) {
#ifdef __linux__
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, std::string name_prefix)
    : name_prefix_(std::move(name_prefix)) {
  if (num_threads == 0) num_threads = 1;
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    shutting_down_.store(true, std::memory_order_release);
  }
  task_available_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t target;
  if (tls_pool == this) {
    target = tls_worker;
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  Enqueue(std::move(task), target);
}

void ThreadPool::Submit(std::function<void()> task, size_t affinity_hint) {
  Enqueue(std::move(task), affinity_hint % queues_.size());
}

void ThreadPool::Enqueue(std::function<void()> task, size_t target) {
  PoolMetrics& metrics = PoolMetrics::Get();
  metrics.tasks.Add(1);
  unfinished_.fetch_add(1, std::memory_order_relaxed);
  // pending_ is bumped BEFORE the push: a worker that wins the race and
  // pops the task immediately never underflows the counter. The window
  // where pending_ over-reports by one only costs a sleeper a spurious
  // recheck.
  const size_t depth = pending_.fetch_add(1, std::memory_order_seq_cst) + 1;
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(
        QueuedTask{std::move(task), std::chrono::steady_clock::now()});
  }
  metrics.queue_depth.Set(static_cast<int64_t>(depth));
  metrics.queue_depth.UpdateMax(static_cast<int64_t>(depth));
  // Dekker handshake with WorkerLoop: the worker publishes sleepers_ then
  // reads pending_ (under sleep_mu_); we publish pending_ then read
  // sleepers_. Both seq_cst, so at least one side observes the other —
  // either the worker's wait predicate sees the new task, or we see the
  // sleeper and run the notify rendezvous. The empty lock_guard closes the
  // remaining window where the sleeper has passed its predicate check but
  // not yet released sleep_mu_ into the wait: we cannot take the lock
  // until it is actually blocked, so the notify is never lost.
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    task_available_.notify_one();
  }
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(wait_mu_);
    all_done_.wait(lock, [this] {
      return unfinished_.load(std::memory_order_acquire) == 0;
    });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::TryAcquire(size_t self, QueuedTask* task) {
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.front());
      own.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  const size_t n = queues_.size();
  for (size_t k = 1; k < n; ++k) {
    WorkerQueue& queue = *queues_[(self + k) % n];
    std::lock_guard<std::mutex> lock(queue.mu);
    if (!queue.tasks.empty()) {
      // Steal from the back — the owner pops the front, so thief and owner
      // only collide on a one-element queue.
      *task = std::move(queue.tasks.back());
      queue.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      PoolMetrics::Get().steals.Add(1);
      return true;
    }
  }
  return false;
}

void ThreadPool::RunTask(QueuedTask* task) {
  PoolMetrics& metrics = PoolMetrics::Get();
  const auto start = std::chrono::steady_clock::now();
  metrics.wait_seconds.Observe(
      std::chrono::duration<double>(start - task->enqueued).count());
  std::exception_ptr error;
  try {
    task->fn();
  } catch (...) {
    error = std::current_exception();
    metrics.task_exceptions.Add(1);
  }
  metrics.run_seconds.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  if (error) {
    std::lock_guard<std::mutex> lock(wait_mu_);
    if (!first_error_) first_error_ = error;
  }
  // Completion counts down only after the error is recorded, so a Wait()
  // woken by the final task always sees its exception. The notify takes
  // wait_mu_: a waiter between its predicate check and the block cannot
  // miss the wakeup, because we cannot acquire the mutex until it waits.
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    { std::lock_guard<std::mutex> lock(wait_mu_); }
    all_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_pool = this;
  tls_worker = self;
  SetCurrentThreadName(name_prefix_ + std::to_string(self));

  for (;;) {
    QueuedTask task;
    if (TryAcquire(self, &task)) {
      RunTask(&task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    task_available_.wait(lock, [this] {
      return shutting_down_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_seq_cst) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (shutting_down_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_seq_cst) == 0) {
      return;  // Drained: remaining tasks ran before shutdown completes.
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) {
    pool->Wait();
    return;
  }
  // ~8 chunks per worker: dispatch cost amortizes over the grain while
  // surplus chunks let stealing even out slow ones. Loops with n at or
  // below 8*workers (e.g. one index per partition) keep grain 1, and the
  // chunk-index affinity hint below then pins index i to home worker
  // i % workers on every call.
  const size_t target_tasks = pool->num_threads() * 8;
  const size_t grain = (n + target_tasks - 1) / target_tasks;
  const size_t chunks = (n + grain - 1) / grain;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = c * grain;
    const size_t hi = std::min(n, lo + grain);
    pool->Submit([lo, hi, &fn] {
      for (size_t i = lo; i < hi; ++i) fn(i);
    }, /*affinity_hint=*/c);
  }
  pool->Wait();
}

}  // namespace alex
