#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#endif

#include "obs/metrics.h"

namespace alex {

/// One ParallelFor call, on the caller's stack. Helpers touch it only while
/// counted in helpers_in (under mu_); the caller returns once that is zero.
struct ThreadPool::Job {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  size_t grain = 1;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};  // The first thrower alone sets error.
  std::exception_ptr error = nullptr;
  size_t helpers_in = 0;
};

/// True while this thread runs chunks, so a nested ParallelFor runs inline.
static thread_local bool tls_in_job = false;

void ThreadPool::RunChunks(Job* job) {
  static obs::Counter& tasks =
      obs::MetricsRegistry::Global().counter("threadpool.tasks");
  static obs::Counter& task_exceptions =
      obs::MetricsRegistry::Global().counter("threadpool.task_exceptions");
  const bool outer = std::exchange(tls_in_job, true);
  for (;;) {
    const size_t lo = job->next.fetch_add(job->grain);
    if (lo >= job->n) break;
    const size_t hi = std::min(job->n, lo + job->grain);
    tasks.Add(1);
    try {
      for (size_t i = lo; i < hi; ++i) (*job->fn)(i);
    } catch (...) {
      task_exceptions.Add(1);
      if (!job->failed.exchange(true)) job->error = std::current_exception();
    }
  }
  tls_in_job = outer;
}

ThreadPool::ThreadPool(size_t num_threads, std::string name_prefix) {
  try {
    for (size_t i = 1; i < num_threads; ++i) {
      helpers_.emplace_back(&ThreadPool::HelperLoop, this,
                            name_prefix + std::to_string(i));
    }
  } catch (...) {
    StopHelpers();  // A failed thread start must not leave others unjoined.
    throw;
  }
}

ThreadPool::~ThreadPool() { StopHelpers(); }

void ThreadPool::StopHelpers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void ThreadPool::HelperLoop([[maybe_unused]] const std::string& name) {
#ifdef __linux__
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#endif
  size_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stopping_ || (job_ != nullptr && generation_ != seen);
    });
    if (stopping_) return;
    seen = generation_;
    Job* job = job_;
    ++job->helpers_in;
    lock.unlock();
    RunChunks(job);
    lock.lock();
    if (--job->helpers_in == 0) done_cv_.notify_one();
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t target_chunks = 8 * pool->num_threads();
  ThreadPool::Job job{.fn = &fn, .n = n,
                      .grain = (n + target_chunks - 1) / target_chunks};
  if (pool->helpers_.empty() || tls_in_job) {
    ThreadPool::RunChunks(&job);
  } else {
    std::lock_guard<std::mutex> turn(pool->turn_mu_);
    std::unique_lock<std::mutex> lock(pool->mu_);
    pool->job_ = &job;
    ++pool->generation_;
    lock.unlock();
    pool->work_cv_.notify_all();
    ThreadPool::RunChunks(&job);
    // Every chunk is claimed: unpublish, then wait for the last to end.
    lock.lock();
    pool->job_ = nullptr;
    pool->done_cv_.wait(lock, [&job] { return job.helpers_in == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace alex
