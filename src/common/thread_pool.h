#ifndef ALEX_COMMON_THREAD_POOL_H_
#define ALEX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace alex {

/// Fixed-size pool that runs the independent ALEX partitions at the same
/// time (Section 6.2 of the paper); ParallelFor is its only entry point.
/// A pool of `num_threads` (at least 1) is the calling thread plus
/// `num_threads - 1` helpers named "<name_prefix><index>", index 1 up.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads, std::string name_prefix = "alexw");
  ~ThreadPool();
  size_t num_threads() const { return helpers_.size() + 1; }

 private:
  struct Job;
  friend void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& fn);
  static void RunChunks(Job* job);
  void HelperLoop(const std::string& name);
  void StopHelpers();
  /// An external caller holds turn_mu_ for its whole call: helpers wake
  /// done_cv_ with notify_one, so a second waiting caller could take the
  /// wake-up meant for the first. mu_ guards the fields below.
  std::mutex turn_mu_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // Helpers wait here for a new job.
  std::condition_variable done_cv_;  // The caller waits out its helpers.
  Job* job_ = nullptr;
  size_t generation_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> helpers_;  // Declared last: joins use the above.
};

/// Runs fn(i) for i in [0, n); returns once every index has run. The caller
/// and the helpers claim chunks of ceil(n / (8 * num_threads())) indices
/// from a shared cursor. A one-thread pool, and a call from inside a running
/// fn (on any pool, whose helpers may be busy in the parent), run inline. A
/// throw abandons the rest of its own chunk only; the call rethrows its own
/// first exception after the last chunk (all count in task_exceptions).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace alex

#endif  // ALEX_COMMON_THREAD_POOL_H_
