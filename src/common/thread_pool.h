#ifndef DGF_COMMON_THREAD_POOL_H_
#define DGF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace dgf {

/// Fixed-size worker pool running fire-and-forget tasks.
///
/// The serving front ends (`QueryService`, `Coordinator`) each own one as
/// their request runner: a request task blocks on admission and I/O, so it
/// must not share workers with compute. Compute fan-out goes through
/// `ParallelFor` instead. The destructor runs every queued task before it
/// joins the workers. The pool is neither copyable nor movable.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Runs `fn(i)` once for every `i` in [0, n) and returns OK or the error of
/// the lowest failing index (every index runs even after a failure).
///
/// Every parallel phase of the process (map, shuffle and reduce tasks, the
/// index build's shard/merge/write phases, the large-box decode) fans out
/// through this one call onto one process-wide compute pool, started on
/// first use with max(8, hardware_concurrency()) workers. At most
/// `parallelism` calls run at once, the calling thread included, so
/// `parallelism` <= 1 runs every index inline on the caller.
///
/// Nesting rule: the caller claims indices itself and waits only for indices
/// another thread has already claimed, never for a queued helper to start.
/// A `ParallelFor` issued from inside a pool task therefore completes even
/// when every pool worker is busy.
Status ParallelFor(size_t n, int parallelism,
                   const std::function<Status(size_t)>& fn);

}  // namespace dgf

#endif  // DGF_COMMON_THREAD_POOL_H_
