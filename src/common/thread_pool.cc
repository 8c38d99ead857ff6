#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

namespace dgf {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

ThreadPool& ComputePool() {
  static ThreadPool compute_pool(
      static_cast<int>(std::max(8u, std::thread::hardware_concurrency())));
  return compute_pool;
}

/// One ParallelFor call, shared by the caller and its helper tasks. Helpers
/// hold it by shared_ptr: a helper may start after the caller has returned,
/// finds no index left to claim, and must still find the state alive.
struct ForState {
  ForState(size_t n, const std::function<Status(size_t)>* fn) : n(n), fn(fn) {}

  /// Claims and runs indices until none are left. `fn` is only touched for a
  /// claimed index, and the caller outlives every claimed index.
  void Drain() {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      Status st = (*fn)(i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < error_index) {
          error_index = i;
          error = std::move(st);
        }
      }
      if (done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        finished = true;
        all_done.notify_all();
      }
    }
  }

  const size_t n;
  const std::function<Status(size_t)>* const fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  bool finished = false;          // guarded by mu
  size_t error_index = SIZE_MAX;  // guarded by mu
  Status error;                   // guarded by mu
  std::condition_variable all_done;
};

}  // namespace

Status ParallelFor(size_t n, int parallelism,
                   const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  auto state = std::make_shared<ForState>(n, &fn);
  const size_t helpers =
      std::min(n, static_cast<size_t>(std::max(1, parallelism))) - 1;
  for (size_t h = 0; h < helpers; ++h) {
    ComputePool().Submit([state] { state->Drain(); });
  }
  state->Drain();
  // Every index is claimed by now; wait for those still running elsewhere.
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&] { return state->finished; });
  return state->error;
}

}  // namespace dgf
