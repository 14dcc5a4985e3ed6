#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace mfv::util {

unsigned ThreadPool::default_threads() {
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) idle_.notify_all();
    }
  }
}

/// Workers pull shard indices from a shared counter; results are keyed by
/// shard index in the caller, so the pull order is invisible downstream.
void parallel_for_shards(unsigned threads, size_t shards,
                         const std::function<void(size_t)>& fn) {
  if (shards == 0) return;
  if (threads == 0) threads = ThreadPool::default_threads();
  if (threads <= 1 || shards == 1) {
    for (size_t shard = 0; shard < shards; ++shard) fn(shard);
    return;
  }

  std::atomic<size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto drain = [&] {
    for (size_t shard = next.fetch_add(1); shard < shards; shard = next.fetch_add(1)) {
      try {
        fn(shard);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };

  // The caller drains too.
  const size_t helpers = std::min<size_t>(threads - 1, shards - 1);
  std::vector<std::thread> crew;
  crew.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) crew.emplace_back(drain);
  drain();
  for (std::thread& helper : crew) helper.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace mfv::util
