// Worker-thread pool and deterministic sharded-parallelism helper.
//
// The verification engine shards query work (packet classes, destination
// devices) across workers. Determinism-by-default survives because shards
// write into shard-indexed result slots: which worker executes a shard
// never influences any output byte, only wall-clock time.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mfv::util {

/// Fixed-size pool of worker threads. Tasks submitted via submit() run in
/// FIFO order across workers; wait_idle() blocks until every submitted
/// task has completed. Tasks must not throw (use parallel_for_shards for
/// exception propagation).
class ThreadPool {
 public:
  /// threads == 0 picks hardware concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Hardware concurrency with a floor of 1 (hardware_concurrency() may
  /// report 0 on exotic platforms).
  static unsigned default_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  size_t in_flight_ = 0;  // queued + executing
  bool stop_ = false;
};

/// Runs fn(shard) for every shard in [0, shards) on up to `threads`
/// workers (0 = hardware concurrency). Each shard executes exactly once;
/// callers store results into shard-indexed slots, so the output is
/// identical for any worker count — the determinism contract of the
/// engine. With threads <= 1 or shards <= 1 everything runs inline on the
/// calling thread in shard order. The first exception thrown by any shard
/// is rethrown on the caller after all workers stop.
void parallel_for_shards(unsigned threads, size_t shards,
                         const std::function<void(size_t)>& fn);

}  // namespace mfv::util
