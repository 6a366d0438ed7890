#ifndef GANSWER_COMMON_THREAD_POOL_H_
#define GANSWER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ganswer {

/// Threading knob shared by every parallelizable stage (offline mining,
/// top-k matching, batch answering). Plumbed through the owning component's
/// Options struct so each caller chooses its own parallelism.
///
/// `threads == 0` resolves to the CPUs actually available to this process
/// (cpuset-aware, see common/topology.h — NOT hardware_concurrency(), which
/// reports the whole box even inside a confined container);
/// `threads == 1` pins the stage to the serial code path, reproducing the
/// pre-parallel behaviour exactly (parallel results are asserted identical
/// to serial, so this is a debugging/benchmark aid, not a correctness
/// requirement).
struct ExecutionOptions {
  int threads = 0;
};

/// \brief Fixed-size worker pool over a single locked task queue.
///
/// The pool is intentionally simple — a mutex + condition variable queue —
/// because every parallel stage in this codebase is coarse-grained (one
/// task enumerates paths for a whole phrase chunk, or runs a whole anchored
/// subgraph search); queue contention is negligible next to task cost, and
/// the simple design is ThreadSanitizer-clean by construction.
///
/// Destruction drains nothing: outstanding tasks are completed, then the
/// workers join. Submit after destruction has begun is a programming error.
class ThreadPool {
 public:
  /// Resolves a user-facing thread count: 0 -> AvailableCpus() (cpuset-
  /// aware, at least 1), negative values are treated as 1.
  static int ResolveThreads(int requested);

  /// Spawns ResolveThreads(threads) workers. A pool of size 1 still spawns
  /// one worker thread; callers wanting a truly serial path should branch
  /// on ResolveThreads(...) <= 1 before constructing a pool (ParallelFor
  /// does this internally via the static Run helper).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues \p fn and returns a future for its result. Exceptions thrown
  /// by \p fn are captured in the future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for every i in [begin, end), partitioned into contiguous
  /// blocks across the workers, and blocks until all complete. If an
  /// invocation throws, its block abandons its remaining indices; every
  /// other block still runs to completion, and the first exception (in
  /// block order) is rethrown after all blocks have finished. Deterministic
  /// work assignment: block boundaries depend only on the range size and
  /// pool size, never on timing.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// Convenience: runs fn(i) over [begin, end) with \p threads workers
  /// (ResolveThreads applied). threads <= 1 or a sub-2 range runs inline
  /// on the calling thread — the serial fallback the reproducibility
  /// guarantee pins.
  static void Run(int threads, size_t begin, size_t end,
                  const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ganswer

#endif  // GANSWER_COMMON_THREAD_POOL_H_
