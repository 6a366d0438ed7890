#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/topology.h"

namespace ganswer {

int ThreadPool::ResolveThreads(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  return AvailableCpus();
}

ThreadPool::ThreadPool(int threads) {
  int n = ResolveThreads(threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  size_t total = end - begin;
  size_t blocks = std::min<size_t>(workers_.size(), total);
  if (blocks <= 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Contiguous block partition; the first (total % blocks) blocks get one
  // extra element. Purely a function of (total, blocks) — deterministic.
  std::vector<std::future<void>> futures;
  futures.reserve(blocks);
  size_t base = total / blocks;
  size_t extra = total % blocks;
  size_t cursor = begin;
  for (size_t b = 0; b < blocks; ++b) {
    size_t len = base + (b < extra ? 1 : 0);
    size_t lo = cursor;
    size_t hi = cursor + len;
    cursor = hi;
    futures.push_back(Submit([lo, hi, &fn] {
      for (size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::Run(int threads, size_t begin, size_t end,
                     const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  int n = ResolveThreads(threads);
  if (n <= 1 || end - begin < 2) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  ThreadPool pool(n);
  pool.ParallelFor(begin, end, fn);
}

}  // namespace ganswer
