#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/topology.h"

namespace ganswer {
namespace {

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7);
  EXPECT_EQ(ThreadPool::ResolveThreads(-3), 1);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1)
      << "0 resolves to the available CPUs, at least 1";
}

// threads = 0 follows the affinity mask (a container cpuset), not the
// machine's core count: narrowing the mask narrows the pool.
TEST(ThreadPoolTest, ZeroThreadsResolvesToAffinityCpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_GE(AvailableCpus(), 1);
  EXPECT_EQ(AvailableCpus(), CPU_COUNT(&allowed));
  EXPECT_EQ(ThreadPool::ResolveThreads(0), AvailableCpus());

  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(AvailableCpus(), 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(0), 1);
  ASSERT_EQ(sched_setaffinity(0, sizeof(allowed), &allowed), 0);
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManySubmittedTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorRunsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 0, [&](size_t) { ++calls; });
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](size_t) { ++calls; });  // inverted = empty
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForCoversOddRangesExactlyOnce) {
  ThreadPool pool(4);
  // Ranges that do not divide evenly by the worker count, including a
  // single-element range and ranges smaller than the pool.
  for (size_t n : {1u, 2u, 3u, 5u, 17u, 101u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    pool.ParallelFor(0, n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of range " << n;
    }
  }
}

TEST(ThreadPoolTest, ParallelForNonZeroBegin) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<size_t> seen;
  pool.ParallelFor(10, 25, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 15u);
  EXPECT_EQ(*seen.begin(), 10u);
  EXPECT_EQ(*seen.rbegin(), 24u);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](size_t i) {
                         if (i == 13) throw std::runtime_error("bad index");
                         ++completed;
                       }),
      std::runtime_error);
  // The throwing block abandons its remaining indices; every other block
  // runs to completion (ParallelFor waits for all blocks before
  // rethrowing). 4 workers x 100 items = 25-item blocks, so at least the
  // three other blocks' 75 items completed.
  EXPECT_GE(completed.load(), 75);
  EXPECT_LT(completed.load(), 100);
}

TEST(ThreadPoolTest, RunSerialFallbackStaysOnCallingThread) {
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(4);
  ThreadPool::Run(1, 0, 4,
                  [&](size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) {
    EXPECT_EQ(id, caller) << "threads=1 must run inline, in order";
  }
}

TEST(ThreadPoolTest, RunParallelCoversRange) {
  std::vector<std::atomic<int>> hits(37);
  for (auto& h : hits) h = 0;
  ThreadPool::Run(4, 0, hits.size(), [&](size_t i) { ++hits[i]; });
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 37);
}

}  // namespace
}  // namespace ganswer
