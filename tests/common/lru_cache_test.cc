#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace ganswer {
namespace {

using Cache = ShardedLruCache<std::string>;

TEST(ShardedLruCacheTest, MissThenHit) {
  Cache cache(Cache::Options{8, 1});
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", "alpha");
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "alpha");
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ShardedLruCacheTest, PutReplacesExistingValue) {
  Cache cache(Cache::Options{8, 1});
  cache.Put("k", "old");
  cache.Put("k", "new");
  auto hit = cache.Get("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsed) {
  // One shard of capacity 2 makes the eviction order deterministic.
  Cache cache(Cache::Options{2, 1});
  cache.Put("a", "1");
  cache.Put("b", "2");
  ASSERT_NE(cache.Get("a"), nullptr);  // "a" is now most recent
  cache.Put("c", "3");                 // evicts "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCacheTest, EvictedValueSurvivesWhileHeld) {
  Cache cache(Cache::Options{1, 1});
  cache.Put("a", "alpha");
  std::shared_ptr<const std::string> held = cache.Get("a");
  ASSERT_NE(held, nullptr);
  cache.Put("b", "beta");  // evicts "a"
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(*held, "alpha");  // the reader's copy is unaffected
}

TEST(ShardedLruCacheTest, ClearDropsEntriesKeepsCounters) {
  Cache cache(Cache::Options{8, 2});
  cache.Put("a", "1");
  cache.Put("b", "2");
  ASSERT_NE(cache.Get("a"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);  // counters are cumulative across Clear
}

TEST(ShardedLruCacheTest, CapacityRoundsUpToShardCount) {
  Cache cache(Cache::Options{2, 8});
  EXPECT_EQ(cache.options().capacity, 8u);
  EXPECT_EQ(cache.options().shards, 8u);
}

// Explicit shard counts round up to a power of two (one-mask pick).
TEST(CacheScalingTest, ExplicitShardsRoundUpToPowerOfTwo) {
  EXPECT_EQ(Cache({64, 1}).options().shards, 1u);
  EXPECT_EQ(Cache({64, 3}).options().shards, 4u);
  EXPECT_EQ(Cache({64, 8}).options().shards, 8u);
  EXPECT_EQ(Cache({8, 5}).options().shards, 8u);
}

// Clear with a hit on the stats: the counters outlive the entries, and the
// cleared key misses afterwards.
TEST(CacheScalingTest, ClearKeepsCounters) {
  Cache cache({64, 8});
  cache.Put("k", "v");
  cache.Get("k");
  cache.Clear();
  Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.Get("k"), nullptr) << "cleared entries are gone";
}

// The default is a constant, not derived from the host, so eviction order
// is the same on every machine.
TEST(ShardedLruCacheTest, DefaultShardCountIsEight) {
  EXPECT_EQ(Cache({1024, 0}).options().shards, 8u);
}

// A key's shard is a pure function of the key: every thread resolves the
// same key to the same shard, so a value Put from one thread is always
// found by Get from any other.
TEST(ShardedLruCacheTest, KeyToShardMappingIsThreadIndependent) {
  Cache cache({256, 16});
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("key" + std::to_string(i));
  std::vector<size_t> home(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    home[i] = cache.ShardIndex(keys[i]);
    cache.Put(keys[i], "value" + std::to_string(i));
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < keys.size(); ++i) {
        if (cache.ShardIndex(keys[i]) != home[i]) failures.fetch_add(1);
        auto hit = cache.Get(keys[i]);
        if (hit == nullptr || *hit != "value" + std::to_string(i)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ShardedLruCacheTest, StatsCountersAreExactUnderConcurrency) {
  Cache cache({1024, 8});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  for (int i = 0; i < 16; ++i) {
    cache.Put("hot" + std::to_string(i), "v");
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_NE(cache.Get("hot" + std::to_string(i % 16)), nullptr);
        EXPECT_EQ(cache.Get("cold" + std::to_string(i)), nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();
  Cache::Stats stats = cache.stats();
  // Exact event counts, not samples.
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ShardedLruCacheTest, CountMissFalseSuppressesMissCounter) {
  Cache cache({64, 8});
  cache.Get("absent", /*count_miss=*/false);
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.Get("absent");
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ShardedLruCacheTest, ShardImbalanceGauge) {
  Cache cache({256, 8});
  EXPECT_EQ(cache.stats().shard_imbalance, 0.0) << "empty cache";

  for (int i = 0; i < 200; ++i) {
    cache.Put("spread" + std::to_string(i), "v");
  }
  Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.shard_entries.size(), cache.options().shards);
  EXPECT_EQ(std::accumulate(stats.shard_entries.begin(),
                            stats.shard_entries.end(), size_t{0}),
            stats.entries);
  // max/mean: >= 1 by construction, and bounded by the shard count (the
  // worst case is every entry on one shard).
  EXPECT_GE(stats.shard_imbalance, 1.0);
  EXPECT_LE(stats.shard_imbalance, static_cast<double>(cache.options().shards));
}

TEST(ShardedLruCacheTest, EvictionStaysPerShardAndCounted) {
  Cache cache({8, 8});  // one entry per shard
  // Two keys in the same shard: the second Put must evict the first.
  std::string a = "k0";
  std::string probe;
  for (int i = 1;; ++i) {
    probe = "k" + std::to_string(i);
    if (cache.ShardIndex(probe) == cache.ShardIndex(a)) break;
  }
  cache.Put(a, "va");
  cache.Put(probe, "vb");
  EXPECT_EQ(cache.Get(a), nullptr);
  EXPECT_NE(cache.Get(probe), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCacheTest, ConcurrentMixedUseIsSafe) {
  Cache cache(Cache::Options{64, 8});
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        std::string key = "k" + std::to_string((t * 31 + i) % 100);
        if (auto hit = cache.Get(key)) {
          EXPECT_FALSE(hit->empty());
        } else {
          cache.Put(key, "v" + std::to_string(i));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 500u);
  EXPECT_LE(stats.entries, 64u);
}

}  // namespace
}  // namespace ganswer
