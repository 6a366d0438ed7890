#ifndef GANSWER_COMMON_LRU_CACHE_H_
#define GANSWER_COMMON_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ganswer {

/// \brief Thread-safe sharded LRU cache, string keys to shared immutable
/// values.
///
/// Keys hash to one of `shards` independent LRU lists, each behind its own
/// mutex, so concurrent lookups from the serving fan-out contend only when
/// they land on the same shard. The shard count is a power of two so the
/// shard pick is one mask; the default is the constant 8, so eviction order
/// never depends on the host. The key->shard mapping is pure hashing: the
/// same key reaches the same shard from every thread.
///
/// The hit/miss/eviction counters are relaxed atomics: exact event counts,
/// read as a relaxed snapshot by stats().
///
/// Values are handed out as shared_ptr<const V>: a hit never copies the
/// value under the lock, and an entry evicted while a reader still holds
/// it stays alive until the reader drops it.
template <typename V>
class ShardedLruCache {
 public:
  struct Options {
    /// Total entry capacity across all shards (rounded up to shards).
    size_t capacity = 1024;
    /// Rounded up to a power of two; 0 means the default of 8.
    size_t shards = 0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    /// Entries per shard, index-aligned with the shard array.
    std::vector<size_t> shard_entries;
    /// Occupancy skew: max shard entries over the mean (1.0 = perfectly
    /// even, 0 when empty). The /stats shard-imbalance gauge.
    double shard_imbalance = 0.0;
  };

  explicit ShardedLruCache(Options options) : options_(options) {
    options_.shards = RoundShards(options_.shards);
    shard_mask_ = options_.shards - 1;
    if (options_.capacity < options_.shards) {
      options_.capacity = options_.shards;
    }
    per_shard_capacity_ = options_.capacity / options_.shards;
    if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
    shards_ = std::vector<Shard>(options_.shards);
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// The cached value for \p key, moved to most-recently-used, or nullptr.
  ///
  /// \p count_miss = false suppresses the miss counter (hits always count):
  /// a probe-then-compute caller — the serving tier's cached fast path
  /// probes on the event-loop thread and falls back to the full pipeline,
  /// whose own Get() records the miss — would otherwise double-count every
  /// miss.
  std::shared_ptr<const V> Get(const std::string& key,
                               bool count_miss = true) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  /// Inserts or replaces \p key, evicting the least-recently-used entry of
  /// the key's shard when that shard is full.
  void Put(const std::string& key, V value) {
    auto holder = std::make_shared<const V>(std::move(value));
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(holder);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.emplace_front(key, std::move(holder));
    shard.index.emplace(key, shard.lru.begin());
    if (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Drops every entry (hit/miss/eviction counters are kept).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.index.clear();
      shard.lru.clear();
    }
  }

  Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.shard_entries.reserve(shards_.size());
    size_t max_entries = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      size_t n = shard.lru.size();
      s.entries += n;
      s.shard_entries.push_back(n);
      if (n > max_entries) max_entries = n;
    }
    if (s.entries > 0) {
      double mean =
          static_cast<double>(s.entries) / static_cast<double>(shards_.size());
      s.shard_imbalance = static_cast<double>(max_entries) / mean;
    }
    return s;
  }

  const Options& options() const { return options_; }

  /// The shard index \p key hashes to — a pure function of the key.
  size_t ShardIndex(const std::string& key) const {
    return std::hash<std::string>{}(key)&shard_mask_;
  }

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const V>>;

  /// Padded to a cache line so one shard's mutex and list-head churn never
  /// invalidates a neighbour shard's header.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, typename std::list<Entry>::iterator> index;
  };

  /// 0 -> 8; other values round up to a power of two, capped at 256.
  static size_t RoundShards(size_t requested) {
    size_t target = requested == 0 ? 8 : requested;
    size_t p = 1;
    while (p < target && p < 256) p <<= 1;
    return p;
  }

  Shard& ShardFor(const std::string& key) {
    return shards_[std::hash<std::string>{}(key)&shard_mask_];
  }

  Options options_;
  size_t per_shard_capacity_ = 1;
  size_t shard_mask_ = 0;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace ganswer

#endif  // GANSWER_COMMON_LRU_CACHE_H_
