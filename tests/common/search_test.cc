#include "common/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace ganswer {
namespace {

// Both probes promise the std::lower_bound contract exactly; the tests
// compare against it on exhaustive small inputs and randomized large ones.

TEST(SearchTest, BranchlessMatchesStdExhaustively) {
  // Every sorted multiset over {0..4} up to length 6, probed with every
  // value in and around the range.
  std::vector<uint32_t> keys;
  for (uint32_t mask = 0; mask < (1u << 12); ++mask) {
    keys.clear();
    uint32_t m = mask;
    while (m != 0 && keys.size() < 6) {
      keys.push_back(m % 5);
      m /= 5;
    }
    std::sort(keys.begin(), keys.end());
    for (uint32_t probe = 0; probe <= 5; ++probe) {
      auto expected = std::lower_bound(keys.begin(), keys.end(), probe);
      auto branchless = BranchlessLowerBound(keys.begin(), keys.end(), probe);
      auto galloping = GallopingLowerBound(keys.begin(), keys.end(), probe);
      ASSERT_EQ(expected - keys.begin(), branchless - keys.begin());
      ASSERT_EQ(expected - keys.begin(), galloping - keys.begin());
    }
  }
}

TEST(SearchTest, EmptyRange) {
  std::vector<int> empty;
  EXPECT_EQ(BranchlessLowerBound(empty.begin(), empty.end(), 7), empty.end());
  EXPECT_EQ(GallopingLowerBound(empty.begin(), empty.end(), 7), empty.end());
}

TEST(SearchTest, RandomizedLargeRuns) {
  std::mt19937 rng(99);
  for (int round = 0; round < 20; ++round) {
    size_t n = 1 + rng() % 5000;
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) k = rng() % (n * 2);
    std::sort(keys.begin(), keys.end());
    for (int probe = 0; probe < 200; ++probe) {
      uint64_t v = rng() % (n * 2 + 2);
      auto expected = std::lower_bound(keys.begin(), keys.end(), v);
      EXPECT_EQ(expected, BranchlessLowerBound(keys.begin(), keys.end(), v));
      EXPECT_EQ(expected, GallopingLowerBound(keys.begin(), keys.end(), v));
    }
  }
}

TEST(SearchTest, GallopingFromAdvancingIterator) {
  // The merge-join shape: restart each search from the previous hit.
  std::mt19937 rng(7);
  std::vector<uint32_t> keys(10000);
  uint32_t next = 0;
  for (auto& k : keys) k = next += rng() % 4;
  auto it = keys.begin();
  auto expected_it = keys.begin();
  while (it != keys.end() && keys.end() - it > 40) {
    uint32_t target = *(it + 1 + rng() % 32);
    it = GallopingLowerBound(it, keys.end(), target);
    expected_it = std::lower_bound(expected_it, keys.end(), target);
    ASSERT_EQ(expected_it, it);
    if (it != keys.end()) ++it, ++expected_it;
  }

  // The same advance over (key, payload) records, probed with a bare key
  // under the first-field comparator SparqlEngine's merge join uses.
  std::vector<std::pair<uint32_t, uint32_t>> recs(4096);
  next = 0;
  for (auto& r : recs) {
    next += rng() % 4;  // duplicate keys and short gaps
    r = {next, static_cast<uint32_t>(rng())};
  }
  auto first_less = [](const std::pair<uint32_t, uint32_t>& r, uint32_t k) {
    return r.first < k;
  };
  const auto* cur = recs.data();
  const auto* end = recs.data() + recs.size();
  size_t expected = 0;
  while (cur != end) {
    uint32_t target =
        recs[std::min(recs.size() - 1, expected + rng() % 32)].first + 1;
    cur = GallopingLowerBound(cur, end, target, first_less);
    while (expected < recs.size() && recs[expected].first < target) {
      ++expected;
    }
    ASSERT_EQ(expected, static_cast<size_t>(cur - recs.data()));
  }
}

TEST(SearchTest, CustomComparatorOnPairs) {
  // The engine's permutation-run shape: pairs ordered by first component,
  // probed with {key, 0} under a first-only comparator.
  auto cmp = [](const std::pair<uint32_t, uint32_t>& a,
                const std::pair<uint32_t, uint32_t>& b) {
    return a.first < b.first;
  };
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  for (uint32_t k = 0; k < 50; k += 3) {
    for (uint32_t i = 0; i < 1 + k % 5; ++i) runs.push_back({k, i * 7});
  }
  for (uint32_t probe = 0; probe <= 52; ++probe) {
    std::pair<uint32_t, uint32_t> target{probe, 0};
    auto expected = std::lower_bound(runs.begin(), runs.end(), target, cmp);
    EXPECT_EQ(expected, BranchlessLowerBound(runs.begin(), runs.end(), target,
                                             cmp));
    EXPECT_EQ(expected,
              GallopingLowerBound(runs.begin(), runs.end(), target, cmp));
  }
}

}  // namespace
}  // namespace ganswer
