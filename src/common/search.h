#ifndef GANSWER_COMMON_SEARCH_H_
#define GANSWER_COMMON_SEARCH_H_

#include <cstddef>
#include <functional>

namespace ganswer {

/// \brief Branchless lower bound over a sorted random-access range.
///
/// Identical contract to std::lower_bound(first, last, value, comp): returns
/// the first position not ordered before \p value. The probe loop halves a
/// length instead of maintaining a [lo, hi) pair, so each step is one
/// comparison feeding a conditional pointer bump — no hard-to-predict branch
/// on the comparison outcome. On the flat POD runs the engine probes
/// (adjacency slices, permutation columns) this beats std::lower_bound by
/// avoiding the per-step mispredict on random lookup keys.
template <typename It, typename T, typename Comp = std::less<>>
It BranchlessLowerBound(It first, It last, const T& value, Comp comp = {}) {
  size_t n = static_cast<size_t>(last - first);
  while (n > 1) {
    size_t half = n / 2;
    // first += comp(first[half-1], value) ? half : 0, without a branch.
    first += comp(first[half - 1], value) ? half : 0;
    n -= half;
  }
  if (n == 1 && comp(*first, value)) ++first;
  return first;
}

/// \brief Galloping (exponential) lower bound for probes expected to land
/// near \p first.
///
/// Doubles a probe offset until it overshoots, then finishes with the
/// branchless search inside the bracketed window. A merge join advancing
/// through two sorted runs probes positions that are usually a handful of
/// elements ahead, so the gallop touches O(log d) elements for distance d
/// instead of O(log n) spread across the whole run — fewer cache misses on
/// large permutation columns.
template <typename It, typename T, typename Comp = std::less<>>
It GallopingLowerBound(It first, It last, const T& value, Comp comp = {}) {
  size_t n = static_cast<size_t>(last - first);
  size_t bound = 1;
  while (bound < n && comp(first[bound - 1], value)) {
    bound *= 2;
  }
  size_t lo = bound / 2;  // first[lo - 1] < value already established
  size_t hi = bound < n ? bound : n;
  return BranchlessLowerBound(first + lo, first + hi, value, comp);
}

}  // namespace ganswer

#endif  // GANSWER_COMMON_SEARCH_H_
