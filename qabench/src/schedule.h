#ifndef QABENCH_SCHEDULE_H_
#define QABENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qabench {

/// Send offsets in microseconds from the phase start for \p n open-loop
/// arrivals at \p rate_per_s: exponential gaps (a Poisson process) drawn
/// from \p seed, so a schedule is a pure function of (n, rate, seed).
std::vector<int64_t> PoissonSchedule(size_t n, double rate_per_s,
                                     uint64_t seed);

/// \p n draws of Zipf(\p skew) ranks over [0, \p universe), seeded.
std::vector<size_t> ZipfDraws(size_t n, size_t universe, double skew,
                              uint64_t seed);

/// A seeded permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed);

}  // namespace qabench

#endif  // QABENCH_SCHEDULE_H_
