#include "schedule.h"

#include <cmath>
#include <numeric>

#include "common/random.h"
#include "common/zipf.h"

namespace qabench {

std::vector<int64_t> PoissonSchedule(size_t n, double rate_per_s,
                                     uint64_t seed) {
  ganswer::Rng rng(seed);
  std::vector<int64_t> out;
  out.reserve(n);
  double t_us = 0;
  for (size_t i = 0; i < n; ++i) {
    // 1 - u keeps log() away from 0.
    t_us += -std::log(1.0 - rng.NextDouble()) / rate_per_s * 1e6;
    out.push_back(static_cast<int64_t>(t_us));
  }
  return out;
}

std::vector<size_t> ZipfDraws(size_t n, size_t universe, double skew,
                              uint64_t seed) {
  ganswer::ZipfGenerator zipf(universe, skew, seed);
  std::vector<size_t> out(n);
  for (size_t& v : out) v = zipf.Next();
  return out;
}

std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> out(n);
  std::iota(out.begin(), out.end(), size_t{0});
  ganswer::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(out[i - 1], out[rng.Next(i)]);
  }
  return out;
}

}  // namespace qabench
