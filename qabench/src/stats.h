#ifndef QABENCH_STATS_H_
#define QABENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace qabench {

/// The percentile ladder timings are reported on.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0, 99.9};

/// The highest ladder percentile that has at least ten of \p n samples
/// beyond it (n * (1 - p/100) >= 10), or 0 when even the median has fewer
/// than ten samples above it.
double TailPercentile(size_t n);

/// Nearest-rank quantile of \p sorted (ascending): the ceil(q * n)-th
/// smallest value, q in [0, 1]. 0 for an empty input.
double Quantile(const std::vector<double>& sorted, double q);

/// A timing sample summarised the way every benchmark timing is reported:
/// the median plus the tail percentile TailPercentile(n) picks.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail_pct = 0;
  double tail = 0;
  double mean = 0;
  /// Value at an explicit percentile (0-100), e.g. the p99 a metric names.
  double At(double pct) const;

  std::vector<double> sorted;
};

Summary Summarize(std::vector<double> samples);

/// Median of a small sample (mean of the two middle values when even).
double Median(std::vector<double> values);

}  // namespace qabench

#endif  // QABENCH_STATS_H_
