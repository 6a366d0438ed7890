#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace qabench {

double TailPercentile(size_t n) {
  double best = 0;
  for (double p : kPercentileLadder) {
    // Rounded to absorb the binary error of 1 - 0.999.
    double beyond = std::round(static_cast<double>(n) * (100.0 - p) * 10.0) /
                    1000.0;
    if (beyond >= 10.0) best = p;
  }
  return best;
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

double Summary::At(double pct) const { return Quantile(sorted, pct / 100.0); }

Summary Summarize(std::vector<double> samples) {
  Summary s;
  std::sort(samples.begin(), samples.end());
  s.n = samples.size();
  s.sorted = std::move(samples);
  if (s.n == 0) return s;
  s.p50 = Quantile(s.sorted, 0.5);
  s.tail_pct = TailPercentile(s.n);
  s.tail = s.tail_pct > 0 ? Quantile(s.sorted, s.tail_pct / 100.0) : s.p50;
  s.mean = std::accumulate(s.sorted.begin(), s.sorted.end(), 0.0) /
           static_cast<double>(s.n);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace qabench
