#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace perfbench {

double median(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t percentile_rank(std::size_t n, double p) {
  if (!(p > 0.0 && p <= 1.0))
    throw std::invalid_argument("percentile outside (0, 1]");
  // The epsilon keeps exact products (0.9 * 100 = 90.000000000000014)
  // from rounding up to the next rank.
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::max<std::size_t>(1, static_cast<std::size_t>(r));
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - std::min(n, percentile_rank(n, p));
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  return v[percentile_rank(v.size(), p) - 1];
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench
