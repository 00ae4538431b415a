// Order statistics for the benchmark's per-epoch samples.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// samples is the ceil(p * n)-th smallest. With it, exactly
// samples_beyond(n, p) = n - ceil(p * n) samples lie strictly above the
// reported rank, which is how main.cpp proves its tail figure has at
// least ten samples behind it (100 samples -> p90 is the 90th smallest,
// with 10 beyond).
#pragma once

#include <cstddef>
#include <span>

namespace perfbench {

/// Median of `values` (mean of the two middle samples when n is even).
/// Throws std::invalid_argument on an empty input.
double median(std::span<const double> values);

/// Nearest-rank percentile, p in (0, 1]. Throws std::invalid_argument on an
/// empty input or p outside (0, 1].
double percentile(std::span<const double> values, double p);

/// 1-based rank percentile() reports: ceil(p * n), at least 1.
std::size_t percentile_rank(std::size_t n, double p);

/// Samples strictly above the percentile's rank: n - percentile_rank(n, p).
std::size_t samples_beyond(std::size_t n, double p);

/// Arithmetic mean (0 for an empty input).
double mean(std::span<const double> values);

}  // namespace perfbench
