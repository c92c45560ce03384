#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// Order statistics for the benchmark's reports. Header-only and free of the
/// anmat library so perfbench_selftest can test it on its own.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (`p` in (0, 1]). 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return values[rank - 1];
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile of
/// `n` samples: the tail a reported percentile rests on.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

/// The benchmark reports a tail percentile only when at least this many
/// samples lie beyond it.
constexpr size_t kMinTailSamples = 10;

/// True when a `p` percentile of `n` samples has kMinTailSamples beyond it.
inline bool TailIsSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinTailSamples;
}

/// The median, averaging the two middle samples of an even-sized sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones computed from the JSON output.
/// Needs at least two samples; a single sample gives {v, v}.
inline std::array<double, 2> Quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0]};
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  std::array<double, 2> out{};
  for (int j = 1; j <= 3; j += 2) {
    // Python: m = n + 1; delta = j*m - i*n with i = j*m // n, both in
    // quarters; position i (1-based) interpolated by delta / n.
    const long m = n + 1;
    long i = j * m / 4;
    i = std::clamp<long>(i, 1, n - 1);
    const double delta = static_cast<double>(j * m) / 4.0 - static_cast<double>(i);
    out[j / 2] = values[static_cast<size_t>(i - 1)] +
                 delta * (values[static_cast<size_t>(i)] -
                          values[static_cast<size_t>(i - 1)]);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
