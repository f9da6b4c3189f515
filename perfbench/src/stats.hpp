#pragma once
// Statistics the benchmark reports: medians, the Table 1 geometric mean,
// the tail percentile rule and span self time. Kept free of simulator types
// so tests/selftest.cpp can check them on hand-made inputs.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for even sizes); 0 for
/// an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Geometric mean of positive values; 0 for an empty input.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * N) of the
/// sorted input. `sorted` must be non-empty and ascending.
[[nodiscard]] double percentileSorted(const std::vector<double>& sorted,
                                      double p);

/// The tail latency the benchmark reports: the highest percentile of
/// kTailLadder that has at least kTailBeyond samples ranked above it. When
/// even the median has fewer than that (N < 20), no percentile qualifies and
/// the median is reported with `qualified` false.
struct Tail {
  double percentile = 0;      // e.g. 99 for p99
  double value = 0;
  std::size_t samples = 0;    // N
  std::size_t beyond = 0;     // samples ranked above the percentile's rank
  bool qualified = false;
};
inline constexpr double kTailLadder[] = {50, 90, 99, 99.9};
inline constexpr std::size_t kTailBeyond = 10;
[[nodiscard]] Tail tailLatency(std::vector<double> values);

/// A closed time interval [start, end] in seconds.
struct Interval {
  double start = 0;
  double end = 0;
};

/// Self time of `span`: its duration minus the part of it covered by the
/// union of `children` (children may overlap each other or stick out of the
/// span; only the covered part inside the span counts).
[[nodiscard]] double selfTime(Interval span, std::vector<Interval> children);

}  // namespace perfbench
