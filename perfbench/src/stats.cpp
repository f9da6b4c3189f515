#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double logSum = 0;
  for (const double v : values) {
    logSum += std::log(v);
  }
  return std::exp(logSum / static_cast<double>(values.size()));
}

namespace {
std::size_t nearestRank(std::size_t n, double p) {
  // The epsilon keeps ranks like 99.9% of 10000 from rounding up past 9990.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentileSorted(const std::vector<double>& sorted, double p) {
  return sorted[nearestRank(sorted.size(), p) - 1];
}

Tail tailLatency(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  tail.percentile = kTailLadder[0];
  for (const double p : kTailLadder) {
    const std::size_t beyond = n - nearestRank(n, p);
    if (beyond < kTailBeyond) {
      break;
    }
    tail.percentile = p;
    tail.qualified = true;
  }
  tail.value = percentileSorted(values, tail.percentile);
  tail.beyond = n - nearestRank(n, tail.percentile);
  return tail;
}

double selfTime(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0;
  double cursor = span.start;  // everything before cursor is accounted for
  for (const Interval& c : children) {
    const double lo = std::max(c.start, cursor);
    const double hi = std::min(c.end, span.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return std::max(0.0, (span.end - span.start) - covered);
}

}  // namespace perfbench
