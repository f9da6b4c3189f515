// Tests of the benchmark's own statistics and input mapping:
//   perfbench_selftest   (exit 0 when every check passes)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/harness.hpp"
#include "qasm/parser.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(n - i);  // unsorted on purpose
  }
  return v;
}

void testTail() {
  using perfbench::tailLatency;
  const auto t19 = tailLatency(ramp(19));
  check(!t19.qualified && t19.percentile == 50 && t19.value == 10,
        "19 samples: no percentile has 10 beyond it, median reported");
  const auto t20 = tailLatency(ramp(20));
  check(t20.qualified && t20.percentile == 50 && t20.beyond == 10 &&
            t20.value == 10,
        "20 samples: p50 with 10 beyond");
  const auto t99 = tailLatency(ramp(99));
  check(t99.percentile == 50, "99 samples: p90 has only 9 beyond");
  const auto t100 = tailLatency(ramp(100));
  check(t100.percentile == 90 && t100.value == 90 && t100.beyond == 10,
        "100 samples: p90");
  const auto t1000 = tailLatency(ramp(1000));
  check(t1000.percentile == 99 && t1000.value == 990, "1000 samples: p99");
  const auto t10k = tailLatency(ramp(10000));
  check(t10k.percentile == 99.9 && t10k.value == 9990 && t10k.beyond == 10,
        "10000 samples: p99.9");
  check(tailLatency({}).samples == 0, "empty input");
}

void testAverages() {
  using perfbench::geomean;
  using perfbench::median;
  check(near(geomean({1, 4, 16}), 4), "geomean of 1,4,16 is 4");
  check(near(geomean({0.5, 2}), 1), "geomean of 0.5,2 is 1");
  check(geomean({}) == 0, "geomean of nothing is 0");
  check(median({3, 1, 2}) == 2, "odd median");
  check(median({4, 1, 3, 2}) == 2.5, "even median");
}

void testSelfTime() {
  using perfbench::Interval;
  using perfbench::selfTime;
  check(near(selfTime({0, 10}, {}), 10), "no children: whole span");
  check(near(selfTime({0, 10}, {{1, 3}, {5, 6}}), 7), "disjoint children");
  check(near(selfTime({0, 10}, {{2, 4}, {1, 3}}), 7),
        "overlapping children count once");
  check(near(selfTime({0, 10}, {{8, 12}, {-2, 1}}), 7),
        "children clipped to the span");
  check(near(selfTime({0, 10}, {{0, 10}}), 0), "fully covered");

  using perfbench::Layer;
  std::vector<perfbench::Span> spans(3);
  spans[0] = {Layer::Simulate, -1, {0, 10}, -1};
  spans[1] = {Layer::DdApply, 0, {2, 5}, 6};
  spans[2] = {Layer::GateBuild, 1, {3, 4}, -1};
  const perfbench::LayerTotals t = perfbench::aggregate(spans);
  const auto at = [](Layer l) { return static_cast<std::size_t>(l); };
  check(near(t.selfSeconds[at(Layer::Simulate)], 7), "self = span - child");
  check(near(t.totalSeconds[at(Layer::Simulate)], 10), "total = span");
  check(near(t.selfSeconds[at(Layer::DdApply)], 2), "nested self time");
  check(near(t.selfSeconds[at(Layer::GateBuild)], 1), "leaf self time");
  check(t.calls[at(Layer::DdApply)] == 1, "call count");
  check(near(t.cpuSeconds[at(Layer::DdApply)] /
                 t.cpuWallSeconds[at(Layer::DdApply)],
             2),
        "cpu utilization over the spans that took it");
}

void testSeedMapping() {
  const auto harness = fdd::bench::table1Circuits();
  const auto roster = perfbench::table1Roster();
  bool same = harness.size() == roster.size();
  for (std::size_t i = 0; same && i < roster.size(); ++i) {
    same = harness[i].name == roster[i].name &&
           harness[i].circuit == roster[i].circuit;
  }
  check(same, "the roster is the Table 1 roster of the paper benches");

  check(perfbench::deriveSeed(0, 23) == 23, "seed 0 keeps the base seed");
  check(perfbench::deriveSeed(1, 23) != perfbench::deriveSeed(2, 23),
        "seeds mix into the base seed");
  check(perfbench::deriveSeed(9, 23) == perfbench::deriveSeed(9, 23) &&
            perfbench::deriveSeed(9, 23) != perfbench::deriveSeed(9, 24),
        "derived values are reproducible and distinct per base");

  auto order = perfbench::roundOrder(3, 1, 12);
  check(order == perfbench::roundOrder(3, 1, 12), "job order is seeded");
  check(order != perfbench::roundOrder(3, 2, 12), "rounds are reshuffled");
  std::sort(order.begin(), order.end());
  bool permutation = true;
  for (std::size_t i = 0; i < order.size(); ++i) {
    permutation = permutation && order[i] == i;
  }
  check(permutation, "job order is a permutation of the roster");

  const fdd::qc::Circuit step =
      fdd::qasm::parse(perfbench::trotterQasm(16, 2, 0.1, 0.2));
  check(step.numQubits() == 16 && step.numGates() == 2 * (3 * 15 + 16),
        "a Trotter batch parses to 2 steps of 61 gates");
}

}  // namespace

int main() {
  testTail();
  testAverages();
  testSelfTime();
  testSeedMapping();
  if (failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
