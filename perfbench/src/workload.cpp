#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <malloc.h>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "common/prng.hpp"
#include "composed.hpp"
#include "stats.hpp"

namespace perfbench {

namespace circuits = fdd::circuits;

namespace {
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void printResult(const RunResult& result) {
  bool finite = true;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    finite = finite && std::isfinite(m.value);
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("metric %-28s = %-22s %s\n", m.name.c_str(), number(v).c_str(),
                m.unit.c_str());
    metrics += (metrics.empty() ? "" : ", ");
    metrics += "\"" + m.name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = finite && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", result.attempted, result.failed,
              metrics.c_str());
  std::fflush(stdout);
}

void releaseFreedMemory() { malloc_trim(0); }

std::vector<std::string> guardedEnvSet() {
  std::vector<std::string> set;
  for (const char* name : kGuardedEnv) {
    if (std::getenv(name) != nullptr) {
      set.emplace_back(name);
    }
  }
  return set;
}

std::uint64_t deriveSeed(std::uint64_t workloadSeed, std::uint64_t base) {
  if (workloadSeed == 0) {
    return base;
  }
  return fdd::SplitMix64{base ^ fdd::SplitMix64{workloadSeed}.next()}.next();
}

std::vector<RosterCircuit> table1Roster() {
  std::vector<RosterCircuit> out;
  out.push_back({"DNN n=10", circuits::dnn(10, 10, 7)});
  out.push_back({"DNN n=12", circuits::dnn(12, 12, 7)});
  out.push_back({"DNN n=14", circuits::dnn(14, 12, 7)});
  out.push_back({"Adder n=18", circuits::adder(8, 173, 94)});
  out.push_back({"GHZ n=16", circuits::ghz(16)});
  out.push_back({"VQE n=12", circuits::vqe(12, 4, 11)});
  out.push_back({"KNN n=13", circuits::knn(13, 17)});
  out.push_back({"KNN n=15", circuits::knn(15, 17)});
  out.push_back({"SwapTest n=13", circuits::swapTest(13, 13)});
  out.push_back({"Supremacy n=12", circuits::supremacy(12, 10, 23)});
  out.push_back({"Supremacy n=13", circuits::supremacy(13, 10, 23)});
  out.push_back({"Supremacy n=14", circuits::supremacy(14, 10, 23)});
  return out;
}

std::vector<RosterCircuit> smokeRoster() {
  std::vector<RosterCircuit> out;
  out.push_back({"DNN n=6", circuits::dnn(6, 3, 7)});
  out.push_back({"Adder n=6", circuits::adder(2, 1, 2)});
  out.push_back({"GHZ n=6", circuits::ghz(6)});
  out.push_back({"VQE n=6", circuits::vqe(6, 2, 11)});
  out.push_back({"KNN n=5", circuits::knn(5, 17)});
  out.push_back({"SwapTest n=5", circuits::swapTest(5, 13)});
  out.push_back({"Supremacy n=8", circuits::supremacy(8, 6, 23)});
  return out;
}

std::vector<std::size_t> roundOrder(std::uint64_t seed, std::uint64_t round,
                                    std::size_t n) {
  fdd::Xoshiro256 rng{fdd::SplitMix64{seed ^ (round * 0x9e3779b97f4a7c15ULL)}
                          .next()};
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

std::string trotterQasm(fdd::Qubit n, unsigned steps, double theta,
                        double phi) {
  std::string q = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                  std::to_string(n) + "];\n";
  const std::string rz = "rz(" + number(theta) + ") q[";
  const std::string rx = "rx(" + number(phi) + ") q[";
  for (unsigned s = 0; s < steps; ++s) {
    for (fdd::Qubit b = 0; b + 1 < n; ++b) {
      const std::string pair =
          "q[" + std::to_string(b) + "],q[" + std::to_string(b + 1) + "];\n";
      q += "cx " + pair + rz + std::to_string(b + 1) + "];\ncx " + pair;
    }
    for (fdd::Qubit b = 0; b < n; ++b) {
      q += rx + std::to_string(b) + "];\n";
    }
  }
  return q;
}

std::vector<Metric> layerMetrics(const LayerReport& r) {
  const LayerTotals& t = r.layers;
  const double jobs = static_cast<double>(std::max<std::size_t>(r.jobs, 1));
  const auto at = [](Layer l) { return static_cast<std::size_t>(l); };
  const auto perJob = [jobs](double v) { return v / jobs; };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto self = [&](Layer l) { return perJob(t.selfSeconds[at(l)]); };
  const auto calls = [&](Layer l) {
    return perJob(static_cast<double>(t.calls[at(l)]));
  };
  const auto util = [&](Layer l) {
    return ratio(t.cpuSeconds[at(l)], t.cpuWallSeconds[at(l)]);
  };
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  return {
      {"dd.gate_build.s", self(Layer::GateBuild), "s/job"},
      {"dd.gate_build.calls", calls(Layer::GateBuild), "1/job"},
      {"dd.apply.s", self(Layer::DdApply), "s/job"},
      {"dd.apply.calls", calls(Layer::DdApply), "1/job"},
      {"dd.apply.cpu_util", util(Layer::DdApply), "cores"},
      {"dd.gc.s", self(Layer::DdGc), "s/job"},
      {"dd.gc.calls", calls(Layer::DdGc), "1/job"},
      {"dd.peak_nodes", d(r.peakDDSize), "nodes"},
      {"dd.compute.hit_ratio", ratio(d(r.computeHits), d(r.computeLookups)),
       "ratio"},
      {"flatdd.ewma.s", self(Layer::Ewma), "s/job"},
      {"flatdd.ewma.convert_ratio", ratio(d(r.conversions), d(r.simulations)),
       "ratio"},
      {"flatdd.ewma.dd_gate_frac", ratio(d(r.ddGates), d(r.totalGates)),
       "ratio"},
      {"flatdd.conversion.s", self(Layer::Conversion), "s/job"},
      {"flatdd.conversion.calls", calls(Layer::Conversion), "1/job"},
      {"flatdd.conversion.bytes", perJob(d(r.conversionBytes)), "B/job"},
      {"flatdd.plan.lookups", perJob(d(r.planLookups)), "1/job"},
      {"flatdd.plan.hit_ratio", ratio(d(r.planHits), d(r.planLookups)),
       "ratio"},
      {"flatdd.plan.compiles", perJob(d(r.planCompiles)), "1/job"},
      {"flatdd.plan.compile_s", self(Layer::Plan), "s/job"},
      {"flatdd.replay.s", self(Layer::Replay), "s/job"},
      {"flatdd.replay.calls", calls(Layer::Replay), "1/job"},
      {"flatdd.replay.bytes", perJob(d(r.replayBytes)), "B/job"},
      {"flatdd.replay.cpu_util", util(Layer::Replay), "cores"},
      {"flatdd.replay.diag_run_gates", perJob(d(r.diagRunGates)), "1/job"},
      {"flatdd.sample.s", self(Layer::Sample), "s/job"},
      {"flatdd.sample.shots", perJob(d(r.shots)), "1/job"},
      {"qasm.parse.s", self(Layer::QasmParse), "s/job"},
      {"qasm.parse.bytes", perJob(d(r.qasmBytes)), "B/job"},
      {"service.requests", perJob(d(r.serviceRequests)), "1/job"},
      {"service.errors", d(r.serviceErrors), "count"},
      {"service.queue_wait.s", perJob(r.queueWaitSeconds), "s/job"},
      {"service.exec.s", perJob(r.execSeconds), "s/job"},
      {"service.protocol.s", perJob(r.protocolSeconds), "s/job"},
      {"engine.simulate.s", perJob(t.totalSeconds[at(Layer::Simulate)]),
       "s/job"},
      {"engine.unattributed.s", self(Layer::Simulate), "s/job"},
      {"trace.overhead_frac",
       r.untracedSeconds > 0 ? r.tracedSeconds / r.untracedSeconds - 1 : 0.0,
       "ratio"},
      {"trace.mismatch_jobs", d(r.mismatchJobs), "count"},
  };
}

void addSimulation(LayerReport& r, const ComposedFlatDD& composed) {
  const ComposedStats& st = composed.stats();
  ++r.simulations;
  r.conversions += st.converted ? 1 : 0;
  r.ddGates += st.ddGates;
  r.planLookups += st.planLookups;
  r.planHits += st.planHits;
  r.planCompiles += st.planCompiles;
  r.replayBytes += st.replayBytes;
  r.conversionBytes += st.conversionBytes;
  r.diagRunGates += st.diagRunGates;
  r.peakDDSize = std::max(r.peakDDSize, st.peakDDSize);
  r.computeHits += composed.computeHits();
  r.computeLookups += composed.computeLookups();
  r.shots += st.sampledShots;
}

std::vector<Metric> endToEndMetrics(const EndToEnd& e) {
  const Tail tail = tailLatency(e.jobLatencies);
  std::printf("job_tail_s is p%g of %zu job latencies (%zu beyond it)%s\n",
              tail.percentile, tail.samples, tail.beyond,
              tail.qualified ? ""
                             : "; fewer than 10 beyond every percentile, "
                               "so the median is reported");
  const double jobs = static_cast<double>(e.jobLatencies.size());
  std::vector<double> sorted = e.jobLatencies;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank, like the tail, so job_tail_s >= job_p50_s always holds.
  const double p50 = sorted.empty() ? 0.0 : percentileSorted(sorted, 50);
  return {
      {"jobs_per_s", e.wallSeconds > 0 ? jobs / e.wallSeconds : 0.0, "1/s"},
      {"job_p50_s", p50, "s"},
      {"job_tail_s", tail.value, "s"},
      {"job_geomean_s", geomean(e.jobLatencies), "s"},
      {"peak_rss_mb", e.peakRssBytes / (1024.0 * 1024.0), "MB"},
      {"setup_s", median(e.setupSeconds), "s"},
  };
}

}  // namespace perfbench
