// Figure 11: per-gate runtime of FlatDD, DDSIM, and the array simulator on
// irregular circuits (DNN, Supremacy). The paper's shape: DDSIM's per-gate
// time explodes once the state turns irregular; FlatDD follows DDSIM until
// the conversion point and then stays flat, below the array simulator.
//
// All three traces come from the engine's normalized per-gate recording
// (EngineOptions::recordPerGate -> RunReport::perGate), so the three
// backends are sampled by exactly the same mechanism.
//
// A second section benchmarks the DMAV plan compiler on a repeated-gate
// workload: the same FlatDD run with the plan cache on (compile once,
// replay thereafter) vs. off (pre-plan recursive Assign+Run per gate), and
// emits the comparison as BENCH_fig11.json for CI.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.hpp"
#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "common/harness.hpp"
#include "parallel/thread_pool.hpp"

namespace fdd::bench {
namespace {

void runCase(const qc::Circuit& circuit) {
  const Qubit n = circuit.numQubits();
  std::printf("--- %s (%d qubits, %zu gates) ---\n", circuit.name().c_str(),
              n, circuit.numGates());

  engine::EngineOptions multi;
  multi.threads = benchThreads();
  multi.recordPerGate = true;
  engine::EngineOptions single;
  single.threads = 1;
  single.recordPerGate = true;

  const engine::RunReport flat = runBackend("flatdd", circuit, multi);
  const engine::RunReport dd = runBackend("dd", circuit, single);
  const engine::RunReport arr = runBackend("array-mi", circuit, multi);

  const auto& flatTrace = flat.perGate;
  const auto& ddTrace = dd.perGate;
  const auto& arrTrace = arr.perGate;

  Table table({"Gate", "FlatDD", "phase", "DDSIM", "Array"});
  const std::size_t stride = std::max<std::size_t>(1, ddTrace.size() / 24);
  for (std::size_t i = 0; i < ddTrace.size(); i += stride) {
    // After fusion-less conversion the FlatDD trace is 1:1 with gates.
    const std::string phase =
        i < flatTrace.size() ? flatTrace[i].phase : std::string("-");
    const double flatT = i < flatTrace.size() ? flatTrace[i].seconds : 0.0;
    const double arrT = i < arrTrace.size() ? arrTrace[i].seconds : 0.0;
    table.addRow({std::to_string(i), fmtSeconds(flatT), phase,
                  fmtSeconds(ddTrace[i].seconds), fmtSeconds(arrT)});
  }
  table.print();
  if (flat.converted) {
    std::printf("FlatDD converted at gate %zu (conversion took %s)\n\n",
                flat.conversionGateIndex,
                fmtSeconds(flat.conversionSeconds).c_str());
  } else {
    std::printf("FlatDD never converted on this circuit\n\n");
  }
}

// A layered circuit whose per-layer gate set is identical across layers —
// the repeated-gate workload the plan cache is built for. Mix: diagonal
// rotations (DiagScale spans), a CP ladder (diagonal two-qubit), one X
// (permutation) and one H (dense accumulate) per layer.
qc::Circuit repeatedLayers(Qubit n, unsigned layers) {
  qc::Circuit c{n, "repeated-layers"};
  for (unsigned l = 0; l < layers; ++l) {
    for (Qubit q = 0; q < n; ++q) {
      c.rz(0.37 + 0.11 * q, q);
    }
    for (Qubit q = 0; q + 1 < n; ++q) {
      c.cp(PI / 4, q, static_cast<Qubit>(q + 1));
    }
    c.x(0);
    c.h(n - 1);
  }
  return c;
}

/// Plan-cache on/off comparison on the repeated-gate workload; emits
/// BENCH_fig11.json. Per the plan-compiler acceptance: >= 20 applications
/// per distinct gate, 8 DMAV threads, hit rate and per-gate speedup.
void runPlanCompilerCase() {
  constexpr Qubit n = 12;
  constexpr unsigned kLayers = 24;
  constexpr unsigned kThreads = 8;
  // The DMAV thread clamp caps at the pool size; guarantee 8 workers even
  // on small hosts (resizePool keeps working mid-process).
  if (par::globalPool().size() < kThreads) {
    par::resizePool(kThreads);
  }
  const qc::Circuit circuit = repeatedLayers(n, kLayers);
  std::printf("--- plan compiler: %s (%d qubits, %zu gates, %u layers) ---\n",
              circuit.name().c_str(), n, circuit.numGates(), kLayers);

  engine::EngineOptions base;
  base.threads = kThreads;
  base.parallelThresholdDim = 2;  // force multi-threaded DMAV at n=12
  base.forceConversionAtGate = 1; // everything after gate 1 is DMAV
  engine::EngineOptions planOn = base;
  planOn.usePlanCache = true;
  engine::EngineOptions planNoFuse = planOn;
  planNoFuse.fuseDiagonalRuns = false;  // plans per gate, no DiagRun collapse
  engine::EngineOptions planOff = base;
  planOff.usePlanCache = false;

  const engine::RunReport with = bestOf(3, "flatdd", circuit, planOn);
  const engine::RunReport noFuse = bestOf(3, "flatdd", circuit, planNoFuse);
  const engine::RunReport without = bestOf(3, "flatdd", circuit, planOff);

  const auto perGate = [](const engine::RunReport& r) {
    return r.dmavGates == 0 ? 0.0
                            : r.dmavPhaseSeconds /
                                  static_cast<double>(r.dmavGates);
  };
  const double planUs = perGate(with) * 1e6;
  const double noFuseUs = perGate(noFuse) * 1e6;
  const double preplanUs = perGate(without) * 1e6;
  const double lookups =
      static_cast<double>(with.planCacheHits + with.planCacheMisses);
  const double hitRate =
      lookups == 0 ? 0.0 : static_cast<double>(with.planCacheHits) / lookups;
  const double speedup = planUs > 0 ? preplanUs / planUs : 0.0;
  const double fuseSpeedup = planUs > 0 ? noFuseUs / planUs : 0.0;

  Table table({"Config", "DMAV/gate", "hit rate", "compiles", "compile",
               "replay"});
  table.addRow({"plan cache + diag fusion", fmtSeconds(perGate(with)),
                fmtPercent(hitRate * 100),
                std::to_string(with.planCompiles),
                fmtSeconds(with.planCompileSeconds),
                fmtSeconds(with.dmavReplaySeconds)});
  table.addRow({"plan cache, per-gate", fmtSeconds(perGate(noFuse)), "-",
                std::to_string(noFuse.planCompiles),
                fmtSeconds(noFuse.planCompileSeconds),
                fmtSeconds(noFuse.dmavReplaySeconds)});
  table.addRow({"pre-plan (recursive)", fmtSeconds(perGate(without)), "-",
                "-", "-", "-"});
  table.print();
  std::printf("plan-cache speedup: %s per DMAV gate; diagonal-run fusion: "
              "%s over per-gate plans (%zu runs collapsing %zu gates)\n\n",
              fmtRatio(speedup).c_str(), fmtRatio(fuseSpeedup).c_str(),
              with.diagRuns, with.diagRunGates);

  tools::JsonWriter w;
  w.beginObject();
  w.kv("bench", "fig11_per_gate");
  w.key("planCompiler").beginObject();
  w.kv("circuit", circuit.name());
  w.kv("qubits", static_cast<std::int64_t>(n));
  w.kv("gates", circuit.numGates());
  w.kv("layers", kLayers);
  w.kv("threads", kThreads);
  w.key("plan").beginObject();
  w.kv("dmavGates", with.dmavGates);
  w.kv("dmavSeconds", with.dmavPhaseSeconds);
  w.kv("perGateUs", planUs);
  w.kv("planCacheHits", with.planCacheHits);
  w.kv("planCacheMisses", with.planCacheMisses);
  w.kv("hitRate", hitRate);
  w.kv("planCompiles", with.planCompiles);
  w.kv("compileSeconds", with.planCompileSeconds);
  w.kv("replaySeconds", with.dmavReplaySeconds);
  w.kv("diagRuns", with.diagRuns);
  w.kv("diagRunGates", with.diagRunGates);
  w.kv("denseBlockGates", with.denseBlockGates);
  w.kv("inPlaceGates", with.inPlaceGates);
  w.endObject();
  w.key("planNoFuse").beginObject();
  w.kv("dmavGates", noFuse.dmavGates);
  w.kv("dmavSeconds", noFuse.dmavPhaseSeconds);
  w.kv("perGateUs", noFuseUs);
  w.endObject();
  w.key("preplan").beginObject();
  w.kv("dmavGates", without.dmavGates);
  w.kv("dmavSeconds", without.dmavPhaseSeconds);
  w.kv("perGateUs", preplanUs);
  w.endObject();
  w.kv("speedup", speedup);
  w.kv("fusionSpeedup", fuseSpeedup);
  w.endObject();
  w.endObject();
  writeBenchJson("BENCH_fig11.json", w.str());
}

int run() {
  printPreamble("Figure 11 — per-gate runtime comparison",
                "FlatDD (ICPP'24), Fig. 11 (and the Fig. 3 top box)");
  runCase(circuits::dnn(12, 8, 7));
  runCase(circuits::supremacy(12, 8, 23));
  runPlanCompilerCase();
  return 0;
}

}  // namespace
}  // namespace fdd::bench

int main() { return fdd::bench::run(); }
