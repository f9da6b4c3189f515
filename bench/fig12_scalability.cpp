// Figure 12: runtime scalability of FlatDD and the array simulator
// (Quantum++) under increasing thread counts, on Supremacy and KNN.
// Note: this container has few physical cores, so speedups saturate early;
// the paper's 64-core trend (saturation ~16 threads) cannot fully appear —
// the series shape up to the core count is what to compare.
//
// Both series are engine backends ("flatdd", "array-mi") dispatched by name;
// the array runs drop parallelThresholdDim to 2 so every gate exercises the
// thread pool (the scalability signal), while FlatDD keeps the production
// threshold. The FlatDD conversion gate is recorded per thread count: the
// DD phase is sequential, so it must not move with the thread count.
// Results go to BENCH_fig12.json.

#include <cstdio>
#include <string>
#include <thread>

#include "bench_json.hpp"
#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "common/harness.hpp"
#include "simd/kernels.hpp"

namespace fdd::bench {
namespace {

void runCase(const qc::Circuit& circuit, tools::JsonWriter& w) {
  const Qubit n = circuit.numQubits();
  std::printf("--- %s (%d qubits, %zu gates) ---\n", circuit.name().c_str(),
              n, circuit.numGates());
  Table table({"Threads", "FlatDD time", "FlatDD speedup", "Conversion gate",
               "Array time", "Array speedup"});
  w.beginObject();
  w.kv("circuit", circuit.name());
  w.kv("qubits", static_cast<std::int64_t>(n));
  w.kv("gates", circuit.numGates());
  w.key("points").beginArray();
  double flatBase = 0;
  double arrBase = 0;
  constexpr int kReps = 3;  // best-of-N to tame container jitter
  for (const unsigned t : {1u, 2u, 4u, 8u, 16u}) {
    engine::EngineOptions flatOpt;
    flatOpt.threads = t;
    engine::EngineOptions arrOpt;
    arrOpt.threads = t;
    arrOpt.parallelThresholdDim = 2;

    const engine::RunReport flat = bestOf(kReps, "flatdd", circuit, flatOpt);
    const double tFlat = flat.simulateSeconds;
    const double tArr =
        bestOf(kReps, "array-mi", circuit, arrOpt).simulateSeconds;

    if (t == 1) {
      flatBase = tFlat;
      arrBase = tArr;
    }
    table.addRow({std::to_string(t), fmtSeconds(tFlat),
                  fmtRatio(flatBase / tFlat),
                  flat.converted ? std::to_string(flat.conversionGateIndex)
                                 : "-",
                  fmtSeconds(tArr), fmtRatio(arrBase / tArr)});
    w.beginObject();
    w.kv("threads", static_cast<std::int64_t>(t));
    w.kv("flatddSeconds", tFlat);
    w.kv("flatddSpeedup", flatBase / tFlat);
    w.kv("converted", flat.converted);
    w.kv("conversionGateIndex", flat.conversionGateIndex);
    w.kv("arraySeconds", tArr);
    w.kv("arraySpeedup", arrBase / tArr);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  table.print();
  std::printf("\n");
}

int run() {
  printPreamble("Figure 12 — runtime scalability over threads",
                "FlatDD (ICPP'24), Fig. 12");
  tools::JsonWriter w;
  w.beginObject();
  w.kv("bench", "fig12_scalability");
  w.kv("hardwareThreads",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.kv("simdTier", simd::toString(simd::activeTier()));
  w.key("cases").beginArray();
  runCase(circuits::supremacy(16, 8, 23), w);
  runCase(circuits::knn(17, 17), w);
  w.endArray();
  w.endObject();
  writeBenchJson("BENCH_fig12.json", w.str());
  return 0;
}

}  // namespace
}  // namespace fdd::bench

int main() { return fdd::bench::run(); }
