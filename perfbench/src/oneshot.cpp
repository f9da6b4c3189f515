// oneshot-t1 / oneshot-nproc: every roster circuit runs one-shot through
// engine::SimulationEngine::run("flatdd", ...) and then draws shots. One
// closed-loop load thread; the engine itself uses `threads` workers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/prng.hpp"
#include "common/rss.hpp"
#include "composed.hpp"
#include "engine/simulation_engine.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

using fdd::Complex;
using fdd::Index;

namespace {

constexpr std::size_t kShots = 1024;
// 1 - |<ref|psi>|^2 allowed between the flatdd final state and the array
// reference (the DD package merges weights at a 1e-10 tolerance).
constexpr double kFidelityTolerance = 1e-6;
// Largest elementwise difference allowed between the engine's and the
// composition's final states.
constexpr double kMismatchTolerance = 1e-9;
constexpr int kSetupRepeats = 31;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double infidelity(const fdd::AlignedVector<Complex>& ref,
                  const fdd::AlignedVector<Complex>& psi) {
  if (ref.size() != psi.size()) {
    return 1;
  }
  Complex overlap{0, 0};
  double nr = 0;
  double np = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    overlap += std::conj(ref[i]) * psi[i];
    nr += std::norm(ref[i]);
    np += std::norm(psi[i]);
  }
  return 1 - std::norm(overlap) / (nr * np);
}

double maxAbsDiff(const fdd::AlignedVector<Complex>& a,
                  const fdd::AlignedVector<Complex>& b) {
  if (a.size() != b.size()) {
    return INFINITY;
  }
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

/// The shot stream of one job: a function of the workload seed and the
/// job's position, so a seed fixes every job's shots.
fdd::Xoshiro256 shotRng(std::uint64_t seed, std::uint64_t job) {
  return fdd::Xoshiro256{deriveSeed(seed, 0x5eed0000ULL + job) ^ job};
}

}  // namespace

RunResult runOneshot(const RunConfig& config, unsigned threads) {
  const std::vector<RosterCircuit> roster =
      config.smoke ? smokeRoster() : table1Roster();
  std::printf("simd tier: %s (d=%u); engine threads: %u\n",
              fdd::simd::toString(fdd::simd::activeTier()),
              fdd::simd::lanes(), threads);
  fdd::Qubit maxQubits = 1;
  for (const RosterCircuit& rc : roster) {
    std::printf("roster: %-16s qubits=%-3u gates=%zu\n", rc.name.c_str(),
                static_cast<unsigned>(rc.circuit.numQubits()),
                rc.circuit.numGates());
    maxQubits = std::max(maxQubits, rc.circuit.numQubits());
  }

  fdd::engine::EngineOptions options;
  options.threads = threads;

  // The benchmark's own reference: the array backend, outside setup_s.
  std::vector<fdd::AlignedVector<Complex>> reference;
  {
    fdd::engine::EngineOptions refOptions;
    refOptions.threads = config.nproc;
    for (const RosterCircuit& rc : roster) {
      fdd::engine::SimulationEngine engine{refOptions};
      (void)engine.run("array", rc.circuit);
      reference.push_back(engine.backend().stateVector());
    }
  }

  // Program set-up: the worker pool and a first flatdd backend at the
  // roster's widest register, repeated so the median is stable.
  EndToEnd e2e;
  for (int k = 0; k < kSetupRepeats; ++k) {
    releaseFreedMemory();
    const double t0 = now();
    fdd::par::resizePool(config.nproc);
    fdd::engine::SimulationEngine engine{options};
    engine.begin("flatdd", maxQubits);
    e2e.setupSeconds.push_back(now() - t0);
  }

  RunResult result;
  std::vector<std::vector<double>> perCircuit(roster.size());
  LayerReport layers;
  SpanRecorder recorder;
  const double start = now();
  for (std::uint64_t round = 0;; ++round) {
    const std::vector<std::size_t> order =
        roundOrder(config.seed, round, roster.size());
    for (const std::size_t idx : order) {
      const RosterCircuit& rc = roster[idx];
      const fdd::qc::Circuit& circuit = rc.circuit;
      const std::uint64_t jobId = round * roster.size() + idx;
      ++result.attempted;
      bool ok = false;
      try {
        fdd::Xoshiro256 rng = shotRng(config.seed, jobId);
        options.seed = jobId;
        const double t0 = now();
        fdd::engine::SimulationEngine engine{options};
        const fdd::engine::RunReport report = engine.run("flatdd", circuit);
        const std::vector<Index> shots = engine.backend().sample(kShots, rng);
        const double latency = now() - t0;
        e2e.jobLatencies.push_back(latency);
        perCircuit[idx].push_back(latency);

        const Index dim = Index{1} << circuit.numQubits();
        const fdd::AlignedVector<Complex> state =
            engine.backend().stateVector();
        ok = shots.size() == kShots &&
             std::all_of(shots.begin(), shots.end(),
                         [dim](Index s) { return s < dim; }) &&
             infidelity(reference[idx], state) <= kFidelityTolerance;
        if (!ok) {
          std::fprintf(stderr, "output check failed: %s (job %llu)\n",
                       rc.name.c_str(),
                       static_cast<unsigned long long>(jobId));
        }

        if (config.trace) {
          fdd::Xoshiro256 rngC = shotRng(config.seed, jobId);
          std::optional<ComposedFlatDD> composed;
          const double c0 = recorder.now();
          std::vector<Index> shotsC;
          {
            const SpanRecorder::Scope job{recorder, Layer::Job};
            composed.emplace(circuit.numQubits(), options, recorder);
            composed->simulate(circuit);
            shotsC = composed->sample(kShots, rngC);
          }
          layers.tracedSeconds += recorder.now() - c0;
          layers.untracedSeconds += latency;
          ++layers.jobs;
          const ComposedStats& st = composed->stats();
          const bool agree =
              report.converted == st.converted &&
              report.conversionGateIndex == st.conversionGateIndex &&
              report.planCompiles == st.planCompiles && shots == shotsC &&
              maxAbsDiff(state, composed->stateVector()) <= kMismatchTolerance;
          if (!agree) {
            ++layers.mismatchJobs;
            std::fprintf(stderr,
                         "trace mismatch: %s conversion %zu/%zu plan "
                         "compiles %zu/%zu\n",
                         rc.name.c_str(), report.conversionGateIndex,
                         st.conversionGateIndex, report.planCompiles,
                         st.planCompiles);
          }
          layers.totalGates += circuit.numGates();
          addSimulation(layers, *composed);
        }
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "job failed: %s: %s\n", rc.name.c_str(),
                     ex.what());
      }
      if (!ok) {
        ++result.failed;
      }
    }
    if (now() - start >= config.seconds) {
      break;
    }
  }
  for (std::size_t i = 0; i < roster.size(); ++i) {
    std::printf("job %-16s median %.6f s over %zu runs\n",
                roster[i].name.c_str(), median(perCircuit[i]),
                perCircuit[i].size());
  }
  // One load thread: its busy time is the sum of the job latencies.
  e2e.wallSeconds = std::accumulate(e2e.jobLatencies.begin(),
                                    e2e.jobLatencies.end(), 0.0);
  e2e.peakRssBytes = static_cast<double>(fdd::peakRSS());

  if (config.trace) {
    layers.layers = aggregate(recorder.spans());
    result.metrics = layerMetrics(layers);
  } else {
    result.metrics = endToEndMetrics(e2e);
  }
  return result;
}

}  // namespace perfbench
