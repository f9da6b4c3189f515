#pragma once
// The flatdd backend re-composed from the library's public layer calls, in
// the order FlatDDSimulator::simulate makes them (DD phase with the EWMA
// trigger, conversion, gate DDs for the rest, diagonal-run detection, plan
// lookup/compile, replay, final collection), with a span around each call.
// The traced run executes every job through this composition and compares
// it with the untraced engine run of the same job; a disagreement on the
// conversion gate, plan compiles or final state counts as a trace mismatch,
// so a program change the composition no longer follows shows up.
//
// Scope: default engine options only (no passes, no fusion, no dynamic
// reorder, no forced conversion) — the options every workload uses.

#include <cstddef>
#include <vector>

#include "common/aligned.hpp"
#include "common/prng.hpp"
#include "engine/options.hpp"
#include "flatdd/dmav_cache.hpp"
#include "flatdd/ewma.hpp"
#include "flatdd/plan_cache.hpp"
#include "qc/circuit.hpp"
#include "sim/dd_simulator.hpp"
#include "spans.hpp"

namespace perfbench {

struct ComposedStats {
  bool converted = false;
  std::size_t conversionGateIndex = 0;
  std::size_t ddGates = 0;
  std::size_t dmavGates = 0;
  std::size_t planLookups = 0;
  std::size_t planHits = 0;
  std::size_t planCompiles = 0;
  std::size_t replays = 0;
  std::size_t replayBytes = 0;      // computed: 2^n amplitudes read + written
  std::size_t conversionBytes = 0;  // computed: 2^n amplitudes written
  std::size_t diagRunGates = 0;
  std::size_t peakDDSize = 0;
  std::size_t sampledShots = 0;
};

class ComposedFlatDD {
 public:
  ComposedFlatDD(fdd::Qubit nQubits, const fdd::engine::EngineOptions& options,
                 SpanRecorder& recorder);

  ComposedFlatDD(const ComposedFlatDD&) = delete;
  ComposedFlatDD& operator=(const ComposedFlatDD&) = delete;

  /// FlatDDSimulator::simulate on one batch, continuing from the current
  /// state (a session calls it once per slice).
  void simulate(const fdd::qc::Circuit& circuit);

  /// FlatDDSimulator::sample: DD descent before conversion, CDF search on
  /// the flat array after it.
  [[nodiscard]] std::vector<fdd::Index> sample(std::size_t shots,
                                               fdd::Xoshiro256& rng);
  /// svc::Session::sample: CDF over the dense readout, rebuilt after every
  /// simulate().
  [[nodiscard]] std::vector<fdd::Index> sessionSample(std::size_t shots,
                                                      fdd::Xoshiro256& rng);

  [[nodiscard]] fdd::AlignedVector<fdd::Complex> stateVector() const;
  [[nodiscard]] const ComposedStats& stats() const noexcept { return stats_; }
  /// Compute-table hits and lookups of the DD package so far.
  [[nodiscard]] std::size_t computeHits() const;
  [[nodiscard]] std::size_t computeLookups() const;

 private:
  void convert(std::size_t gateIndex);
  void applyGate(const fdd::dd::mEdge& gate);
  void applyDiagRun(std::span<const fdd::dd::mEdge> run);
  [[nodiscard]] unsigned replayThreads() const noexcept;

  fdd::Qubit n_;
  fdd::engine::EngineOptions options_;
  SpanRecorder& rec_;
  fdd::sim::DDSimulator dd_;
  fdd::flat::EwmaMonitor ewma_;
  bool flat_ = false;
  fdd::AlignedVector<fdd::Complex> v_;
  fdd::AlignedVector<fdd::Complex> w_;
  fdd::flat::DmavWorkspace workspace_;
  // Declared after dd_ so it unpins its cached gate roots before the
  // package they live in is destroyed.
  fdd::flat::PlanCache cache_;
  std::vector<fdd::fp> cdf_;
  bool cdfValid_ = false;
  ComposedStats stats_;
};

}  // namespace perfbench
