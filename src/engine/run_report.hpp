#pragma once
// Machine-readable simulation report, normalized across backends: phase
// timings, per-gate trace, conversion/cache/fusion counters and memory are
// the same fields whether the run went through the DD, array or FlatDD
// backend (fields a backend cannot produce stay at their zero values).
// Exported as JSON (round-trippable via fromJson) and key,value CSV so the
// bench drivers and external plotting stop scraping printf output.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace fdd::obs {
struct ObsSnapshot;
}

namespace fdd::engine {

/// One entry per configured circuit-preparation pass, in execution order.
struct PassReport {
  std::string name;
  /// True when the pass rewrote the circuit here; false when it only armed a
  /// backend-side stage (e.g. fusion runs at FlatDD's conversion point).
  bool circuitTransform = true;
  double seconds = 0;
  std::size_t gatesBefore = 0;
  std::size_t gatesAfter = 0;
  std::string note;

  [[nodiscard]] bool operator==(const PassReport&) const = default;
};

/// One simulated gate of the per-gate trace (recordPerGate option).
struct GateReport {
  std::size_t gateIndex = 0;
  std::string phase;  // "dd", "dmav", "array" — backend execution phase
  double seconds = 0;
  std::size_t ddSize = 0;  // state-DD node count, 0 outside a DD phase

  [[nodiscard]] bool operator==(const GateReport&) const = default;
};

/// One named monotonic counter from the observability registry.
struct MetricCounter {
  std::string name;
  double value = 0;

  [[nodiscard]] bool operator==(const MetricCounter&) const = default;
};

/// One log2-bucketed latency histogram (times converted ns -> seconds).
struct MetricHistogram {
  std::string name;
  std::size_t count = 0;
  double sumSeconds = 0;
  double minSeconds = 0;
  double maxSeconds = 0;
  double p50Seconds = 0;  // log-bucket upper bound
  double p99Seconds = 0;
  std::vector<double> buckets;  // counts per log2-ns bucket, zeros trimmed

  [[nodiscard]] bool operator==(const MetricHistogram&) const = default;
};

/// Thread-pool load accounting for one phase label ("dmav.replay", ...).
struct PoolPhaseMetrics {
  std::string phase;
  std::size_t regions = 0;           // fork/join regions under this label
  double wallSeconds = 0;            // summed region wall time
  std::vector<double> busySeconds;   // per worker (index = worker id)
  double imbalance = 0;              // max busy / mean busy, 1.0 = perfect

  [[nodiscard]] bool operator==(const PoolPhaseMetrics&) const = default;
};

/// The observability registry snapshot folded into a report ("metrics" in
/// the JSON). Empty (and omitted from CSV) when obs was disabled.
struct MetricsReport {
  std::vector<MetricCounter> counters;
  std::vector<MetricHistogram> histograms;
  std::vector<PoolPhaseMetrics> poolPhases;
  double loadImbalance = 0;  // worst per-phase imbalance across poolPhases
  std::size_t droppedTraceEvents = 0;

  [[nodiscard]] bool empty() const {
    return counters.empty() && histograms.empty() && poolPhases.empty() &&
           droppedTraceEvents == 0;
  }

  [[nodiscard]] bool operator==(const MetricsReport&) const = default;
};

/// Converts an obs::Registry snapshot into report form (ns -> seconds).
[[nodiscard]] MetricsReport metricsFromSnapshot(const obs::ObsSnapshot& snap);

/// One EWMA monitor observation (Eq. 4): the decision instant record that
/// makes the DD->array switch auditable after the run.
struct EwmaTickReport {
  std::size_t gate = 0;     // gate index at the observation
  std::size_t ddSize = 0;   // state-DD node count observed
  double ewma = 0;          // bias-corrected EWMA of the DD size
  double threshold = 0;     // epsilon * ewma; triggered when ddSize exceeds
  bool triggered = false;   // this tick fired the conversion

  [[nodiscard]] bool operator==(const EwmaTickReport&) const = default;
};

struct RunReport {
  // ---- identity ---------------------------------------------------------
  std::string backend;
  std::string circuit;
  Qubit qubits = 0;
  std::size_t gates = 0;  // gates simulated (after the pass pipeline)
  std::size_t depth = 0;
  unsigned threads = 1;
  /// PRNG seed of the run/session (EngineOptions::seed): every sampling
  /// stream derives from it, so the report pins down reproducibility.
  /// Serialized as a decimal string in JSON — 64-bit seeds don't fit a
  /// double exactly.
  std::uint64_t seed = 0;
  std::string simdTier;  // kernel dispatch tier: "avx512", "avx2", "scalar"
  unsigned simdLanes = 1;    // Eq. 6's d — doubles per vector instruction

  // ---- phase timings (seconds) ------------------------------------------
  double totalSeconds = 0;      // pipeline + simulate
  double pipelineSeconds = 0;   // all circuit-preparation passes
  double simulateSeconds = 0;   // backend simulate() wall time
  double ddPhaseSeconds = 0;    // DD phase (flatdd) / whole run (dd)
  double dmavPhaseSeconds = 0;  // DMAV phase (flatdd only)
  double conversionSeconds = 0; // DD-to-array conversion (flatdd only)
  double fusionSeconds = 0;     // gate fusion at the conversion point
  double planCompileSeconds = 0; // DD-to-plan lowering (flatdd only)
  double dmavReplaySeconds = 0;  // compiled-plan replay (flatdd only)

  // ---- counters ---------------------------------------------------------
  bool converted = false;             // flatdd switched representation
  std::size_t conversionGateIndex = 0;
  std::size_t ddGates = 0;            // gates executed on the DD state
  std::size_t dmavGates = 0;          // matrices applied by DMAV post-fusion
  std::size_t cachedGates = 0;        // DMAVs that ran with the cache
  std::size_t cacheHits = 0;
  std::size_t planCacheHits = 0;      // DMAV plans reused from the LRU cache
  std::size_t planCacheMisses = 0;
  std::size_t planCompiles = 0;       // plan-cache misses that compiled
  std::size_t diagRuns = 0;           // fused diagonal-gate runs executed
  std::size_t diagRunGates = 0;       // gates collapsed into those runs
  std::size_t denseBlockGates = 0;    // DMAVs via the DenseBlock lowering
  std::size_t inPlaceGates = 0;       // DMAVs replayed in place (one target)
  std::size_t peakDDSize = 0;         // peak state-DD node count
  double dmavModelCost = 0;           // summed Eq. 5/6 MAC estimate

  // ---- variable ordering ------------------------------------------------
  /// Logical qubit at each internal level (static pass composed with any
  /// dynamic reorders); empty when the run used the identity order.
  std::vector<Qubit> ordering;
  std::size_t reorderCount = 0;       // accepted dynamic reorders (flatdd)
  std::size_t reorderSwaps = 0;       // adjacent-level swaps kept in total
  std::size_t ddSizePreReorder = 0;   // nodes before the first reorder
  std::size_t ddSizePostReorder = 0;  // nodes after the last reorder
  double reorderSeconds = 0;          // time inside the sifting passes

  // ---- memory (bytes) ---------------------------------------------------
  std::size_t memoryBytes = 0;        // backend-accounted working set
  std::size_t peakRssBytes = 0;       // process peak RSS after the run

  std::vector<PassReport> passes;
  std::vector<GateReport> perGate;

  // ---- observability ----------------------------------------------------
  MetricsReport metrics;               // counter/histogram/pool snapshot
  std::vector<EwmaTickReport> ewmaLog; // EWMA monitor decision log (flatdd)

  [[nodiscard]] bool operator==(const RunReport&) const = default;

  /// Serializes every field (including passes and perGate) as one JSON
  /// object; fromJson(toJson()) == *this.
  [[nodiscard]] std::string toJson() const;

  /// Parses a report previously produced by toJson(). Unknown keys are
  /// ignored; missing keys keep their defaults. Throws std::invalid_argument
  /// on malformed JSON.
  [[nodiscard]] static RunReport fromJson(std::string_view json);

  /// Flat "key,value" CSV of the scalar fields (one row per field).
  [[nodiscard]] std::string toCsv() const;

  /// The per-gate trace as CSV ("gate,phase,seconds,dd_size").
  [[nodiscard]] std::string perGateCsv() const;
};

}  // namespace fdd::engine
