#pragma once
// Workload inputs and run-level plumbing shared by the three workloads:
// the seed-to-input mapping, the Table 1 roster, the Trotter step, the
// configuration guard and the result printer.

#include <cstdint>
#include <string>
#include <vector>

#include "qc/circuit.hpp"
#include "spans.hpp"

namespace perfbench {

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;   // tiny sizes, for a quick end-to-end check
  unsigned nproc = 1;   // std::thread::hardware_concurrency() at setup
};

/// One value of the final JSON line, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

/// Returns the memory freed so far to the OS (malloc_trim). Called before
/// each timed set-up, so every repetition faults its pages in like a fresh
/// process does; otherwise a repetition is fast or 4x slower depending on
/// whether the allocator happened to keep the previous one's memory.
void releaseFreedMemory();

/// Prints every metric as a "name = value unit" line, then the result as
/// the last line of stdout: one JSON object with exactly the keys correct,
/// attempted, failed and metrics.
void printResult(const RunResult& result);

/// Environment variables that change the program under test; the run is
/// refused when any of them is set.
inline constexpr const char* kGuardedEnv[] = {
    "FLATDD_THREADS",      "FLATDD_DD_ASSUME_CORES", "FLATDD_DD_GRAIN",
    "FLATDD_FORCE_SCALAR", "FLATDD_FORCE_TIER",      "FLATDD_BENCH_THREADS",
};
/// Names of the guarded variables that are set in the environment.
[[nodiscard]] std::vector<std::string> guardedEnvSet();

/// A value derived from the workload seed and a fixed `base` (the session
/// seeds of serve-trotter, the shot streams of the one-shot jobs). Seed 0,
/// the default, maps to `base` itself.
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t workloadSeed,
                                       std::uint64_t base);

struct RosterCircuit {
  std::string name;
  fdd::qc::Circuit circuit;
};

/// The Table 1 roster of bench/common/harness.cpp (12 circuits, 10-18
/// qubits) with its generator seeds. The workload seed does not reach the
/// generators: at nproc threads whether a circuit ever converts depends on
/// its random instance, and with per-seed instances one roster pass took
/// 4 to 27 s across seeds 0-5 on a 4-vCPU VM, so no metric could be compared
/// between runs.
[[nodiscard]] std::vector<RosterCircuit> table1Roster();
/// The same families at 5-8 qubits, for the smoke mode.
[[nodiscard]] std::vector<RosterCircuit> smokeRoster();

/// Seeded permutation of [0, n) for one round of the roster.
[[nodiscard]] std::vector<std::size_t> roundOrder(std::uint64_t seed,
                                                  std::uint64_t round,
                                                  std::size_t n);

/// `steps` identical first-order Trotter steps of a transverse-field Ising
/// chain as OpenQASM 2.0: per bond cx-rz(theta)-cx, then rx(phi) on every
/// qubit.
[[nodiscard]] std::string trotterQasm(fdd::Qubit n, unsigned steps,
                                      double theta, double phi);

/// Per-job means of the traced layers plus the trace-health values, as the
/// per-layer metrics of the final line. `layers` come from the composed
/// jobs; the service and health fields are filled by the workload.
struct LayerReport {
  LayerTotals layers;
  std::size_t jobs = 0;            // traced jobs
  std::size_t simulations = 0;     // one-shot runs or sessions composed
  std::size_t conversions = 0;
  std::size_t ddGates = 0;
  std::size_t totalGates = 0;
  std::size_t planLookups = 0;
  std::size_t planHits = 0;
  std::size_t planCompiles = 0;
  std::size_t replayBytes = 0;
  std::size_t conversionBytes = 0;
  std::size_t diagRunGates = 0;
  std::size_t peakDDSize = 0;
  std::size_t computeHits = 0;
  std::size_t computeLookups = 0;
  std::size_t shots = 0;
  std::size_t qasmBytes = 0;
  // Service layer (serve-trotter only).
  std::size_t serviceRequests = 0;
  std::size_t serviceErrors = 0;
  double queueWaitSeconds = 0;
  double execSeconds = 0;
  double protocolSeconds = 0;
  // Trace health.
  double tracedSeconds = 0;    // composed jobs
  double untracedSeconds = 0;  // the same jobs through the program
  std::size_t mismatchJobs = 0;
};
[[nodiscard]] std::vector<Metric> layerMetrics(const LayerReport& r);

class ComposedFlatDD;
/// Folds one finished composition (a one-shot run or a whole session) into
/// the report's counters.
void addSimulation(LayerReport& r, const ComposedFlatDD& composed);

/// End-to-end metrics from the untraced run.
struct EndToEnd {
  std::vector<double> jobLatencies;  // seconds, one per completed job
  double wallSeconds = 0;            // the measured window
  std::vector<double> setupSeconds;  // repeated set-ups; the median counts
  double peakRssBytes = 0;
};
[[nodiscard]] std::vector<Metric> endToEndMetrics(const EndToEnd& e);

/// The one-shot workloads: the roster through SimulationEngine::run at
/// `threads` DMAV/DD threads (oneshot-t1: 1, oneshot-nproc: nproc).
[[nodiscard]] RunResult runOneshot(const RunConfig& config, unsigned threads);

/// The serve-trotter workload: nproc closed-loop clients on an in-process
/// svc::Service.
[[nodiscard]] RunResult runServe(const RunConfig& config);

}  // namespace perfbench
