#pragma once
// DD-based simulator — the DDSIM [99] baseline: one DD matrix-vector
// multiplication per gate, single-threaded (DDSIM does not support
// multi-threading; Table 1 runs it on one thread for the same reason).

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/prng.hpp"
#include "dd/package.hpp"
#include "qc/circuit.hpp"

namespace fdd::sim {

class DDSimulator {
 public:
  explicit DDSimulator(Qubit nQubits, fp tolerance = 1e-10);

  [[nodiscard]] Qubit numQubits() const noexcept { return pkg_->numQubits(); }

  /// No effect. Only perfbench calls it; drop at the next benchmark revision.
  void setThreads(unsigned /*threads*/) noexcept {}

  /// Resets to |0...0>.
  void reset();
  /// Loads an arbitrary state (must have size 2^n) by building its DD.
  void setState(std::span<const Complex> amplitudes);

  void applyOperation(const qc::Operation& op);
  void simulate(const qc::Circuit& circuit);

  /// Drops the current state DD back to |0...0> and reclaims its nodes.
  /// FlatDD calls this right after converting the state to a flat array so
  /// the (potentially huge) irregular DD stops occupying memory.
  void releaseState();

  /// Swaps the root for an equivalent state produced outside the simulator
  /// (e.g. dd::reorderGreedy): references the new edge, releases the old
  /// one, and lets the package collect the difference. Does not count as a
  /// gate.
  void replaceState(const dd::vEdge& next);

  [[nodiscard]] const dd::vEdge& state() const noexcept { return root_; }
  [[nodiscard]] dd::Package& package() noexcept { return *pkg_; }
  [[nodiscard]] const dd::Package& package() const noexcept { return *pkg_; }

  /// Current DD size of the state vector — the s_i the EWMA trigger watches.
  [[nodiscard]] std::size_t stateNodeCount() const {
    return pkg_->nodeCount(root_);
  }

  [[nodiscard]] Complex amplitude(Index i) const {
    return pkg_->getAmplitude(root_, i);
  }
  /// Dense readout via the *sequential* DD-to-array conversion.
  [[nodiscard]] AlignedVector<Complex> stateVector() const {
    return pkg_->toArray(root_);
  }

  /// Samples `shots` outcomes by weak-simulation DD descent (no conversion
  /// to an array) — same signature as FlatDDSimulator::sample.
  [[nodiscard]] std::vector<Index> sample(std::size_t shots,
                                          Xoshiro256& rng) const {
    return pkg_->sample(root_, shots, rng);
  }

  /// Bytes held by the DD package (arenas + tables), for memory columns.
  [[nodiscard]] std::size_t memoryBytes() const {
    return pkg_->stats().memoryBytes;
  }

  [[nodiscard]] std::size_t gatesApplied() const noexcept { return gates_; }

 private:
  std::unique_ptr<dd::Package> pkg_;
  dd::vEdge root_;
  std::size_t gates_ = 0;
};

}  // namespace fdd::sim
