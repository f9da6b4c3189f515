#pragma once
// Array-based state-vector simulator — the Quantum++ [19] baseline. Gate
// matrices never materialize beyond 2x2: amplitudes are updated in place in
// pairs (Eq. 2 of the paper), with controlled gates masking the pair index
// (Eq. 3). Multi-threaded over amplitude pairs via the shared thread pool.

#include <span>

#include "common/aligned.hpp"
#include "common/prng.hpp"
#include "common/types.hpp"
#include "qc/circuit.hpp"

namespace fdd::sim {

/// How amplitude-pair indices are computed.
///  * BitTricks — O(1) per pair via bit insertion (an optimized kernel).
///  * MultiIndex — O(n) per pair, rebuilding the index digit by digit the
///    way Quantum++ [19] manipulates Eigen multi-indices. This is the
///    faithful stand-in for the paper's Quantum++ baseline: the paper's
///    DMAV-vs-Quantum++ speedup specifically comes from replacing this O(n)
///    indexing with the DD's O(1) amortized recursion (Section 3.2.1).
enum class ArrayIndexing : std::uint8_t { BitTricks, MultiIndex };

/// Applies the 2x2 `u` (row-major) to qubit `target` of `state` (size 2^n)
/// in place, on the amplitude pairs whose `controlMask` bits are all 1;
/// other amplitudes are not touched (Eq. 2-3). Valid pairs are split over
/// `threads` workers of the global pool (1 runs on the caller). This is
/// the array baseline's BitTricks kernel and the flat phase's replay of
/// single-target plans (replayPlanInPlace).
void applyControlledPairs(std::span<Complex> state, const qc::Matrix2& u,
                          Qubit target, Index controlMask, unsigned threads);

struct ArraySimOptions {
  unsigned threads = 1;
  /// Below this state-vector size the per-gate fork/join overhead exceeds
  /// the kernel cost, so gates run single-threaded (see common/types.hpp).
  Index parallelThresholdDim = kParallelThresholdDim;
  ArrayIndexing indexing = ArrayIndexing::BitTricks;
};

class ArraySimulator {
 public:
  using Options = ArraySimOptions;

  explicit ArraySimulator(Qubit nQubits, Options options = {});

  [[nodiscard]] Qubit numQubits() const noexcept { return nQubits_; }

  /// Resets to |0...0>.
  void reset();
  /// Loads an arbitrary state (must have size 2^n; not normalized for you).
  void setState(std::span<const Complex> amplitudes);

  void applyOperation(const qc::Operation& op);
  void simulate(const qc::Circuit& circuit);

  [[nodiscard]] const AlignedVector<Complex>& state() const noexcept {
    return state_;
  }
  [[nodiscard]] AlignedVector<Complex>& mutableState() noexcept {
    return state_;
  }

  [[nodiscard]] Complex amplitude(Index i) const { return state_[i]; }
  [[nodiscard]] fp norm() const;

  /// Samples one basis state from |amplitude|^2 (strong-simulation readout).
  [[nodiscard]] Index sample(Xoshiro256& rng) const;
  /// Same, with the state norm precomputed by the caller — multi-shot
  /// readout computes the norm once instead of rescanning 2^n amplitudes
  /// per shot. `r` is clamped to the available mass for unnormalized states.
  [[nodiscard]] Index sample(Xoshiro256& rng, fp totalNorm) const;

  /// Bytes held by the state vector (for the memory columns of Table 1).
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return state_.size() * sizeof(Complex);
  }

 private:
  void applyControlledSingleQubit(const qc::Matrix2& u, Qubit target,
                                  Index controlMask);

  Qubit nQubits_;
  Options options_;
  AlignedVector<Complex> state_;
};

}  // namespace fdd::sim
