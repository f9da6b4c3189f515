#include "sim/array_simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/bits.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"

namespace fdd::sim {

ArraySimulator::ArraySimulator(Qubit nQubits, Options options)
    : nQubits_{nQubits}, options_{options} {
  if (nQubits < 1 || nQubits > 34) {
    throw std::invalid_argument("ArraySimulator: qubit count out of range");
  }
  state_.resize(Index{1} << nQubits_);
  reset();
}

void ArraySimulator::reset() {
  simd::zeroFill(state_.data(), state_.size());
  state_[0] = Complex{1.0};
}

void ArraySimulator::setState(std::span<const Complex> amplitudes) {
  if (amplitudes.size() != state_.size()) {
    throw std::invalid_argument("setState: wrong amplitude count");
  }
  std::copy(amplitudes.begin(), amplitudes.end(), state_.begin());
}

void ArraySimulator::applyOperation(const qc::Operation& op) {
  Index controlMask = 0;
  for (const Qubit c : op.controls) {
    controlMask |= Index{1} << c;
  }
  applyControlledSingleQubit(op.matrix(), op.target, controlMask);
}

void applyControlledPairs(std::span<Complex> state, const qc::Matrix2& u,
                          Qubit target, Index controlMask, unsigned threads) {
  // Control-run decomposition. A valid pair base has the target bit 0 and
  // every control bit 1. A *run* is the span of consecutive bases below the
  // lowest control or target bit, and the runs at the lowest group of free
  // bits above it form a *comb* (stride: the group's lowest bit). Comb
  // bases are enumerated with a masked counter, so a gate is a few strided
  // span kernels at vector width, whatever its target and controls.
  const Index dim = state.size();
  const Index targetBit = Index{1} << target;
  const Index constrained = controlMask | targetBit;
  const Index run = constrained & (~constrained + 1);
  const Index freeBits = (dim - 1) & ~(constrained | (run - 1));
  const Index stride = freeBits != 0 ? (freeBits & (~freeBits + 1)) : dim;
  Index combMask = 0;
  for (Index bit = stride; (freeBits & bit) != 0; bit <<= 1) {
    combMask |= bit;
  }
  const Index teeth = combMask / stride + 1;
  const Index outer = freeBits & ~combMask;
  const Index validPairs = (dim >> 1) >> std::popcount(controlMask);
  const bool diagonal = u[1] == Complex{} && u[2] == Complex{};
  Complex* s = state.data();
  const auto kernel = [&](std::size_t lo, std::size_t hi) {
    for (Index p = lo; p < hi;) {
      const Index r = p / run;
      const Index off = p % run;
      const Index tooth = r % teeth;
      Index count = 1;
      Index len = std::min<Index>(run - off, hi - p);
      if (off == 0 && len == run) {
        count = std::min<Index>(teeth - tooth, (hi - p) / run);
      }
      Complex* a = s + (scatterBits(r / teeth, outer) | controlMask) +
                   tooth * stride + off;
      if (!diagonal) {
        simd::butterflyStrided(a, a + targetBit, u.data(), count, len,
                               stride);
      } else {
        // Phase gates leave |0> alone (u00 == 1): skip that half.
        if (u[0] != Complex{1.0}) {
          simd::scaleStrided(a, a, u[0], count, len, stride);
        }
        if (u[3] != Complex{1.0}) {
          simd::scaleStrided(a + targetBit, a + targetBit, u[3], count, len,
                             stride);
        }
      }
      p += count * len;
    }
  };
  if (threads > 1) {
    par::globalPool().parallelFor(threads, 0, validPairs, kernel);
  } else {
    kernel(0, validPairs);
  }
}

void ArraySimulator::applyControlledSingleQubit(const qc::Matrix2& u,
                                                Qubit target,
                                                Index controlMask) {
  const Index dim = Index{1} << nQubits_;
  const Index pairs = dim >> 1;
  const Index targetBit = Index{1} << target;
  const Complex u00 = u[0];
  const Complex u01 = u[1];
  const Complex u10 = u[2];
  const Complex u11 = u[3];
  Complex* s = state_.data();
  const bool threaded =
      options_.threads > 1 && dim >= options_.parallelThresholdDim;

  if (options_.indexing == ArrayIndexing::MultiIndex) {
    // Quantum++-style faithful baseline: rebuild the amplitude index one
    // qubit digit at a time (O(n) work per pair), skipping the target
    // position. Kept scalar on purpose — the paper's DMAV-vs-Quantum++
    // speedup is measured against exactly this indexing scheme.
    const Qubit nq = nQubits_;
    auto kernel = [&](std::size_t lo, std::size_t hi) {
      for (Index g = lo; g < hi; ++g) {
        Index i0 = 0;
        Index rem = g;
        for (Qubit b = 0; b < nq; ++b) {
          if (b == target) {
            continue;
          }
          i0 |= (rem & 1u) << b;
          rem >>= 1;
        }
        if ((i0 & controlMask) != controlMask) {
          continue;  // controls not all |1> -> amplitudes untouched (Eq. 3)
        }
        const Index i1 = i0 | targetBit;
        const Complex a0 = s[i0];
        const Complex a1 = s[i1];
        s[i0] = u00 * a0 + u01 * a1;
        s[i1] = u10 * a0 + u11 * a1;
      }
    };
    if (threaded) {
      par::globalPool().parallelFor(options_.threads, 0, pairs, kernel);
    } else {
      kernel(0, pairs);
    }
    return;
  }

  applyControlledPairs(state_, u, target, controlMask,
                       threaded ? options_.threads : 1);
}

void ArraySimulator::simulate(const qc::Circuit& circuit) {
  if (circuit.numQubits() != nQubits_) {
    throw std::invalid_argument("simulate: circuit qubit count mismatch");
  }
  for (const auto& op : circuit) {
    applyOperation(op);
  }
}

fp ArraySimulator::norm() const {
  return simd::normSquared(state_.data(), state_.size());
}

Index ArraySimulator::sample(Xoshiro256& rng) const {
  return sample(rng, norm());
}

Index ArraySimulator::sample(Xoshiro256& rng, fp totalNorm) const {
  // `totalNorm` lets callers drawing many shots compute the full-state norm
  // once instead of rescanning 2^n amplitudes per shot. Clamping keeps the
  // draw inside the accumulated mass even for unnormalized states (or a
  // slightly stale norm), so the scan cannot fall off the end spuriously.
  const fp r = std::clamp(rng.uniform() * totalNorm, fp{0}, totalNorm);
  fp acc = 0;
  for (Index i = 0; i < state_.size(); ++i) {
    acc += norm2(state_[i]);
    if (acc >= r) {
      return i;
    }
  }
  return state_.size() - 1;
}

}  // namespace fdd::sim
