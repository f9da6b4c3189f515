#pragma once
// DMAV computational cost model (Section 3.2.3). The unit of cost is one
// MAC operation; the model decides (a) whether a given gate benefits from
// the DMAV cache (Eq. 5 vs Eq. 6) and (b) whether fusing two gates lowers
// total cost (Algorithm 3 uses Eq. 5).

#include <cstdint>

#include "common/types.hpp"
#include "dd/edge.hpp"

namespace fdd::flat {

/// Total MAC operations of a DMAV with this gate matrix: the paper's
/// DFS-with-lookup-table count of Fig. 8 (terminal edge = 1 MAC; node =
/// sum over nonzero children; identical nodes share one table entry).
[[nodiscard]] std::uint64_t macCount(const dd::mEdge& m);

/// Cost of DMAV without caching: C1 = K1 / t (Eq. 5).
[[nodiscard]] fp costNoCache(const dd::mEdge& m, unsigned threads);

/// Cost of DMAV with caching (Eq. 6):
///   C2 = K2/t + 2^n/(d*t) * (H/t + b)
/// where K2 counts MACs with repeated border nodes deduplicated, H is the
/// number of cache hits under the column-space assignment, b the number of
/// partial-output buffers, and d the SIMD width. Callers pass either
/// simd::lanes() (the nominal width resolved by runtime dispatch: cpuid +
/// FLATDD_FORCE_SCALAR/FLATDD_FORCE_TIER) or the measured effective width
/// simd::calibratedLanes() — fractional widths are why `d` is fp. Requires
/// simulating the assignment, so it is costlier to evaluate than Eq. 5.
[[nodiscard]] fp costWithCache(const dd::mEdge& m, Qubit nQubits,
                               unsigned threads, fp simdWidth);

/// min(C1, C2) — the cost FlatDD charges a DMAV (Section 3.2.3).
[[nodiscard]] fp dmavCost(const dd::mEdge& m, Qubit nQubits, unsigned threads,
                          fp simdWidth);

/// True when the cost model picks the cached variant (C2 < C1).
[[nodiscard]] bool cachingBeneficial(const dd::mEdge& m, Qubit nQubits,
                                     unsigned threads, fp simdWidth);

/// dmavCost evaluated with the *measured* effective width of the active
/// dispatch tier (simd::calibratedLanes, refreshed from bench/kernels)
/// instead of the nominal lane count, and clipped by the single-pass
/// DenseBlock cost when the gate qualifies for that lowering: dim * 2^k
/// MACs in one sweep at Dense-class throughput. Fusion (Alg. 3) charges
/// candidates with this so fusing toward a 2-3 qubit dense product is
/// recognized as profitable on any tier.
[[nodiscard]] fp dmavCostTierAware(const dd::mEdge& m, Qubit nQubits,
                                   unsigned threads);

/// Returns 1. Only perfbench calls it; drop at the next benchmark revision.
[[nodiscard]] fp ddPhaseSpeedup(unsigned threads);

}  // namespace fdd::flat
