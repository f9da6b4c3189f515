#include "flatdd/cost_model.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "flatdd/dmav_cache.hpp"
#include "flatdd/dmav_plan.hpp"
#include "simd/calibration.hpp"

namespace fdd::flat {

namespace {

/// T(node): MACs of the sub-DMAV rooted at `n` (Fig. 8). Memoized — the
/// "MAC count table".
std::uint64_t macCountNode(
    const dd::mNode* n,
    std::unordered_map<const dd::mNode*, std::uint64_t>& table) {
  const auto it = table.find(n);
  if (it != table.end()) {
    return it->second;
  }
  std::uint64_t total = 0;
  for (const auto& child : n->e) {
    if (child.isZero()) {
      continue;
    }
    total += child.isTerminal() ? 1 : macCountNode(child.n, table);
  }
  table.emplace(n, total);
  return total;
}

}  // namespace

std::uint64_t macCount(const dd::mEdge& m) {
  if (m.isZero()) {
    return 0;
  }
  if (m.isTerminal()) {
    return 1;
  }
  std::unordered_map<const dd::mNode*, std::uint64_t> table;
  return macCountNode(m.n, table);
}

fp costNoCache(const dd::mEdge& m, unsigned threads) {
  return static_cast<fp>(macCount(m)) / static_cast<fp>(threads);  // Eq. 5
}

fp costWithCache(const dd::mEdge& m, Qubit nQubits, unsigned threads,
                 fp simdWidth) {
  const ColumnAssignment a = assignColumnSpace(m, nQubits, threads);
  const fp t = static_cast<fp>(a.threads);
  const fp d = simdWidth < fp{1} ? fp{1} : simdWidth;
  const fp dim = static_cast<fp>(Index{1} << nQubits);

  // K2: MACs with repeated border nodes deduplicated per thread; H: hits.
  std::unordered_map<const dd::mNode*, std::uint64_t> table;
  std::uint64_t k2 = 0;
  std::uint64_t hits = 0;
  for (const auto& tasks : a.perThread) {
    std::unordered_set<const dd::mNode*> seen;
    for (const DmavTask& task : tasks) {
      if (task.m.isTerminal()) {
        ++k2;
        continue;
      }
      if (seen.insert(task.m.n).second) {
        k2 += macCountNode(task.m.n, table);
      } else {
        ++hits;
      }
    }
  }
  const fp b = static_cast<fp>(a.numBuffers);
  return static_cast<fp>(k2) / t +
         dim / (d * t) * (static_cast<fp>(hits) / t + b);  // Eq. 6
}

fp dmavCost(const dd::mEdge& m, Qubit nQubits, unsigned threads,
            fp simdWidth) {
  const fp c1 = costNoCache(m, clampDmavThreads(nQubits, threads));
  const fp c2 = costWithCache(m, nQubits, threads, simdWidth);
  return c1 < c2 ? c1 : c2;
}

bool cachingBeneficial(const dd::mEdge& m, Qubit nQubits, unsigned threads,
                       fp simdWidth) {
  const fp c1 = costNoCache(m, clampDmavThreads(nQubits, threads));
  const fp c2 = costWithCache(m, nQubits, threads, simdWidth);
  return c2 < c1;
}

fp dmavCostTierAware(const dd::mEdge& m, Qubit nQubits, unsigned threads) {
  fp c = dmavCost(m, nQubits, threads,
                  simd::calibratedLanes(simd::KernelClass::Mac));
  if (const auto dense = denseBlockProbe(m, nQubits)) {
    const fp dim = static_cast<fp>(Index{1} << nQubits);
    const fp t = static_cast<fp>(clampDmavThreads(nQubits, threads));
    const fp densePass =
        dim * static_cast<fp>(1u << dense->k) /
        (simd::calibratedLanes(simd::KernelClass::Dense) * t);
    c = std::min(c, densePass);
  }
  return c;
}

fp ddPhaseSpeedup(unsigned /*threads*/) { return 1; }

}  // namespace fdd::flat
