// Cost model (Section 3.2.3): MAC counts on analytically known DDs
// (including the paper's worked examples), Eq. 5 / Eq. 6 relations, and the
// caching decision.

#include <gtest/gtest.h>

#include <cmath>

#include "dd/package.hpp"
#include "flatdd/cost_model.hpp"
#include "flatdd/dmav.hpp"
#include "helpers.hpp"
#include "simd/kernels.hpp"

namespace fdd::flat {
namespace {

TEST(MacCount, ZeroAndTerminalEdges) {
  EXPECT_EQ(macCount(dd::mEdge::zero()), 0u);
  EXPECT_EQ(macCount(dd::mEdge::one()), 1u);
}

TEST(MacCount, IdentityIsDiagonalOnly) {
  // Identity on n qubits: 2^n MACs (one per diagonal entry).
  dd::Package p{6};
  EXPECT_EQ(macCount(p.makeIdent(5)), 64u);
}

TEST(MacCount, DenseSingleQubitGate) {
  // H on one qubit of an n-qubit register: the H level contributes 4
  // paths, every identity level 2, so 4 * 2^(n-1) MACs.
  const Qubit n = 5;
  dd::Package p{n};
  for (Qubit target = 0; target < n; ++target) {
    const dd::mEdge h =
        p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), target);
    EXPECT_EQ(macCount(h), 4u << (n - 1)) << "target=" << target;
  }
}

TEST(MacCount, ControlledGate) {
  // CX: control level contributes 1 (control-0 diagonal) + 2 (X block) ...
  // analytically: paths(CX on 2 qubits) = |0><0| x I (2 paths) +
  // |1><1| x X (2 paths) = 4.
  dd::Package p{2};
  const Qubit ctrl[] = {1};
  const dd::mEdge cx = p.makeGateDD(qc::gateMatrix(qc::GateKind::X, {}), 0,
                                    std::span<const Qubit>{ctrl, 1});
  EXPECT_EQ(macCount(cx), 4u);
}

TEST(MacCount, MatchesPathCountOnRandomGates) {
  // The MAC count equals the number of nonzero entries of the gate matrix
  // for matrices whose DD has no accidental cancellations.
  const Qubit n = 4;
  dd::Package p{n};
  for (const auto& op :
       {qc::Operation{qc::GateKind::U3, 2, {}, {0.3, 0.4, 0.5}},
        qc::Operation{qc::GateKind::RY, 1, {3}, {0.9}},
        qc::Operation{qc::GateKind::Z, 0, {1, 2}, {}}}) {
    const dd::mEdge m = p.makeGateDD(op);
    const auto dense = test::denseOperator(op, n);
    std::uint64_t nonzeros = 0;
    for (const auto& row : dense) {
      for (const auto& x : row) {
        nonzeros += (std::abs(x) > 1e-14);
      }
    }
    EXPECT_EQ(macCount(m), nonzeros) << op.toString();
  }
}

TEST(MacCount, FusionExampleRelation) {
  // The paper's Fig. 9 premise: for gates whose product stays compact,
  // cost(fused) < cost(g1) + cost(g2). Two diagonal gates compose without
  // fill-in.
  const Qubit n = 6;
  dd::Package p{n};
  const dd::mEdge rz1 =
      p.makeGateDD(qc::gateMatrix(qc::GateKind::RZ, {0.3}), 1);
  const dd::mEdge rz2 =
      p.makeGateDD(qc::gateMatrix(qc::GateKind::RZ, {0.7}), 4);
  const dd::mEdge fused = p.multiply(rz2, rz1);
  EXPECT_LT(macCount(fused), macCount(rz1) + macCount(rz2));
}

TEST(MacCount, FusionCanIncreaseCost) {
  // Fig. 10: fusing dense non-overlapping gates multiplies their path
  // counts. Two disjoint Hadamards are cost-neutral (4+4 vs 2*2*... equal);
  // three make the fused matrix strictly costlier: 8*2^(n-3)*... i.e.
  // 2^3 * 2^n = 512 MACs vs 3 * 2 * 2^n = 384 for n = 6.
  const Qubit n = 6;
  dd::Package p{n};
  const dd::mEdge h1 = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 0);
  const dd::mEdge h2 = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 3);
  const dd::mEdge h3 = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 5);
  const dd::mEdge fused = p.multiply(h3, p.multiply(h2, h1));
  EXPECT_GT(macCount(fused),
            macCount(h1) + macCount(h2) + macCount(h3));
}

TEST(Cost, C1ScalesInverselyWithThreads) {
  dd::Package p{6};
  const dd::mEdge h = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 3);
  const fp c1 = costNoCache(h, 1);
  EXPECT_NEAR(costNoCache(h, 2), c1 / 2, 1e-12);
  EXPECT_NEAR(costNoCache(h, 16), c1 / 16, 1e-12);
}

TEST(Cost, DmavCostIsMin) {
  dd::Package p{8};
  const dd::mEdge h = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 7);
  const unsigned d = simd::lanes();
  const fp c1 = costNoCache(h, clampDmavThreads(8, 4));
  const fp c2 = costWithCache(h, 8, 4, d);
  EXPECT_DOUBLE_EQ(dmavCost(h, 8, 4, d), std::min(c1, c2));
  EXPECT_EQ(cachingBeneficial(h, 8, 4, d), c2 < c1);
}

TEST(Cost, SingleThreadNeverBenefitsFromCacheOnIdentityLike) {
  // With one thread there are no column splits, so caching adds buffer
  // traffic without reuse for gates with one task.
  dd::Package p{6};
  const dd::mEdge id = p.makeIdent(5);
  EXPECT_FALSE(cachingBeneficial(id, 6, 1, simd::lanes()));
}

TEST(Cost, CacheWinsWhenReuseIsMassive) {
  // A dense top-qubit gate at high thread counts reuses one sub-matrix node
  // H times; Eq. 6 must eventually undercut Eq. 5.
  const Qubit n = 12;
  dd::Package p{n};
  const dd::mEdge h =
      p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), n - 1);
  const fp c1 = costNoCache(h, 16);
  const fp c2 = costWithCache(h, n, 16, 4);
  EXPECT_LT(c2, c1);
}

TEST(Cost, CostWithCacheAccountsBuffersAndHits) {
  // Identity with t threads: one task per thread, zero hits, one shared
  // buffer -> C2 = 2^n/t + 2^n/(d*t) * 1.
  const Qubit n = 8;
  dd::Package p{n};
  const unsigned t = 4;
  const unsigned d = 4;
  const fp c2 = costWithCache(p.makeIdent(n - 1), n, t, d);
  const fp expected =
      256.0 / t + 256.0 / (d * t) * (0.0 / t + 1.0);
  EXPECT_NEAR(c2, expected, 1e-9);
}

}  // namespace
}  // namespace fdd::flat
