// DD operations vs dense references: gate DD construction, matrix-vector and
// matrix-matrix multiplication, vector addition, norm preservation.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "dd/package.hpp"
#include "helpers.hpp"

namespace fdd::dd {
namespace {

/// Dense matrix extracted column-by-column from a DD via multiply with basis
/// states — exercises getAmplitude + multiply together.
test::DenseMatrix extractDense(Package& p, const mEdge& m, Qubit n) {
  const Index dim = Index{1} << n;
  test::DenseMatrix out(dim, std::vector<Complex>(dim));
  for (Index col = 0; col < dim; ++col) {
    const vEdge basis = p.makeBasisState(col);
    const vEdge res = p.multiply(m, basis);
    for (Index row = 0; row < dim; ++row) {
      out[row][col] = p.getAmplitude(res, row);
    }
  }
  return out;
}

fp denseDistance(const test::DenseMatrix& a, const test::DenseMatrix& b) {
  fp d = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t c = 0; c < a.size(); ++c) {
      d = std::max(d, std::abs(a[r][c] - b[r][c]));
    }
  }
  return d;
}

struct GateCase {
  qc::Operation op;
  Qubit n;
  const char* label;
};

// Print a case as its label. Without a printer gtest dumps the raw bytes,
// padding and heap pointers included, so the value shown next to each case
// (and the CTest names derived from it) would change from run to run.
void PrintTo(const GateCase& c, std::ostream* os) { *os << c.label; }

class GateDDs : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateDDs, MatchesDenseOperator) {
  const auto& [op, n, label] = GetParam();
  Package p{n};
  const mEdge m = p.makeGateDD(op);
  const auto dense = extractDense(p, m, n);
  const auto ref = test::denseOperator(op, n);
  EXPECT_LT(denseDistance(dense, ref), 1e-10) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GateDDs,
    ::testing::Values(
        GateCase{{qc::GateKind::H, 0, {}, {}}, 1, "h_q0_n1"},
        GateCase{{qc::GateKind::H, 1, {}, {}}, 3, "h_q1_n3"},
        GateCase{{qc::GateKind::X, 2, {}, {}}, 3, "x_top"},
        GateCase{{qc::GateKind::X, 1, {0}, {}}, 2, "cx_ctrl_below"},
        GateCase{{qc::GateKind::X, 0, {1}, {}}, 2, "cx_ctrl_above"},
        GateCase{{qc::GateKind::X, 0, {3}, {}}, 4, "cx_far_ctrl_above"},
        GateCase{{qc::GateKind::X, 3, {0}, {}}, 4, "cx_far_ctrl_below"},
        GateCase{{qc::GateKind::Z, 1, {0, 2}, {}}, 3, "ccz_mixed"},
        GateCase{{qc::GateKind::X, 1, {0, 2, 3}, {}}, 4, "cccx"},
        GateCase{{qc::GateKind::RZ, 1, {}, {0.37}}, 2, "rz"},
        GateCase{{qc::GateKind::RY, 0, {2}, {1.1}}, 3, "cry_above"},
        GateCase{{qc::GateKind::P, 2, {0}, {0.9}}, 3, "cp"},
        GateCase{{qc::GateKind::U3, 1, {}, {0.3, 0.5, 0.7}}, 2, "u3"},
        GateCase{{qc::GateKind::SW, 0, {}, {}}, 2, "sqrtw"}));

TEST(DDOps, HadamardOnZeroGivesPlusState) {
  Package p{1};
  const mEdge h = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 0);
  const vEdge s = p.multiply(h, p.makeZeroState());
  EXPECT_NEAR(std::abs(p.getAmplitude(s, 0) - Complex{SQRT2_INV}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(p.getAmplitude(s, 1) - Complex{SQRT2_INV}), 0.0, 1e-12);
}

TEST(DDOps, BellStateViaTwoGates) {
  Package p{2};
  vEdge s = p.makeZeroState();
  s = p.multiply(p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 0), s);
  const Qubit ctrl[] = {0};
  s = p.multiply(
      p.makeGateDD(qc::gateMatrix(qc::GateKind::X, {}), 1,
                   std::span<const Qubit>{ctrl, 1}),
      s);
  EXPECT_NEAR(std::abs(p.getAmplitude(s, 0) - Complex{SQRT2_INV}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(p.getAmplitude(s, 3) - Complex{SQRT2_INV}), 0.0, 1e-12);
  EXPECT_EQ(p.getAmplitude(s, 1), Complex{});
  EXPECT_EQ(p.getAmplitude(s, 2), Complex{});
}

TEST(DDOps, MultiplyPreservesNorm) {
  const Qubit n = 5;
  Package p{n};
  const auto circuit = test::randomCircuit(n, 40, 9);
  vEdge s = p.makeZeroState();
  p.incRef(s);
  for (const auto& op : circuit) {
    const vEdge next = p.multiply(p.makeGateDD(op), s);
    p.incRef(next);
    p.decRef(s);
    s = next;
    const Complex ip = p.innerProduct(s, s);
    EXPECT_NEAR(ip.real(), 1.0, 1e-9);
    EXPECT_NEAR(ip.imag(), 0.0, 1e-9);
  }
}

TEST(DDOps, RandomCircuitMatchesDenseReference) {
  const Qubit n = 4;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Package p{n};
    const auto circuit = test::randomCircuit(n, 25, seed);
    vEdge s = p.makeZeroState();
    for (const auto& op : circuit) {
      s = p.multiply(p.makeGateDD(op), s);
    }
    const auto ref = test::denseSimulate(circuit);
    for (Index i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(std::abs(p.getAmplitude(s, i) - ref[i]), 0.0, 1e-9);
    }
  }
}

TEST(DDOps, AddIsCommutativeAndMatchesDense) {
  const Qubit n = 3;
  Package p{n};
  const auto va = test::randomState(n, 4);
  const auto vb = test::randomState(n, 5);
  const vEdge a = p.fromArray(va);
  const vEdge b = p.fromArray(vb);
  const vEdge ab = p.add(a, b, n - 1);
  const vEdge ba = p.add(b, a, n - 1);
  for (Index i = 0; i < va.size(); ++i) {
    EXPECT_NEAR(std::abs(p.getAmplitude(ab, i) - (va[i] + vb[i])), 0.0, 1e-9);
    EXPECT_NEAR(std::abs(p.getAmplitude(ba, i) - (va[i] + vb[i])), 0.0, 1e-9);
  }
}

TEST(DDOps, AddWithZeroIsIdentity) {
  Package p{3};
  const vEdge a = p.makeBasisState(5);
  const vEdge r = p.add(a, vEdge::zero(), 2);
  EXPECT_EQ(r.n, a.n);
}

TEST(DDOps, AddOppositeVectorsGivesZero) {
  const Qubit n = 3;
  Package p{n};
  auto v = test::randomState(n, 6);
  const vEdge a = p.fromArray(v);
  for (auto& amp : v) {
    amp = -amp;
  }
  const vEdge b = p.fromArray(v);
  const vEdge r = p.add(a, b, n - 1);
  EXPECT_TRUE(r.isZero());
}

TEST(DDOps, RotationsOfAProductStateKeepItNNodes) {
  // RY on every qubit of |0...0> leaves a product state: one node per level,
  // whose two children are the same node below. Multiplying a rotation into
  // it adds u00 * psi + u01 * psi over that one shared sub-DD. Summing the
  // weights directly keeps the state at n nodes and the multiply linear.
  // Recursing through the weighted add keys made two fresh keys per level,
  // 2^level calls, and rebuilt the nodes from rounded weights: this test
  // then ran for 77 s and ended at 161,298 nodes.
  constexpr Qubit n = 20;
  Package p{n};
  vEdge s = p.makeZeroState();
  std::vector<fp> angles(n, 0.0);  // RY angles compose additively per qubit
  const auto rotate = [&](Qubit q, fp theta) {
    const mEdge g = p.makeGateDD(qc::gateMatrix(qc::GateKind::RY, {theta}), q);
    s = p.multiply(g, s);
    angles[static_cast<std::size_t>(q)] += theta;
  };
  for (Qubit q = 0; q < n; ++q) {
    rotate(q, 0.3 + 0.1 * q);
    ASSERT_EQ(p.nodeCount(s), static_cast<std::size_t>(n)) << "after q" << q;
  }
  const PackageStats before = p.stats();
  rotate(n - 1, 0.77);
  const PackageStats after = p.stats();
  EXPECT_EQ(p.nodeCount(s), static_cast<std::size_t>(n));
  const std::size_t lookups = after.computeHits + after.computeMisses -
                              before.computeHits - before.computeMisses;
  EXPECT_LE(lookups, 4 * static_cast<std::size_t>(n));
  EXPECT_TRUE(p.checkCanonical());

  // Amplitudes are products of per-qubit cos / sin of the half angles.
  const auto expected = [&](Index bits) {
    fp a = 1;
    for (Qubit q = 0; q < n; ++q) {
      const fp half = angles[static_cast<std::size_t>(q)] / 2;
      a *= ((bits >> q) & 1U) != 0 ? std::sin(half) : std::cos(half);
    }
    return a;
  };
  for (const Index bits : {Index{0}, Index{1} << (n - 1), Index{0xabcde},
                           (Index{1} << n) - 1}) {
    EXPECT_NEAR(std::abs(p.getAmplitude(s, bits) - Complex{expected(bits)}),
                0.0, 1e-12)
        << "basis state " << bits;
  }
}

TEST(DDOps, AddOnOneNodeSumsTheWeights) {
  constexpr Qubit n = 4;
  Package p{n};
  const mEdge h = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 2);
  const mEdge scaled{h.n, p.canonical(Complex(0.25, -0.5))};
  const mEdge sum = p.add(h, scaled, n - 1);
  EXPECT_EQ(sum.n, h.n);
  EXPECT_EQ(sum.w, p.canonical(h.w + scaled.w));
  const mEdge negated{h.n, p.canonical(-h.w)};
  EXPECT_TRUE(p.add(h, negated, n - 1).isZero());

  const vEdge v = p.makeBasisState(5);
  const vEdge twice = p.add(v, v, n - 1);
  EXPECT_EQ(twice.n, v.n);
  EXPECT_EQ(twice.w, p.canonical(v.w + v.w));
  EXPECT_TRUE(p.checkCanonical());
}

TEST(DDOps, MatrixMatrixMatchesComposition) {
  // DDMM(M2, M1) applied to |s> must equal M2 (M1 |s>).
  const Qubit n = 3;
  Package p{n};
  const auto c = test::randomCircuit(n, 2, 7);
  const mEdge m1 = p.makeGateDD(c[0]);
  const mEdge m2 = p.makeGateDD(c[1]);
  const mEdge fused = p.multiply(m2, m1);
  for (Index basis = 0; basis < (Index{1} << n); ++basis) {
    const vEdge s = p.makeBasisState(basis);
    const vEdge seq = p.multiply(m2, p.multiply(m1, s));
    const vEdge fus = p.multiply(fused, s);
    for (Index i = 0; i < (Index{1} << n); ++i) {
      EXPECT_NEAR(std::abs(p.getAmplitude(seq, i) - p.getAmplitude(fus, i)),
                  0.0, 1e-9);
    }
  }
}

TEST(DDOps, MatrixChainFusionMatchesDense) {
  const Qubit n = 3;
  Package p{n};
  const auto circuit = test::randomCircuit(n, 10, 8);
  mEdge acc = p.makeIdent(n - 1);
  for (const auto& op : circuit) {
    acc = p.multiply(p.makeGateDD(op), acc);
  }
  const vEdge s = p.multiply(acc, p.makeZeroState());
  const auto ref = test::denseSimulate(circuit);
  for (Index i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(std::abs(p.getAmplitude(s, i) - ref[i]), 0.0, 1e-9);
  }
}

TEST(DDOps, GateDDNodeCountIsCompact) {
  // Gate DDs stay O(n) nodes regardless of position — the property that
  // makes the DMAV hybrid attractive (Section 1).
  const Qubit n = 12;
  Package p{n};
  for (Qubit target = 0; target < n; ++target) {
    const mEdge m = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), target);
    EXPECT_LE(p.nodeCount(m), static_cast<std::size_t>(n));
  }
  // A controlled gate is also linear (controls add identity side chains).
  const Qubit ctrl[] = {0, 5};
  const mEdge cc = p.makeGateDD(qc::gateMatrix(qc::GateKind::X, {}), 9,
                                std::span<const Qubit>{ctrl, 2});
  EXPECT_LE(p.nodeCount(cc), static_cast<std::size_t>(3 * n));
}

TEST(DDOps, GateBuildErrors) {
  Package p{3};
  const auto h = qc::gateMatrix(qc::GateKind::H, {});
  EXPECT_THROW((void)p.makeGateDD(h, 3), std::out_of_range);
  const Qubit badCtrl[] = {7};
  EXPECT_THROW((void)p.makeGateDD(h, 0, std::span<const Qubit>{badCtrl, 1}),
               std::out_of_range);
  const Qubit selfCtrl[] = {1};
  EXPECT_THROW((void)p.makeGateDD(h, 1, std::span<const Qubit>{selfCtrl, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fdd::dd
