// End-to-end FlatDD simulator: equivalence with the baselines on every
// circuit family, conversion behavior (regular circuits stay in DD,
// irregular ones convert), option handling, and statistics.

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "flatdd/flatdd_simulator.hpp"
#include "helpers.hpp"
#include "sim/array_simulator.hpp"

namespace fdd::flat {
namespace {

class FlatDDCircuits : public ::testing::TestWithParam<int> {};

qc::Circuit e2eCircuit(int idx) {
  switch (idx) {
    case 0: return circuits::ghz(10);
    case 1: return circuits::wState(9);
    case 2: return circuits::adder(4, 11, 7);
    case 3: return circuits::qft(8, 5);
    case 4: return circuits::dnn(8, 3, 41);
    case 5: return circuits::vqe(8, 3, 42);
    case 6: return circuits::supremacy(8, 6, 43);
    case 7: return circuits::knn(9, 44);
    case 8: return circuits::swapTest(9, 45);
    default: return circuits::bernsteinVazirani(8, 0b10110101);
  }
}

TEST_P(FlatDDCircuits, MatchesArraySimulator) {
  const auto circuit = e2eCircuit(GetParam());
  const Qubit n = circuit.numQubits();
  FlatDDOptions opt;
  opt.threads = 4;
  FlatDDSimulator flat{n, opt};
  flat.simulate(circuit);
  sim::ArraySimulator ref{n, {.threads = 2}};
  ref.simulate(circuit);
  EXPECT_STATE_NEAR(flat.stateVector(), ref.state(), 1e-9) << circuit.name();
}

TEST_P(FlatDDCircuits, FusionModesAgree) {
  const auto circuit = e2eCircuit(GetParam());
  const Qubit n = circuit.numQubits();
  sim::ArraySimulator ref{n, {.threads = 2}};
  ref.simulate(circuit);
  for (const FusionMode mode :
       {FusionMode::DmavAware, FusionMode::KOperations}) {
    FlatDDOptions opt;
    opt.threads = 4;
    opt.fusion = mode;
    FlatDDSimulator flat{n, opt};
    flat.simulate(circuit);
    EXPECT_STATE_NEAR(flat.stateVector(), ref.state(), 1e-9)
        << circuit.name() << " mode=" << static_cast<int>(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FlatDDCircuits, ::testing::Range(0, 10));

TEST(FlatDD, RegularCircuitsStayInDD) {
  for (const auto& circuit :
       {circuits::ghz(14), circuits::adder(5, 17, 12)}) {
    FlatDDSimulator flat{circuit.numQubits(), {.threads = 4}};
    flat.simulate(circuit);
    EXPECT_FALSE(flat.stats().converted) << circuit.name();
    EXPECT_EQ(flat.stats().ddGates, circuit.numGates());
    EXPECT_EQ(flat.stats().dmavGates, 0u);
  }
}

TEST(FlatDD, IrregularCircuitsConvert) {
  const auto circuit = circuits::supremacy(10, 8, 46);
  FlatDDSimulator flat{10, {.threads = 4}};
  flat.simulate(circuit);
  EXPECT_TRUE(flat.stats().converted);
  EXPECT_GT(flat.stats().conversionGateIndex, 0u);
  EXPECT_LT(flat.stats().conversionGateIndex, circuit.numGates());
  EXPECT_EQ(flat.stats().ddGates + flat.stats().dmavGates,
            circuit.numGates());
}

TEST(FlatDD, ForcedConversionOverridesEwma) {
  const auto circuit = circuits::ghz(10);  // would never convert on its own
  FlatDDOptions opt;
  opt.threads = 4;
  opt.forceConversionAtGate = 3;
  FlatDDSimulator flat{10, opt};
  flat.simulate(circuit);
  EXPECT_TRUE(flat.stats().converted);
  EXPECT_EQ(flat.stats().conversionGateIndex, 3u);
  sim::ArraySimulator ref{10};
  ref.simulate(circuit);
  EXPECT_STATE_NEAR(flat.stateVector(), ref.state(), 1e-10);
}

TEST(FlatDD, ForcedCachingStillCorrect) {
  const auto circuit = circuits::dnn(8, 3, 47);
  FlatDDOptions opt;
  opt.threads = 4;
  opt.forceCaching = true;
  opt.forceConversionAtGate = 5;
  FlatDDSimulator flat{8, opt};
  flat.simulate(circuit);
  EXPECT_EQ(flat.stats().cachedGates, flat.stats().dmavGates);
  sim::ArraySimulator ref{8};
  ref.simulate(circuit);
  EXPECT_STATE_NEAR(flat.stateVector(), ref.state(), 1e-9);
}

TEST(FlatDD, DiagonalLayersCollapseIntoDiagRuns) {
  // An ISING/QAOA-style circuit: after the H wall, every layer is n RZ
  // gates plus a CP ladder — all diagonal. With fuseDiagonalRuns the DMAV
  // phase must collapse each maximal run into one fused sweep and still
  // match both the unfused configuration and the array baseline.
  const Qubit n = 8;
  qc::Circuit circuit{n, "diag-layers"};
  for (Qubit q = 0; q < n; ++q) {
    circuit.h(q);
  }
  for (int layer = 0; layer < 6; ++layer) {
    for (Qubit q = 0; q < n; ++q) {
      circuit.gate(qc::GateKind::RZ, {}, q, {0.1 + 0.07 * layer + 0.03 * q});
    }
    for (Qubit q = 0; q + 1 < n; ++q) {
      circuit.gate(qc::GateKind::P, {q}, static_cast<Qubit>(q + 1),
                   {0.2 + 0.05 * layer});
    }
    circuit.h(0);  // break the run so several independent runs form
  }

  FlatDDOptions opt;
  opt.threads = 2;
  opt.forceConversionAtGate = n;  // convert right after the H wall
  FlatDDSimulator fused{n, opt};
  fused.simulate(circuit);
  EXPECT_GT(fused.stats().diagRuns, 0u);
  EXPECT_GE(fused.stats().diagRunGates, 2 * fused.stats().diagRuns);
  // Every layer's 2n-1 diagonal gates form one maximal run.
  EXPECT_GE(fused.stats().diagRunGates, 6u * (2u * n - 1u));
  EXPECT_EQ(fused.stats().ddGates + fused.stats().dmavGates,
            circuit.numGates());

  FlatDDOptions unfusedOpt = opt;
  unfusedOpt.fuseDiagonalRuns = false;
  FlatDDSimulator unfused{n, unfusedOpt};
  unfused.simulate(circuit);
  EXPECT_EQ(unfused.stats().diagRuns, 0u);
  EXPECT_STATE_NEAR(fused.stateVector(), unfused.stateVector(), 1e-10);

  sim::ArraySimulator ref{n, {.threads = 2}};
  ref.simulate(circuit);
  EXPECT_STATE_NEAR(fused.stateVector(), ref.state(), 1e-10);
}

TEST(FlatDD, PerGateTraceCoversAllGates) {
  const auto circuit = circuits::supremacy(8, 5, 48);
  FlatDDOptions opt;
  opt.threads = 2;
  opt.recordPerGate = true;
  FlatDDSimulator flat{8, opt};
  flat.simulate(circuit);
  const auto& trace = flat.stats().perGate;
  ASSERT_EQ(trace.size(),
            flat.stats().ddGates + flat.stats().dmavGates);
  // DD-phase records come first, then DMAV records.
  bool seenFlat = false;
  for (const auto& rec : trace) {
    if (!rec.inDDPhase) {
      seenFlat = true;
    } else {
      EXPECT_FALSE(seenFlat) << "DD record after DMAV records";
      EXPECT_GT(rec.ddSize, 0u);
    }
    EXPECT_GE(rec.seconds, 0.0);
  }
}

TEST(FlatDD, AmplitudeQueriesWorkInBothPhases) {
  // Regular circuit (stays DD): amplitude from DD.
  FlatDDSimulator a{6, {.threads = 2}};
  a.simulate(circuits::ghz(6));
  EXPECT_NEAR(std::abs(a.amplitude(0)), SQRT2_INV, 1e-10);
  EXPECT_NEAR(std::abs(a.amplitude(63)), SQRT2_INV, 1e-10);

  // Forced conversion: amplitude from the flat array.
  FlatDDOptions opt;
  opt.threads = 2;
  opt.forceConversionAtGate = 2;
  FlatDDSimulator b{6, opt};
  b.simulate(circuits::ghz(6));
  EXPECT_NEAR(std::abs(b.amplitude(0)), SQRT2_INV, 1e-10);
  EXPECT_NEAR(std::abs(b.amplitude(63)), SQRT2_INV, 1e-10);
}

TEST(FlatDD, MismatchedCircuitThrows) {
  FlatDDSimulator flat{4};
  EXPECT_THROW(flat.simulate(circuits::ghz(5)), std::invalid_argument);
}

TEST(FlatDD, MemoryAccountingIsPositiveAndGrowsOnConversion) {
  const auto circuit = circuits::dnn(10, 3, 49);
  FlatDDSimulator flat{10, {.threads = 2}};
  flat.simulate(circuit);
  EXPECT_GT(flat.memoryBytes(), 0u);
  if (flat.stats().converted) {
    // Converted runs hold the flat state vector.
    EXPECT_GE(flat.memoryBytes(), sizeof(Complex) * (1u << 10));
  }
}

TEST(FlatDD, SingleTargetFlatPhaseHoldsOneStateBuffer) {
  // Every gate after the conversion replays in place on the state, so the
  // flat phase never allocates a second 2^n array.
  constexpr Qubit n = 16;
  const std::size_t stateBytes = sizeof(Complex) * (std::size_t{1} << n);
  qc::Circuit circuit{n, "single-target"};
  for (Qubit q = 0; q < n; ++q) {
    circuit.append({qc::GateKind::H, q, {}, {}});
  }
  for (Qubit q = 0; q + 1 < n; ++q) {
    circuit.append({qc::GateKind::X, q + 1, {q}, {}});
    circuit.append({qc::GateKind::RY, q, {q + 1}, {0.1 * (q + 1)}});
    circuit.append({qc::GateKind::RZ, q + 1, {}, {0.3}});
  }
  FlatDDOptions o;
  o.threads = 1;
  o.forceConversionAtGate = 1;
  FlatDDSimulator flat{n, o};
  flat.simulate(circuit);
  const FlatDDStats& s = flat.stats();
  ASSERT_TRUE(s.converted);
  EXPECT_EQ(s.inPlaceGates, s.dmavGates);
  EXPECT_GE(flat.memoryBytes(), stateBytes);
  EXPECT_LT(flat.memoryBytes(), 2 * stateBytes);

  sim::ArraySimulator reference{
      n, {.threads = 1, .indexing = sim::ArrayIndexing::MultiIndex}};
  reference.simulate(circuit);
  EXPECT_STATE_NEAR(flat.stateVector(), reference.state(), 1e-10);
}

TEST(FlatDD, StatsTimingsAreConsistent) {
  const auto circuit = circuits::supremacy(8, 6, 50);
  FlatDDSimulator flat{8, {.threads = 2}};
  flat.simulate(circuit);
  const auto& s = flat.stats();
  EXPECT_GE(s.ddPhaseSeconds, 0.0);
  if (s.converted) {
    EXPECT_GT(s.dmavPhaseSeconds, 0.0);
    EXPECT_GE(s.conversionSeconds, 0.0);
  }
}

TEST(FlatDD, ThreadSweepIsDeterministicInResult) {
  const auto circuit = circuits::dnn(8, 2, 51);
  AlignedVector<Complex> reference;
  for (const unsigned t : {1u, 2u, 4u, 8u, 16u}) {
    FlatDDSimulator flat{8, {.threads = t}};
    flat.simulate(circuit);
    const auto state = flat.stateVector();
    if (reference.empty()) {
      reference = state;
    } else {
      EXPECT_STATE_NEAR(state, reference, 1e-10) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace fdd::flat
