// Full-stack conformance grid: every circuit family x several sizes, all
// three engines (+ the optimizer as a preprocessing pass) must agree on the
// final state. This is the repository's broadest regression net.

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "flatdd/flatdd_simulator.hpp"
#include "helpers.hpp"
#include "parallel/thread_pool.hpp"
#include "qc/optimizer.hpp"
#include "sim/array_simulator.hpp"
#include "sim/dd_simulator.hpp"

namespace fdd {
namespace {

constexpr int kFamilies = 14;

qc::Circuit familyCircuit(int family, int size) {
  // size in {0, 1, 2} scales each family's qubit count.
  const Qubit n = static_cast<Qubit>(5 + 2 * size);  // 5, 7, 9
  switch (family) {
    case 0: return circuits::ghz(n);
    case 1: return circuits::wState(n);
    case 2: return circuits::adder((n - 1) / 2, 3 + size, 5);
    case 3: return circuits::qft(n, 3 + 2 * size);
    case 4: return circuits::grover(n);
    case 5: return circuits::bernsteinVazirani(n - 1, 0b1011 + size);
    case 6: return circuits::dnn(n, 2 + size, 300 + size);
    case 7: return circuits::vqe(n, 2 + size, 310 + size);
    case 8: return circuits::knn(n | 1, 320 + size);
    case 9: return circuits::swapTest(n | 1, 330 + size);
    case 10: return circuits::supremacy(n, 4 + size, 340 + size);
    case 11: return circuits::qaoa(n, 1 + size, 350 + size);
    case 12: return circuits::hiddenShift(n & ~1, 0b101 + size, 360 + size);
    default: return circuits::quantumVolume(n, 1 + size, 370 + size);
  }
}

class FamilyGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FamilyGrid, AllEnginesAndOptimizerAgree) {
  const auto [family, size] = GetParam();
  const auto circuit = familyCircuit(family, size);
  const Qubit n = circuit.numQubits();

  sim::ArraySimulator arr{n, {.threads = 2}};
  arr.simulate(circuit);

  sim::DDSimulator ddSim{n};
  ddSim.simulate(circuit);
  EXPECT_STATE_NEAR(ddSim.stateVector(), arr.state(), 1e-8)
      << circuit.name() << " [dd vs array]";

  flat::FlatDDOptions opt;
  opt.threads = 4;
  flat::FlatDDSimulator flatSim{n, opt};
  flatSim.simulate(circuit);
  EXPECT_STATE_NEAR(flatSim.stateVector(), arr.state(), 1e-8)
      << circuit.name() << " [flatdd vs array]";

  // Optimizer pass then array simulation: same state.
  const auto optimized = qc::optimize(circuit);
  sim::ArraySimulator arrOpt{n, {.threads = 2}};
  arrOpt.simulate(optimized);
  EXPECT_STATE_NEAR(arrOpt.state(), arr.state(), 1e-8)
      << circuit.name() << " [optimized vs raw]";
}

INSTANTIATE_TEST_SUITE_P(Grid, FamilyGrid,
                         ::testing::Combine(::testing::Range(0, kFamilies),
                                            ::testing::Range(0, 3)));

// The conversion decision must not depend on the thread count: the DD phase
// is sequential, so a run at any thread count converts at the same gate with
// the same peak DD as the 1-thread run. Circuits are the CLI's defaults
// (depth 8, seed 7) plus supremacy(12, 10, 23), a known regression case for
// a thread-dependent conversion point.
TEST(ConversionCliff, ConversionPointIsIndependentOfThreadCount) {
  par::resizePool(8);
  std::vector<qc::Circuit> roster;
  for (const Qubit n : {12, 13, 14}) {
    roster.push_back(circuits::vqe(n, 8, 7));
    roster.push_back(circuits::supremacy(n, 8, 7));
    roster.push_back(circuits::randomUniversal(n, 160, 7));
    roster.push_back(circuits::qpe(n - 1, 7.0 / 128.0));
    roster.push_back(circuits::qaoa(n, 8, 7));
  }
  roster.push_back(circuits::supremacy(12, 10, 23));

  const auto run = [](const qc::Circuit& circuit, unsigned threads) {
    flat::FlatDDOptions opt;
    opt.threads = threads;
    flat::FlatDDSimulator sim{circuit.numQubits(), opt};
    sim.simulate(circuit);
    return sim.stats();
  };
  for (const qc::Circuit& circuit : roster) {
    const flat::FlatDDStats base = run(circuit, 1);
    for (const unsigned threads : {2u, 4u, 8u}) {
      const flat::FlatDDStats st = run(circuit, threads);
      EXPECT_EQ(st.converted, base.converted)
          << circuit.name() << " at " << threads << " threads";
      EXPECT_EQ(st.conversionGateIndex, base.conversionGateIndex)
          << circuit.name() << " at " << threads << " threads";
      EXPECT_EQ(st.peakDDSize, base.peakDDSize)
          << circuit.name() << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace fdd
