// Variable ordering: the scored static pass (engine/ordering), the
// adjacent-level swap primitive and greedy sifting (dd/reorder), the dynamic
// reorder trick inside FlatDD, and the plan-cache ordering-epoch guard.
// Equivalence is always judged in logical qubit labels — the whole point of
// the subsystem is that callers never see internal order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "dd/package.hpp"
#include "dd/reorder.hpp"
#include "engine/ordering.hpp"
#include "engine/simulation_engine.hpp"
#include "flatdd/flatdd_simulator.hpp"
#include "flatdd/plan_cache.hpp"
#include "helpers.hpp"
#include "sim/dd_simulator.hpp"

namespace fdd {
namespace {

using test::denseSimulate;

/// H on each of the first n/2 qubits, then CX(i, i+n/2): every interacting
/// pair sits exactly n/2 levels apart in the input labeling, so the identity
/// order pays ~2^(n/2) nodes while the paired order stays O(n).
qc::Circuit bellCrossed(Qubit n) {
  qc::Circuit c{n, "bell-crossed"};
  const Qubit half = n / 2;
  for (Qubit i = 0; i < half; ++i) {
    c.h(i);
    c.cx(i, static_cast<Qubit>(i + half));
  }
  return c;
}

// ---- QubitOrdering ---------------------------------------------------------

TEST(QubitOrdering, IdentityMapsEverythingToItself) {
  const auto ord = engine::QubitOrdering::identity(5);
  EXPECT_TRUE(ord.isIdentity());
  EXPECT_EQ(ord.numQubits(), 5);
  for (Index i = 0; i < 32; ++i) {
    EXPECT_EQ(ord.mapIndex(i), i);
    EXPECT_EQ(ord.unmapIndex(i), i);
  }
}

TEST(QubitOrdering, MapUnmapRoundTrips) {
  const auto ord =
      engine::QubitOrdering::fromQubitAtLevel({2, 0, 3, 1});  // level -> qubit
  EXPECT_FALSE(ord.isIdentity());
  for (Index i = 0; i < 16; ++i) {
    EXPECT_EQ(ord.unmapIndex(ord.mapIndex(i)), i);
    EXPECT_EQ(ord.mapIndex(ord.unmapIndex(i)), i);
  }
  // Qubit 2 lives at level 0: logical |..1.. on bit 2> -> internal bit 0.
  EXPECT_EQ(ord.mapIndex(Index{1} << 2), Index{1});
}

TEST(QubitOrdering, MapOperationRelabelsAndKeepsControlsSorted) {
  const auto ord = engine::QubitOrdering::fromQubitAtLevel({3, 2, 1, 0});
  const qc::Operation op{qc::GateKind::X, 0, {2, 3}, {}};
  const qc::Operation mapped = ord.mapOperation(op);
  EXPECT_EQ(mapped.target, 3);  // qubit 0 sits at level 3
  ASSERT_EQ(mapped.controls.size(), 2u);
  EXPECT_TRUE(std::is_sorted(mapped.controls.begin(), mapped.controls.end()));
  EXPECT_EQ(mapped.controls[0], 0);  // qubit 3 -> level 0
  EXPECT_EQ(mapped.controls[1], 1);  // qubit 2 -> level 1
}

// ---- scoreOrdering ---------------------------------------------------------

TEST(ScoreOrdering, BellCrossedPairsBecomeAdjacent) {
  const Qubit n = 8;
  const auto ord = engine::scoreOrdering(bellCrossed(n));
  ASSERT_EQ(ord.numQubits(), n);
  // Each (i, i+4) pair interacts only with itself — the scored order must
  // put the partners on adjacent levels.
  for (Qubit i = 0; i < n / 2; ++i) {
    const int a = ord.levelOfQubit[static_cast<std::size_t>(i)];
    const int b = ord.levelOfQubit[static_cast<std::size_t>(i + n / 2)];
    EXPECT_EQ(std::abs(a - b), 1) << "pair (" << int(i) << "," << int(i + n / 2)
                                  << ") split across levels " << a << "," << b;
  }
}

TEST(ScoreOrdering, GhzChainStaysConnected) {
  // GHZ couples q0-q1, q1-q2, ...: the chain must not be torn apart — every
  // qubit ends up adjacent to at least one chain neighbour.
  const Qubit n = 6;
  qc::Circuit c{n, "ghz"};
  c.h(0);
  for (Qubit i = 1; i < n; ++i) {
    c.cx(static_cast<Qubit>(i - 1), i);
  }
  const auto ord = engine::scoreOrdering(c);
  for (Qubit q = 0; q < n; ++q) {
    const int level = ord.levelOfQubit[static_cast<std::size_t>(q)];
    bool adjacentNeighbour = false;
    for (const int d : {-1, 1}) {
      const int neighbour = static_cast<int>(q) + d;
      if (neighbour < 0 || neighbour >= static_cast<int>(n)) {
        continue;
      }
      if (std::abs(ord.levelOfQubit[static_cast<std::size_t>(neighbour)] -
                   level) == 1) {
        adjacentNeighbour = true;
      }
    }
    EXPECT_TRUE(adjacentNeighbour) << "qubit " << int(q);
  }
}

TEST(ScoreOrdering, NoTwoQubitGatesMeansIdentity) {
  qc::Circuit c{4, "singles"};
  c.h(0);
  c.t(3);
  EXPECT_TRUE(engine::scoreOrdering(c).isIdentity());
}

// ---- adjacent-level swap primitive ----------------------------------------

TEST(SwapAdjacent, MatchesBitSwappedAmplitudes) {
  const Qubit n = 5;
  sim::DDSimulator sim{n};
  sim.simulate(test::randomCircuit(n, 40, 11));
  auto& pkg = sim.package();
  const auto before = pkg.toArray(sim.state());
  for (Qubit lower = 0; lower + 1 < n; ++lower) {
    const dd::vEdge swapped = pkg.swapAdjacent(sim.state(), lower);
    EXPECT_TRUE(pkg.checkCanonical());
    const auto after = pkg.toArray(swapped);
    for (Index i = 0; i < before.size(); ++i) {
      const Index lo = (i >> lower) & 1;
      const Index hi = (i >> (lower + 1)) & 1;
      const Index j = (i & ~((Index{3}) << lower)) | (hi << lower) |
                      (lo << (lower + 1));
      EXPECT_LT(std::abs(before[i] - after[j]), 1e-12)
          << "level " << int(lower) << " index " << i;
    }
  }
}

TEST(SwapAdjacent, IsAnInvolution) {
  const Qubit n = 6;
  sim::DDSimulator sim{n};
  sim.simulate(test::randomCircuit(n, 60, 23));
  auto& pkg = sim.package();
  const auto reference = pkg.toArray(sim.state());
  for (Qubit lower = 0; lower + 1 < n; ++lower) {
    const dd::vEdge once = pkg.swapAdjacent(sim.state(), lower);
    const dd::vEdge twice = pkg.swapAdjacent(once, lower);
    EXPECT_TRUE(pkg.checkCanonical());
    const auto roundTrip = pkg.toArray(twice);
    for (Index i = 0; i < reference.size(); ++i) {
      EXPECT_LT(std::abs(reference[i] - roundTrip[i]), 1e-12);
    }
  }
}

// ---- greedy sifting --------------------------------------------------------

TEST(ReorderGreedy, ShrinksBellCrossedAndPreservesTheState) {
  const Qubit n = 10;
  sim::DDSimulator sim{n};
  sim.simulate(bellCrossed(n));
  auto& pkg = sim.package();
  const auto before = pkg.toArray(sim.state());
  const std::size_t nodesBefore = pkg.nodeCount(sim.state());

  const dd::ReorderResult r = dd::reorderGreedy(pkg, sim.state());
  EXPECT_EQ(r.nodesBefore, nodesBefore);
  EXPECT_LT(r.nodesAfter, nodesBefore / 2) << "identity order should be far "
                                              "from optimal for bell-crossed";
  EXPECT_FALSE(r.swaps.empty());

  // Replay the accepted swap list on the qubit labels and check the
  // reordered DD holds exactly the bit-permuted amplitudes.
  std::vector<Qubit> qubitAtLevel(n);
  for (Qubit q = 0; q < n; ++q) {
    qubitAtLevel[static_cast<std::size_t>(q)] = q;
  }
  for (const Qubit lower : r.swaps) {
    std::swap(qubitAtLevel[static_cast<std::size_t>(lower)],
              qubitAtLevel[static_cast<std::size_t>(lower) + 1]);
  }
  std::vector<Qubit> levelOfQubit(n);
  for (std::size_t l = 0; l < qubitAtLevel.size(); ++l) {
    levelOfQubit[static_cast<std::size_t>(qubitAtLevel[l])] =
        static_cast<Qubit>(l);
  }
  const auto after = pkg.toArray(r.state);
  for (Index i = 0; i < before.size(); ++i) {
    Index mapped = 0;
    for (std::size_t q = 0; q < levelOfQubit.size(); ++q) {
      mapped |= ((i >> q) & 1) << levelOfQubit[q];
    }
    EXPECT_LT(std::abs(before[i] - after[mapped]), 1e-12) << "index " << i;
  }
  EXPECT_TRUE(pkg.checkCanonical());
}

// ---- static ordering pass, cross-backend equivalence -----------------------

TEST(OrderingPass, ReportsThePermutationAndKeepsAmplitudes) {
  const Qubit n = 8;
  const qc::Circuit circuit = bellCrossed(n);
  engine::EngineOptions plain;
  plain.recordPerGate = true;
  engine::EngineOptions ordered;
  ordered.passes = {"ordering"};
  ordered.recordPerGate = true;

  engine::SimulationEngine reference{plain};
  const engine::RunReport refReport = reference.run("dd", circuit);
  const auto refState = reference.backend().stateVector();

  engine::SimulationEngine scored{ordered};
  const engine::RunReport report = scored.run("dd", circuit);
  ASSERT_EQ(report.ordering.size(), static_cast<std::size_t>(n));
  std::set<Qubit> seen(report.ordering.begin(), report.ordering.end());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n)) << "not a permutation";
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_EQ(report.passes[0].name, "ordering");
  EXPECT_FALSE(report.passes[0].note.empty());

  // The scored order must crush the peak *state* DD size on this family.
  // (report.peakDDSize is the package-wide vNode high-water mark, which also
  // counts gate DDs and multiply intermediates; the per-gate trace records the
  // state DD alone, which is what variable ordering actually shapes.)
  const auto peakStateNodes = [](const engine::RunReport& r) {
    std::size_t peak = 0;
    for (const auto& g : r.perGate) {
      peak = std::max(peak, g.ddSize);
    }
    return peak;
  };
  EXPECT_LT(peakStateNodes(report) * 3, peakStateNodes(refReport));
  // ...without changing anything the caller can observe.
  EXPECT_STATE_NEAR(scored.backend().stateVector(), refState, 1e-12);
  for (const Index probe : {Index{0}, Index{5}, (Index{1} << n) - 1}) {
    EXPECT_LT(std::abs(scored.backend().amplitude(probe) -
                       reference.backend().amplitude(probe)),
              1e-12);
  }
}

TEST(OrderingPass, RandomizedEquivalenceAcrossBackends) {
  const Qubit n = 6;
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const qc::Circuit circuit = test::randomCircuit(n, 50, seed);
    const auto dense = denseSimulate(circuit);
    for (const char* backend : {"dd", "array", "flatdd"}) {
      engine::EngineOptions eo;
      eo.threads = 2;
      eo.passes = {"ordering"};
      // Make flatdd actually convert mid-circuit so the permuted flat phase
      // is exercised, not just the DD phase.
      eo.ewmaWarmupGates = 2;
      eo.ewmaMinDDSize = 1;
      engine::SimulationEngine engine{eo};
      engine.run(backend, circuit);
      EXPECT_STATE_NEAR(engine.backend().stateVector(), dense, 1e-10)
          << backend << " seed " << seed;
    }
  }
}

TEST(OrderingPass, SamplesLandOnLogicalSupport) {
  // GHZ support is |0...0> and |1...1> in *logical* labels; a missing
  // inverse mapping would scatter samples across permuted bit patterns.
  const Qubit n = 7;
  qc::Circuit c{n, "ghz"};
  c.h(0);
  for (Qubit i = 1; i < n; ++i) {
    c.cx(static_cast<Qubit>(i - 1), i);
  }
  engine::EngineOptions eo;
  eo.passes = {"ordering"};
  engine::SimulationEngine engine{eo};
  engine.run("dd", c);
  Xoshiro256 rng{42};
  const Index all = (Index{1} << n) - 1;
  for (const Index s : engine.backend().sample(256, rng)) {
    EXPECT_TRUE(s == 0 || s == all) << "sample " << s;
  }
}

// ---- dynamic reorder inside FlatDD ----------------------------------------

TEST(DynamicReorder, FlatDDStaysCorrectAndCountsReorders) {
  const Qubit n = 8;
  const qc::Circuit circuit = bellCrossed(n);
  const auto dense = denseSimulate(circuit);

  flat::FlatDDOptions o;
  o.threads = 2;
  o.ddReorder = true;
  o.reorderMinNodes = 4;   // tiny DDs still qualify
  o.warmupGates = 2;       // let the EWMA fire early
  o.minDDSize = 1;
  o.epsilon = 1.01;
  flat::FlatDDSimulator sim{n, o};
  sim.simulate(circuit);

  EXPECT_GE(sim.stats().reorderCount, 1u)
      << "bell-crossed growth should have triggered at least one reorder";
  EXPECT_GT(sim.stats().reorderSwaps, 0u);
  EXPECT_LT(sim.stats().ddSizePostReorder, sim.stats().ddSizePreReorder);
  EXPECT_STATE_NEAR(sim.stateVector(), dense, 1e-12);
  for (const Index probe : {Index{0}, Index{3}, (Index{1} << n) - 1}) {
    EXPECT_LT(std::abs(sim.amplitude(probe) - dense[probe]), 1e-12);
  }
}

TEST(DynamicReorder, StreamingAndRandomCircuitsMatchDenseReference) {
  const Qubit n = 6;
  for (const std::uint64_t seed : {5u, 31u}) {
    const qc::Circuit circuit = test::randomCircuit(n, 60, seed);
    const auto dense = denseSimulate(circuit);
    flat::FlatDDOptions o;
    o.threads = 2;
    o.ddReorder = true;
    o.reorderMinNodes = 2;
    o.warmupGates = 2;
    o.minDDSize = 1;
    flat::FlatDDSimulator sim{n, o};
    for (const auto& op : circuit) {
      sim.applyOperation(op);  // streaming path remaps per gate
    }
    EXPECT_STATE_NEAR(sim.stateVector(), dense, 1e-10) << "seed " << seed;
  }
}

TEST(DynamicReorder, SampleUnmapsToLogicalLabels) {
  const Qubit n = 8;
  flat::FlatDDOptions o;
  o.ddReorder = true;
  o.reorderMinNodes = 4;
  o.warmupGates = 2;
  o.minDDSize = 1;
  o.epsilon = 1.01;
  flat::FlatDDSimulator sim{n, o};
  const qc::Circuit circuit = bellCrossed(n);
  sim.simulate(circuit);
  const auto dense = denseSimulate(circuit);
  Xoshiro256 rng{7};
  for (const Index s : sim.sample(128, rng)) {
    EXPECT_GT(std::abs(dense[s]), 1e-9) << "sampled zero-amplitude state " << s;
  }
}

TEST(DynamicReorder, ForcedConversionPointDisablesTheTrick) {
  const Qubit n = 6;
  flat::FlatDDOptions o;
  o.ddReorder = true;
  o.reorderMinNodes = 1;
  o.forceConversionAtGate = 5;
  flat::FlatDDSimulator sim{n, o};
  sim.simulate(test::randomCircuit(n, 30, 9));
  EXPECT_EQ(sim.stats().reorderCount, 0u);
  EXPECT_TRUE(sim.stats().converted);
  EXPECT_EQ(sim.stats().conversionGateIndex, 5u);
}

// ---- plan-cache ordering epoch --------------------------------------------

TEST(PlanCacheEpoch, BumpingTheEpochForcesRecompile) {
  const Qubit n = 4;
  dd::Package pkg{n};
  const dd::mEdge gate = pkg.makeGateDD(qc::Operation{qc::GateKind::H, 1, {}, {}});
  pkg.incRef(gate);

  flat::PlanCache cache{8};
  bool wasHit = true;
  const auto first =
      cache.getShared(pkg, gate, n, 1, flat::PlanMode::Row, &wasHit);
  EXPECT_FALSE(wasHit);
  EXPECT_TRUE(first->validFor(pkg));

  (void)cache.getShared(pkg, gate, n, 1, flat::PlanMode::Row, &wasHit);
  EXPECT_TRUE(wasHit) << "same epoch must hit";

  pkg.bumpOrderingEpoch();
  EXPECT_FALSE(first->validFor(pkg))
      << "plans from an earlier ordering epoch must be invalid";
  const auto second =
      cache.getShared(pkg, gate, n, 1, flat::PlanMode::Row, &wasHit);
  EXPECT_FALSE(wasHit) << "new epoch must recompile, not alias the old key";
  EXPECT_TRUE(second->validFor(pkg));
  pkg.decRef(gate);
}

// ---- report round-trip -----------------------------------------------------

TEST(OrderingReport, JsonAndCsvCarryTheNewFields) {
  engine::RunReport r;
  r.backend = "flatdd";
  r.ordering = {2, 0, 1};
  r.reorderCount = 2;
  r.reorderSwaps = 5;
  r.ddSizePreReorder = 900;
  r.ddSizePostReorder = 120;
  r.reorderSeconds = 0.25;
  const engine::RunReport parsed = engine::RunReport::fromJson(r.toJson());
  EXPECT_EQ(parsed, r);
  const std::string csv = r.toCsv();
  EXPECT_NE(csv.find("reorder_count,2"), std::string::npos);
  EXPECT_NE(csv.find("dd_size_pre_reorder,900"), std::string::npos);
  EXPECT_NE(csv.find("ordering,2 0 1"), std::string::npos);
}

}  // namespace
}  // namespace fdd
