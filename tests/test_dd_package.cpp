// DD package core: node construction and normalization invariants, canonicity
// (structural sharing), basis states, amplitude queries, ref counting and
// garbage collection, unique-table growth, and the compute table's key
// matching and flush.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "circuits/generators.hpp"
#include "common/prng.hpp"
#include "dd/compute_table.hpp"
#include "dd/package.hpp"
#include "helpers.hpp"
#include "sim/dd_simulator.hpp"

namespace fdd::dd {
namespace {

TEST(Package, RejectsBadQubitCounts) {
  EXPECT_THROW(Package(0), std::invalid_argument);
  EXPECT_THROW(Package(41), std::invalid_argument);
  EXPECT_NO_THROW(Package(1));
}

TEST(Package, ZeroStateAmplitudes) {
  Package p{3};
  const vEdge s = p.makeZeroState();
  EXPECT_NEAR(std::abs(p.getAmplitude(s, 0) - Complex{1.0}), 0.0, 1e-12);
  for (Index i = 1; i < 8; ++i) {
    EXPECT_EQ(p.getAmplitude(s, i), Complex{});
  }
}

TEST(Package, BasisStateAmplitudes) {
  Package p{4};
  for (const Index basis : {0ULL, 1ULL, 5ULL, 15ULL}) {
    const vEdge s = p.makeBasisState(basis);
    for (Index i = 0; i < 16; ++i) {
      const Complex amp = p.getAmplitude(s, i);
      if (i == basis) {
        EXPECT_NEAR(std::abs(amp - Complex{1.0}), 0.0, 1e-12);
      } else {
        EXPECT_EQ(amp, Complex{});
      }
    }
  }
}

TEST(Package, BasisStateOutOfRangeThrows) {
  Package p{3};
  EXPECT_THROW((void)p.makeBasisState(8), std::out_of_range);
}

TEST(Package, BasisStatesShareStructure) {
  // |000> and |001> share the upper levels' zero branches; more importantly,
  // building the same state twice must return the identical root node.
  Package p{5};
  const vEdge a = p.makeBasisState(19);
  const vEdge b = p.makeBasisState(19);
  EXPECT_EQ(a.n, b.n);
  EXPECT_TRUE(weightEqual(a.w, b.w));
}

TEST(Package, NodeCountOfBasisStateIsN) {
  Package p{6};
  const vEdge s = p.makeBasisState(0b101010);
  EXPECT_EQ(p.nodeCount(s), 6u);
}

TEST(Package, NormalizationMakesLargestWeightOne) {
  Package p{1};
  const vEdge e = p.makeVectorNode(
      0, {vEdge{vNode::terminal(), p.canonical({0.6, 0.0})},
          vEdge{vNode::terminal(), p.canonical({0.8, 0.0})}});
  // Larger magnitude is the second child -> its normalized weight must be 1.
  EXPECT_TRUE(weightEqual(e.n->e[1].w, Complex{1.0}));
  EXPECT_NEAR(std::abs(e.w - Complex{0.8}), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(e.n->e[0].w - Complex{0.75}), 0.0, 1e-10);
}

TEST(Package, NormalizationLeftmostWinsOnTies) {
  Package p{1};
  const vEdge e = p.makeVectorNode(
      0, {vEdge{vNode::terminal(), p.canonical({SQRT2_INV, 0.0})},
          vEdge{vNode::terminal(), p.canonical({-SQRT2_INV, 0.0})}});
  EXPECT_TRUE(weightEqual(e.n->e[0].w, Complex{1.0}));
  EXPECT_NEAR(std::abs(e.n->e[1].w + Complex{1.0}), 0.0, 1e-10);
}

TEST(Package, AllZeroChildrenCollapseToZeroEdge) {
  Package p{2};
  const vEdge e = p.makeVectorNode(0, {vEdge::zero(), vEdge::zero()});
  EXPECT_TRUE(e.isZero());
  EXPECT_TRUE(e.isTerminal());
}

TEST(Package, IdenticalContentsShareOneNode) {
  Package p{2};
  auto mk = [&] {
    const vEdge lo = p.makeVectorNode(
        0, {vEdge::one(), vEdge{vNode::terminal(), p.canonical({0.5, 0.5})}});
    return p.makeVectorNode(1, {lo, lo});
  };
  const vEdge a = mk();
  const vEdge b = mk();
  EXPECT_EQ(a.n, b.n);
}

TEST(Package, JitteredWeightsStillShare) {
  // Weights differing by less than the tolerance must produce the same node.
  Package p{1, 1e-10};
  const vEdge a = p.makeVectorNode(
      0, {vEdge{vNode::terminal(), p.canonical({0.6, 0.0})},
          vEdge{vNode::terminal(), p.canonical({0.8, 0.0})}});
  const vEdge b = p.makeVectorNode(
      0, {vEdge{vNode::terminal(), p.canonical({0.6 + 1e-12, 0.0})},
          vEdge{vNode::terminal(), p.canonical({0.8 - 1e-12, 0.0})}});
  EXPECT_EQ(a.n, b.n);
}

TEST(Package, GarbageCollectionReclaimsUnreferencedNodes) {
  Package p{8};
  const vEdge keep = p.makeBasisState(17);
  p.incRef(keep);
  // Create garbage: many basis states never referenced.
  for (Index i = 0; i < 200; ++i) {
    (void)p.makeBasisState(i);
  }
  const std::size_t before = p.stats().vNodesLive;
  p.garbageCollect(true);
  const std::size_t after = p.stats().vNodesLive;
  EXPECT_LT(after, before);
  EXPECT_GE(after, 8u);  // the referenced state (8 nodes) must survive
  // And the kept state must still answer amplitude queries correctly.
  EXPECT_NEAR(std::abs(p.getAmplitude(keep, 17) - Complex{1.0}), 0.0, 1e-12);
}

TEST(Package, GcKeepsSharedInteriorNodes) {
  Package p{4};
  vEdge state = p.makeZeroState();
  p.incRef(state);
  const mEdge h = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 0);
  const vEdge next = p.multiply(h, state);
  p.incRef(next);
  p.decRef(state);
  p.garbageCollect(true);
  // next must be fully intact.
  EXPECT_NEAR(std::abs(p.getAmplitude(next, 0) - Complex{SQRT2_INV}), 0.0,
              1e-10);
  EXPECT_NEAR(std::abs(p.getAmplitude(next, 1) - Complex{SQRT2_INV}), 0.0,
              1e-10);
}

TEST(Package, StatsReportLiveCounts) {
  Package p{5};
  const vEdge s = p.makeBasisState(7);
  p.incRef(s);
  const PackageStats st = p.stats();
  EXPECT_GE(st.vNodesLive, 5u);
  EXPECT_GT(st.memoryBytes, 0u);
  EXPECT_GE(st.peakVNodes, st.vNodesLive);
}

TEST(Package, IdentityLeavesStatesUntouched) {
  Package p{4};
  const mEdge id = p.makeIdent(3);
  const vEdge s = p.makeBasisState(9);
  const vEdge r = p.multiply(id, s);
  EXPECT_EQ(r.n, s.n);
  EXPECT_NEAR(std::abs(r.w - s.w), 0.0, 1e-12);
}

TEST(Package, IdentityIsCached) {
  Package p{4};
  const mEdge a = p.makeIdent(3);
  const mEdge b = p.makeIdent(3);
  EXPECT_EQ(a.n, b.n);
  p.garbageCollect(true);  // pinned: must survive GC
  const mEdge c = p.makeIdent(3);
  EXPECT_EQ(a.n, c.n);
}

TEST(Package, IdentityNodeCountIsLinear) {
  Package p{10};
  const mEdge id = p.makeIdent(9);
  EXPECT_EQ(p.nodeCount(id), 10u);
}

TEST(Package, RebuiltBasisStatesReuseCanonicalNodes) {
  constexpr Qubit kQubits = 10;
  constexpr Index kDim = Index{1} << kQubits;
  Package p{kQubits};
  std::vector<vEdge> first;
  first.reserve(kDim);
  for (Index i = 0; i < kDim; ++i) {
    first.push_back(p.makeBasisState(i));
  }
  // Rebuilding in a different order must find the same nodes.
  for (Index i = 0; i < kDim; ++i) {
    const Index state = (i * 37 + 11) % kDim;
    ASSERT_EQ(p.makeBasisState(state).n, first[state].n)
        << "basis state " << state;
  }
  EXPECT_TRUE(p.checkCanonical());
}

TEST(Package, RepeatedAddsProduceCanonicalNodes) {
  constexpr Qubit kQubits = 8;
  Package p{kQubits};
  // Two identical sums of random basis states: the second run hits the
  // compute table where the first filled it, and must land on the same node
  // with the bit-identical weight.
  const auto sumOf = [&](std::uint64_t seed) {
    Xoshiro256 rng{seed};
    vEdge acc = p.makeBasisState(0);
    for (int step = 0; step < 64; ++step) {
      const auto bits = static_cast<Index>(rng() & 0xffu);
      acc = p.add(acc, p.makeBasisState(bits), kQubits - 1);
    }
    return acc;
  };
  const vEdge a = sumOf(1234);
  const vEdge b = sumOf(1234);
  EXPECT_TRUE(p.checkCanonical());
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.w, b.w);
}

TEST(Package, SimulationKeepsStateCanonicalAndNormalized) {
  const qc::Circuit circuit = circuits::randomUniversal(11, 200, 29);
  sim::DDSimulator sim{circuit.numQubits()};
  sim.simulate(circuit);
  EXPECT_TRUE(sim.package().checkCanonical());
  const Complex norm = sim.package().innerProduct(sim.state(), sim.state());
  EXPECT_NEAR(norm.real(), 1.0, 1e-9);
  EXPECT_NEAR(norm.imag(), 0.0, 1e-9);
}

TEST(Package, RefcountsBalanceAndTerminalsStaySaturated) {
  Package p{6};
  const vEdge e = p.makeBasisState(13);
  p.incRef(e);
  const std::uint32_t before = e.n->ref;
  for (int i = 0; i < 1000; ++i) {
    p.incRef(e);
  }
  EXPECT_EQ(e.n->ref, before + 1000);
  for (int i = 0; i < 1000; ++i) {
    p.decRef(e);
  }
  EXPECT_EQ(e.n->ref, before);
  // Terminals are shared by every package: their count is saturated and
  // never written.
  const vEdge terminal{vNode::terminal(), Complex{1.0}};
  p.incRef(terminal);
  p.decRef(terminal);
  p.decRef(terminal);
  EXPECT_EQ(vNode::terminal()->ref, kRefSaturated);
}

TEST(Package, ForcedGcReclaimsADeepDdInOneSweep) {
  constexpr Qubit kQubits = 32;
  constexpr std::size_t kMinBuckets = UniqueTable<vNode>::kMinBuckets;
  Package p{kQubits};
  // Residents on every level of both tables (|0...0> and the cached identity
  // chain) keep every level non-empty, so a second pass over the tables
  // would show in the bucket visits.
  const vEdge resident = p.makeZeroState();
  p.incRef(resident);
  (void)p.makeIdent(kQubits - 1);
  p.garbageCollect(true);
  const PackageStats base = p.stats();

  const vEdge basis = p.makeBasisState(0xdeadbeefULL);
  p.incRef(basis);
  const std::vector<Qubit> controls{3, 18, 30};  // all set: H acts
  const mEdge gate = p.makeGateDD(qc::gateMatrix(qc::GateKind::H, {}), 9,
                                  controls);
  p.incRef(gate);
  const vEdge product = p.multiply(gate, basis);
  p.incRef(product);
  EXPECT_EQ(p.nodeCount(product), static_cast<std::size_t>(kQubits));
  p.decRef(product);
  p.decRef(gate);
  p.decRef(basis);

  const PackageStats before = p.stats();
  const std::size_t garbage = before.vNodesLive + before.mNodesLive -
                              base.vNodesLive - base.mNodesLive;
  ASSERT_GE(garbage, 2 * static_cast<std::size_t>(kQubits));
  p.garbageCollect(true);
  const PackageStats after = p.stats();

  // Every unreferenced node goes in one call, the residents stay.
  EXPECT_EQ(after.vNodesLive, base.vNodesLive);
  EXPECT_EQ(after.mNodesLive, base.mNodesLive);
  EXPECT_EQ(after.gcCollected - before.gcCollected, garbage);
  // One sweep: no bucket is scanned twice (a bottom-up fixpoint needs one
  // pass per level of the dead chain)...
  const std::size_t visits = after.gcBucketVisits - before.gcBucketVisits;
  EXPECT_LE(visits, before.uniqueBuckets);
  // ...and the tables it sweeps are sized by their nodes, not preallocated.
  const std::size_t nodes = before.vNodesLive + before.mNodesLive;
  EXPECT_LE(visits, 2 * nodes + 2 * kQubits * kMinBuckets);
  EXPECT_TRUE(p.checkCanonical());
  EXPECT_NEAR(std::abs(p.getAmplitude(resident, 0) - Complex{1.0}), 0.0,
              1e-12);
}

TEST(Package, UniqueTableGrowsAndShrinksWithItsNodes) {
  constexpr Qubit kQubits = 15;
  constexpr std::size_t kMinBuckets = UniqueTable<vNode>::kMinBuckets;
  const test::DenseVector amps = test::randomState(kQubits, 515);
  Package p{kQubits};
  const PackageStats empty = p.stats();
  EXPECT_EQ(empty.uniqueBuckets, 2 * kQubits * kMinBuckets);

  // A random state has no shared sub-vectors: 2^14 nodes on level 0 alone,
  // which takes that level's buckets through eight doublings.
  const vEdge state = p.fromArray(amps);
  p.incRef(state);
  const PackageStats grown = p.stats();
  const std::size_t nodes = p.nodeCount(state);
  EXPECT_EQ(nodes, (std::size_t{1} << kQubits) - 1);
  EXPECT_EQ(grown.vNodesLive, nodes);
  EXPECT_GE(grown.uniqueBuckets, std::size_t{1} << (kQubits - 1));
  EXPECT_TRUE(p.checkCanonical());
  const auto expectAmplitudes = [&](const vEdge& s) {
    const AlignedVector<Complex> flat = p.toArray(s);
    for (std::size_t i = 0; i < amps.size(); ++i) {
      ASSERT_NEAR(std::abs(flat[i] - amps[i]), 0.0, 1e-9) << "amplitude " << i;
    }
  };
  expectAmplitudes(state);

  // Refcounts balance: dropping the root frees every node, and the emptied
  // levels shrink back to their initial buckets.
  EXPECT_EQ(state.n->ref, 1u);
  p.decRef(state);
  p.garbageCollect(true);
  EXPECT_EQ(p.stats().vNodesLive, 0u);
  EXPECT_EQ(p.stats().uniqueBuckets, empty.uniqueBuckets);

  // Rebuilding through the shrunk tables gives the same DD.
  const vEdge rebuilt = p.fromArray(amps);
  p.incRef(rebuilt);
  EXPECT_EQ(p.nodeCount(rebuilt), nodes);
  EXPECT_EQ(p.stats().vNodesLive, nodes);
  EXPECT_TRUE(p.checkCanonical());
  expectAmplitudes(rebuilt);
}

TEST(Package, ConstructionDoesNotPreallocateTables) {
  // Tables grow with use: a wide package starts small (it used to zero-fill
  // about 8 MB of buckets and compute-table slots up front).
  EXPECT_LT(Package{30}.stats().memoryBytes, std::size_t{1} << 20);
}

TEST(Package, SmallRunHoldsSmallTables) {
  // Node chunks, compute-table slots and complex-table heads all grow with
  // what they hold. A GHZ-16 run (167 peak nodes) ends at 65,472 bytes; with
  // 4096-node chunks, 2^14-slot compute tables and 2^15 complex-table heads
  // allocated up front it held 1,688,768.
  sim::DDSimulator sim{16};
  sim.simulate(circuits::ghz(16));
  EXPECT_LT(sim.package().stats().memoryBytes, std::size_t{128} << 10);
}

TEST(ComputeTable, LookupNeverReturnsAnotherKeysResult) {
  // A 256-slot table holding 4096 keys: most inserts evict a colliding key.
  // Keys and results encode the same integer, so a lookup that served
  // another key's slot shows up as a mismatch.
  using Key = MulKey<mNode, vNode>;
  ComputeTable<Key, vEdge, 8> table;
  const auto keyOf = [](std::uintptr_t id) {
    return Key{reinterpret_cast<const mNode*>(id << 4),
               reinterpret_cast<const vNode*>(id << 8)};
  };
  Xoshiro256 rng{977};
  std::size_t served = 0;
  for (int iter = 0; iter < 200'000; ++iter) {
    const std::uintptr_t id = (rng() % 4096) + 1;
    if ((iter & 3) == 0) {
      table.insert(keyOf(id), vEdge{reinterpret_cast<vNode*>(id << 12),
                                    Complex(static_cast<fp>(id), -1.0)});
      continue;
    }
    if (vEdge out; table.lookup(keyOf(id), out)) {
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(out.n), id << 12);
      ASSERT_EQ(out.w, Complex(static_cast<fp>(id), -1.0));
      ++served;
    }
  }
  EXPECT_GT(served, 1'000u);
  EXPECT_EQ(table.hits(), served);
  EXPECT_EQ(table.hits() + table.misses(), 150'000u);
  table.flush();
  vEdge out;
  EXPECT_FALSE(table.lookup(keyOf(1), out));
}

TEST(ComputeTable, NoEntryHitsAfterAFlush) {
  // 512 keys over 256 slots, so stale and fresh entries collide. Every
  // round writes a batch, flushes, and must then miss on the whole batch —
  // also once fresh inserts have overwritten some of the stale slots.
  using Key = MulKey<mNode, vNode>;
  ComputeTable<Key, vEdge, 8> table;
  const auto keyOf = [](std::uintptr_t id) {
    return Key{reinterpret_cast<const mNode*>(id << 4),
               reinterpret_cast<const vNode*>(id << 8)};
  };
  const auto resultOf = [](std::uintptr_t id, int round) {
    return vEdge{reinterpret_cast<vNode*>(id << 12),
                 Complex(static_cast<fp>(id), static_cast<fp>(round))};
  };
  Xoshiro256 rng{31337};
  std::vector<std::uintptr_t> batch(96);
  for (int round = 0; round < 2'000; ++round) {
    for (auto& id : batch) {
      id = (rng() % 512) + 1;
      table.insert(keyOf(id), resultOf(id, round));
    }
    table.flush();
    vEdge out;
    for (const std::uintptr_t id : batch) {
      ASSERT_FALSE(table.lookup(keyOf(id), out)) << "round " << round;
    }
    const std::uintptr_t fresh = (rng() % 512) + 1;
    table.insert(keyOf(fresh), resultOf(fresh, -round));
    for (const std::uintptr_t id : batch) {
      if (id != fresh) {
        ASSERT_FALSE(table.lookup(keyOf(id), out)) << "round " << round;
      }
    }
    ASSERT_TRUE(table.lookup(keyOf(fresh), out));
    ASSERT_EQ(out, resultOf(fresh, -round));
  }
}

TEST(ComputeTable, GrowsWithItsInsertsUpToTheCapAndServesOnlyLiveEntries) {
  // 5,000 keys through a table capped at 2^14 slots, with a flush every
  // 3,001 steps, so most growths find flushed entries to drop. A reference
  // map holds the last result inserted for each key since the last flush:
  // every hit must return exactly that, across each growth (which rehashes
  // live entries) and each flush.
  using Key = MulKey<mNode, vNode>;
  using Table = ComputeTable<Key, vEdge>;
  static_assert(Table::kMaxSlots == std::size_t{1} << 14);
  Table table;
  const auto keyOf = [](std::uintptr_t id) {
    return Key{reinterpret_cast<const mNode*>(id << 4),
               reinterpret_cast<const vNode*>(id << 8)};
  };
  const auto resultOf = [](std::uintptr_t id, int step) {
    return vEdge{reinterpret_cast<vNode*>(id << 12),
                 Complex(static_cast<fp>(id), static_cast<fp>(step))};
  };
  std::unordered_map<std::uintptr_t, vEdge> live;
  std::vector<std::size_t> sizes{table.slotCount()};
  Xoshiro256 rng{4242};
  std::size_t inserts = 0;
  std::size_t served = 0;
  for (int step = 0; step < 400'000; ++step) {
    if (step % 3'001 == 3'000) {
      table.flush();
      live.clear();
    }
    const std::uintptr_t id = (rng() % 5'000) + 1;
    if ((rng() & 1U) != 0) {
      table.insert(keyOf(id), resultOf(id, step));
      live[id] = resultOf(id, step);
      ++inserts;
    } else if (vEdge out; table.lookup(keyOf(id), out)) {
      const auto it = live.find(id);
      ASSERT_NE(it, live.end()) << "stale hit at step " << step;
      ASSERT_EQ(out, it->second) << "wrong hit at step " << step;
      ++served;
    }
    if (table.slotCount() != sizes.back()) {
      sizes.push_back(table.slotCount());
      // Doubles once the inserts since the last growth exceed its slots.
      ASSERT_LE(inserts, 2 * table.slotCount()) << "grew late";
      if (table.slotCount() > Table::kMinSlots) {
        ASSERT_GE(2 * inserts, table.slotCount()) << "grew early";
      }
    }
    ASSERT_LE(table.slotCount(), Table::kMaxSlots);
  }
  EXPECT_GT(served, 10'000u);
  // 0, then kMinSlots, then one doubling per step up to the cap.
  ASSERT_GE(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 0u);
  EXPECT_EQ(sizes[1], Table::kMinSlots);
  for (std::size_t i = 2; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], 2 * sizes[i - 1]);
  }
  EXPECT_EQ(sizes.back(), Table::kMaxSlots);
}

TEST(ComputeTable, UnusedTableHoldsNoSlots) {
  ComputeTable<AddKey<vNode>, vEdge> table;
  vEdge out;
  EXPECT_FALSE(table.lookup(AddKey<vNode>{vEdge::one(), vEdge::one()}, out));
  table.flush();
  EXPECT_EQ(table.memoryBytes(), 0u);
  table.insert(AddKey<vNode>{vEdge::one(), vEdge::one()}, vEdge::one());
  EXPECT_GT(table.memoryBytes(), 0u);
  EXPECT_TRUE(table.lookup(AddKey<vNode>{vEdge::one(), vEdge::one()}, out));
}

}  // namespace
}  // namespace fdd::dd
