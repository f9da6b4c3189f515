// DMAV plan compiler: op-stream taxonomy (diagonal gates lower to DiagScale,
// permutations to PermuteCopy), replay equivalence with the recursive path,
// balanced block packing, the LRU plan cache, and generation-based
// invalidation against node recycling.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "dd/package.hpp"
#include "flatdd/dmav_plan.hpp"
#include "flatdd/plan_cache.hpp"
#include "helpers.hpp"
#include "parallel/thread_pool.hpp"

namespace fdd::flat {
namespace {

AlignedVector<Complex> replayRow(const DmavPlan& plan,
                                 const test::DenseVector& v) {
  AlignedVector<Complex> in(v.begin(), v.end());
  AlignedVector<Complex> out(v.size());
  replayPlan(plan, in, out);
  return out;
}

// ---------------------------------------------------------------------------
// Op taxonomy
// ---------------------------------------------------------------------------

TEST(DmavPlan, DiagonalGatesLowerToDiagScale) {
  // RZ, T, CZ, CP are diagonal matrices: every output row depends on exactly
  // the same input row, so the compiler must prove exclusivity and emit only
  // DiagScale ops — no accumulating MacSpan and no zero-fill at all.
  const Qubit n = 6;
  const std::vector<qc::Operation> diagonalGates = {
      {qc::GateKind::RZ, 2, {}, {0.37}},
      {qc::GateKind::T, 0, {}, {}},
      {qc::GateKind::Z, 4, {1}, {}},          // CZ
      {qc::GateKind::P, 3, {5}, {1.1}},       // CP
  };
  for (const auto& op : diagonalGates) {
    dd::Package p{n};
    const dd::mEdge m = p.makeGateDD(op);
    for (const unsigned threads : {1u, 4u}) {
      const DmavPlan plan =
          compileDmavPlan(m, n, threads, PlanMode::Row, &p);
      EXPECT_GT(plan.opCount(SpanOpKind::DiagScale), 0u)
          << op.toString() << " t=" << threads;
      EXPECT_EQ(plan.opCount(SpanOpKind::MacSpan), 0u);
      EXPECT_EQ(plan.opCount(SpanOpKind::PermuteCopy), 0u);
      EXPECT_TRUE(plan.fullyExclusive());
      for (const PlanBlock& block : plan.blocks) {
        for (const SpanOp& sop : block.ops) {
          EXPECT_EQ(sop.iv, sop.iw);  // diagonal: input row == output row
        }
      }
      const auto v = test::randomState(n, 91);
      EXPECT_STATE_NEAR(replayRow(plan, v),
                        test::denseApply(test::denseOperator(op, n), v),
                        1e-12);
    }
  }
}

TEST(DmavPlan, PermutationGatesLowerToPermuteCopy) {
  const Qubit n = 6;
  const std::vector<qc::Operation> permutations = {
      {qc::GateKind::X, n - 1, {}, {}},  // X on the top qubit
      {qc::GateKind::X, 0, {}, {}},      // X on the bottom qubit
  };
  for (const auto& op : permutations) {
    dd::Package p{n};
    const dd::mEdge m = p.makeGateDD(op);
    const DmavPlan plan = compileDmavPlan(m, n, 2, PlanMode::Row, &p);
    EXPECT_GT(plan.opCount(SpanOpKind::PermuteCopy), 0u);
    EXPECT_EQ(plan.opCount(SpanOpKind::MacSpan), 0u);
    EXPECT_TRUE(plan.fullyExclusive());
    const auto v = test::randomState(n, 92);
    EXPECT_STATE_NEAR(replayRow(plan, v),
                      test::denseApply(test::denseOperator(op, n), v),
                      1e-12);
  }
}

TEST(DmavPlan, HadamardKeepsAccumulatingOps) {
  // H mixes two input rows into each output row: outputs overlap, so the
  // ops stay accumulating and the block is zero-filled before replay.
  const Qubit n = 6;
  dd::Package p{n};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::H, 0, {}, {}});
  const DmavPlan plan = compileDmavPlan(m, n, 2, PlanMode::Row, &p);
  EXPECT_FALSE(plan.fullyExclusive());
  EXPECT_GT(plan.opCount(SpanOpKind::MacSpan) +
                plan.opCount(SpanOpKind::IdentScale) +
                plan.opCount(SpanOpKind::Mac2Span),
            0u);
  for (const PlanBlock& block : plan.blocks) {
    ASSERT_FALSE(block.zeroSpans.empty());
    EXPECT_EQ(block.zeroSpans.front().begin, block.rowBegin);
    EXPECT_EQ(block.zeroSpans.front().len, block.rows);
  }
}

TEST(DmavPlan, LowQubitDiagonalCollapsesToStridedCombs) {
  // RZ(q0) alternates two coefficients per amplitude. Without the strided
  // collapse the plan would hold one len-1 DiagScale per row (O(2^n) ops);
  // with it every block is two comb ops of stride 2.
  const Qubit n = 10;
  dd::Package p{n};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::RZ, 0, {}, {0.41}});
  const DmavPlan plan = compileDmavPlan(m, n, 2, PlanMode::Row, &p);
  EXPECT_TRUE(plan.fullyExclusive());
  EXPECT_EQ(plan.opCount(), 2 * plan.blocks.size());
  for (const PlanBlock& block : plan.blocks) {
    for (const SpanOp& sop : block.ops) {
      EXPECT_EQ(sop.kind, SpanOpKind::DiagScale);
      EXPECT_GT(sop.count, 1u);
      EXPECT_EQ(sop.len, 1u);
      EXPECT_EQ(sop.stride, 2u);
    }
  }
  const auto v = test::randomState(n, 95);
  EXPECT_STATE_NEAR(
      replayRow(plan, v),
      test::denseApply(
          test::denseOperator({qc::GateKind::RZ, 0, {}, {0.41}}, n), v),
      1e-12);
}

TEST(DmavPlan, LowQubitHadamardFusesAndCollapsesToMac2Combs) {
  // H(q0): each output amplitude is a two-term MAC of the adjacent input
  // pair. The fuse pass pairs the per-output accumulates into Mac2Span and
  // the collapse pass turns the alternating combs into two strided ops per
  // block.
  const Qubit n = 10;
  dd::Package p{n};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::H, 0, {}, {}});
  const DmavPlan plan = compileDmavPlan(m, n, 2, PlanMode::Row, &p);
  EXPECT_GT(plan.opCount(SpanOpKind::Mac2Span), 0u);
  EXPECT_EQ(plan.opCount(), plan.opCount(SpanOpKind::Mac2Span));
  EXPECT_EQ(plan.opCount(), 2 * plan.blocks.size());
  const auto v = test::randomState(n, 96);
  EXPECT_STATE_NEAR(
      replayRow(plan, v),
      test::denseApply(test::denseOperator({qc::GateKind::H, 0, {}, {}}, n),
                       v),
      1e-12);
}

TEST(DmavPlan, HighQubitHadamardFusesToTwoMac2SpansPerBlock) {
  // H on the top qubit: e0/e1 (and e2/e3) subtrees write the same output
  // half, so after fusion each half is one giant Mac2Span reading both input
  // halves.
  const Qubit n = 8;
  dd::Package p{n};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::H, n - 1, {}, {}});
  const DmavPlan plan = compileDmavPlan(m, n, 1, PlanMode::Row, &p);
  EXPECT_GT(plan.opCount(SpanOpKind::Mac2Span), 0u);
  EXPECT_EQ(plan.opCount(SpanOpKind::MacSpan), 0u);
  EXPECT_EQ(plan.opCount(SpanOpKind::IdentScale), 0u);
  const auto v = test::randomState(n, 97);
  EXPECT_STATE_NEAR(
      replayRow(plan, v),
      test::denseApply(
          test::denseOperator({qc::GateKind::H, n - 1, {}, {}}, n), v),
      1e-12);
}

TEST(DmavPlan, LowQubitPermutationCollapsesToStridedCombs) {
  // X(q0) swaps adjacent amplitudes: two interleaved PermuteCopy combs per
  // block, input offset one off the output offset.
  const Qubit n = 10;
  dd::Package p{n};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::X, 0, {}, {}});
  const DmavPlan plan = compileDmavPlan(m, n, 2, PlanMode::Row, &p);
  EXPECT_TRUE(plan.fullyExclusive());
  EXPECT_EQ(plan.opCount(), 2 * plan.blocks.size());
  for (const PlanBlock& block : plan.blocks) {
    for (const SpanOp& sop : block.ops) {
      EXPECT_EQ(sop.kind, SpanOpKind::PermuteCopy);
      EXPECT_GT(sop.count, 1u);
      EXPECT_EQ(sop.stride, 2u);
    }
  }
  const auto v = test::randomState(n, 98);
  EXPECT_STATE_NEAR(
      replayRow(plan, v),
      test::denseApply(test::denseOperator({qc::GateKind::X, 0, {}, {}}, n),
                       v),
      1e-12);
}

TEST(DmavPlan, OpsPerBlockDoNotGrowWithQubitCount) {
  // The levels where a gate acts as the identity lower to combs, not to
  // one op per DD path: a block's op count depends on the gate's active
  // qubits only. Checked at the top band (RY(q0), H(q1), CX(0->1),
  // CX(1->0), CCX) and across a gap band (CX from the top qubit to q0).
  const auto gatesAt = [](Qubit n) {
    return std::vector<std::pair<const char*, qc::Operation>>{
        {"ry_q0", {qc::GateKind::RY, 0, {}, {0.7}}},
        {"h_q1", {qc::GateKind::H, 1, {}, {}}},
        {"cx_c0_t1", {qc::GateKind::X, 1, {0}, {}}},
        {"cx_c1_t0", {qc::GateKind::X, 0, {1}, {}}},
        {"cx_top_t0", {qc::GateKind::X, 0, {n - 1}, {}}},
        {"ccx_c01_t2", {qc::GateKind::X, 2, {0, 1}, {}}},
    };
  };
  for (std::size_t g = 0; g < gatesAt(8).size(); ++g) {
    const char* name = gatesAt(8)[g].first;
    for (const unsigned threads : {1u, 4u}) {
      std::vector<std::pair<std::size_t, double>> shapes;  // (max, mean)
      for (const Qubit n : {8, 12, 16, 20}) {
        const qc::Operation op = gatesAt(n)[g].second;
        dd::Package p{n};
        const DmavPlan plan = compileDmavPlan(p.makeGateDD(op), n, threads,
                                              PlanMode::Row, &p);
        ASSERT_EQ(plan.denseK, 0u) << name;
        std::size_t most = 0;
        for (const PlanBlock& block : plan.blocks) {
          most = std::max(most, block.ops.size());
        }
        shapes.emplace_back(most, static_cast<double>(plan.opCount()) /
                                      static_cast<double>(plan.blocks.size()));
        if (n == 8) {
          const auto v = test::randomState(n, 99);
          EXPECT_STATE_NEAR(replayRow(plan, v),
                            test::denseApply(test::denseOperator(op, n), v),
                            1e-12)
              << name << " t=" << threads;
        }
      }
      for (const auto& shape : shapes) {
        EXPECT_EQ(shape, shapes.front()) << name << " t=" << threads;
      }
      EXPECT_LE(shapes.front().first, 4u) << name << " t=" << threads;
    }
  }
}

TEST(DmavPlan, IdentFastPathFlagIsBakedIn) {
  const Qubit n = 6;
  dd::Package p{n};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::X, 0, {n - 1}, {}});  // CX
  const DmavPlan withIdent = compileDmavPlan(m, n, 1, PlanMode::Row, &p);
  setIdentFastPath(false);
  const DmavPlan without = compileDmavPlan(m, n, 1, PlanMode::Row, &p);
  setIdentFastPath(true);
  EXPECT_TRUE(withIdent.identFast);
  EXPECT_FALSE(without.identFast);
  // Without the fast path the identity subtree is expanded into per-row
  // ops, but merging rebuilds contiguous spans: both replays must agree.
  const auto v = test::randomState(n, 93);
  const auto a = replayRow(withIdent, v);
  const auto b = replayRow(without, v);
  EXPECT_STATE_NEAR(a, b, 1e-14);
}

// ---------------------------------------------------------------------------
// Balanced replay
// ---------------------------------------------------------------------------

TEST(DmavPlan, BlocksAreSplitFinerThanThreadsAndPackedOnce) {
  const Qubit n = 8;  // dim 256: t=4 -> split 2 (min block rows 32)
  dd::Package p{n};
  const auto circuit = circuits::supremacy(n, 4, 5);
  const dd::mEdge m = p.makeGateDD(circuit.operations().front());
  const DmavPlan plan = compileDmavPlan(m, n, 4, PlanMode::Row, &p);
  EXPECT_EQ(plan.threads, 4u);
  EXPECT_EQ(plan.blocks.size(), 8u);  // 4 threads x split 2
  // Every block is assigned to exactly one thread.
  std::vector<int> seen(plan.blocks.size(), 0);
  for (const auto& ids : plan.blocksOf) {
    for (const std::uint32_t id : ids) {
      ASSERT_LT(id, plan.blocks.size());
      ++seen[id];
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
  // Blocks tile the row space and ops (including comb repetitions) stay
  // inside their block.
  for (const PlanBlock& block : plan.blocks) {
    for (const SpanOp& sop : block.ops) {
      EXPECT_GE(sop.iw, block.rowBegin);
      EXPECT_LE(sop.extent(), block.rowBegin + block.rows);
    }
  }
}

TEST(DmavPlan, SiblingsSharingOutputRowsStayAccumulating) {
  // U = CX(c=0, t=top) * H(q): inside the H node, the e0 and e1 children
  // each write half of the node's rows, and the same half (U's other rows
  // take their input from columns outside the node). In a cached-mode
  // column block the row count then matches the block, so only the
  // explicit span check shows that the two children write the same
  // amplitudes; with q > 1 the spans are combs of equal stride.
  for (const auto& [n, q] : {std::pair<Qubit, Qubit>{3, 1}, {6, 3}}) {
    dd::Package p{n};
    const qc::Operation h{qc::GateKind::H, q, {}, {}};
    const qc::Operation cx{qc::GateKind::X, n - 1, {0}, {}};
    const dd::mEdge m = p.multiply(p.makeGateDD(cx), p.makeGateDD(h));
    const auto v = test::randomState(n, 90);
    const auto ref = test::denseApply(
        test::denseOperator(cx, n),
        test::denseApply(test::denseOperator(h, n), v));
    AlignedVector<Complex> in(v.begin(), v.end());
    AlignedVector<Complex> out(v.size());
    DmavWorkspace ws;
    for (const unsigned threads : {1u, 2u}) {
      const DmavPlan row = compileDmavPlan(m, n, threads, PlanMode::Row, &p);
      EXPECT_FALSE(row.fullyExclusive()) << "n=" << n;
      EXPECT_STATE_NEAR(replayRow(row, v), ref, 1e-12)
          << "row n=" << n << " t=" << threads;
      const DmavPlan cached =
          compileDmavPlan(m, n, threads, PlanMode::Cached, &p);
      replayPlanCached(cached, in, out, ws);
      EXPECT_STATE_NEAR(out, ref, 1e-12)
          << "cached n=" << n << " t=" << threads;
    }
  }
}

TEST(DmavPlan, ReplayMatchesRecursiveOnIrregularCircuit) {
  const Qubit n = 7;
  dd::Package p{n};
  AlignedVector<Complex> v1(Index{1} << n, Complex{});
  v1[0] = Complex{1.0};
  AlignedVector<Complex> v2 = v1;
  AlignedVector<Complex> w1(v1.size());
  AlignedVector<Complex> w2(v1.size());
  for (const auto& op : circuits::supremacy(n, 6, 17)) {
    const dd::mEdge m = p.makeGateDD(op);
    const DmavPlan plan = compileDmavPlan(m, n, 4, PlanMode::Row, &p);
    replayPlan(plan, v1, w1);
    dmavRecursive(m, n, v2, w2, 4);
    std::swap(v1, w1);
    std::swap(v2, w2);
  }
  EXPECT_STATE_NEAR(v1, v2, 1e-12);
}

TEST(DmavPlan, ReplaySurvivesShrunkenPool) {
  // A plan compiled for 8 threads must still replay correctly when the pool
  // has fewer workers (oversubscribed run() distributes the indices).
  const Qubit n = 6;
  dd::Package p{n};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::H, 3, {}, {}});
  const DmavPlan plan = compileDmavPlan(m, n, 8, PlanMode::Row, &p);
  EXPECT_EQ(plan.threads, 8u);
  par::resizePool(2);
  const auto v = test::randomState(n, 94);
  const auto out = replayRow(plan, v);
  par::resizePool(16);
  EXPECT_STATE_NEAR(
      out,
      test::denseApply(test::denseOperator({qc::GateKind::H, 3, {}, {}}, n),
                       v),
      1e-12);
}

// ---------------------------------------------------------------------------
// Cached (column-space) plans
// ---------------------------------------------------------------------------

TEST(DmavPlan, CachedPlanEmitsBlockScaleForRepeats) {
  // H on the top qubit: both tasks of a thread share the sub-matrix node, so
  // the compiled program must contain BlockScale ops (compile-time Alg. 2
  // hits) and replay must agree with the dense reference.
  const Qubit n = 8;
  dd::Package p{n};
  const qc::Operation op{qc::GateKind::H, n - 1, {}, {}};
  const dd::mEdge m = p.makeGateDD(op);
  const DmavPlan plan = compileDmavPlan(m, n, 4, PlanMode::Cached, &p);
  EXPECT_GT(plan.cacheHits, 0u);
  EXPECT_EQ(plan.opCount(SpanOpKind::BlockScale), plan.cacheHits);
  AlignedVector<Complex> in(Index{1} << n);
  const auto v = test::randomState(n, 95);
  std::copy(v.begin(), v.end(), in.begin());
  AlignedVector<Complex> out(in.size());
  DmavWorkspace ws;
  const DmavCacheStats s = replayPlanCached(plan, in, out, ws);
  EXPECT_EQ(s.cacheHits, plan.cacheHits);
  EXPECT_EQ(s.buffers, plan.numBuffers);
  EXPECT_STATE_NEAR(out, test::denseApply(test::denseOperator(op, n), v),
                    1e-12);
}

TEST(DmavPlan, CachedPlanMatchesRecursiveCachedPath) {
  const Qubit n = 7;
  dd::Package p{n};
  DmavWorkspace ws1;
  DmavWorkspace ws2;
  AlignedVector<Complex> v1(Index{1} << n, Complex{});
  v1[0] = Complex{1.0};
  AlignedVector<Complex> v2 = v1;
  AlignedVector<Complex> w1(v1.size());
  AlignedVector<Complex> w2(v1.size());
  for (const auto& op : circuits::qft(n, 3)) {
    const dd::mEdge m = p.makeGateDD(op);
    const DmavPlan plan = compileDmavPlan(m, n, 4, PlanMode::Cached, &p);
    const DmavCacheStats a = replayPlanCached(plan, v1, w1, ws1);
    const DmavCacheStats b = dmavCachedRecursive(m, n, v2, w2, 4, ws2);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.buffers, b.buffers);
    std::swap(v1, w1);
    std::swap(v2, w2);
  }
  EXPECT_STATE_NEAR(v1, v2, 1e-12);
}

// ---------------------------------------------------------------------------
// Fused diagonal runs (DiagRun)
// ---------------------------------------------------------------------------

std::vector<qc::Operation> randomDiagonalOps(Qubit n, std::size_t count,
                                             std::uint64_t seed) {
  Xoshiro256 rng{seed};
  std::vector<qc::Operation> ops;
  ops.reserve(count);
  for (std::size_t g = 0; g < count; ++g) {
    const Qubit q = static_cast<Qubit>(rng.below(n));
    switch (rng.below(5)) {
      case 0:
        ops.push_back({qc::GateKind::RZ, q, {}, {rng.uniform(-3, 3)}});
        break;
      case 1:
        ops.push_back({qc::GateKind::T, q, {}, {}});
        break;
      case 2:
        ops.push_back({qc::GateKind::S, q, {}, {}});
        break;
      case 3: {  // CZ
        const Qubit c = static_cast<Qubit>((q + 1 + rng.below(n - 1)) % n);
        ops.push_back({qc::GateKind::Z, q, {c}, {}});
        break;
      }
      default: {  // CP
        const Qubit c = static_cast<Qubit>((q + 1 + rng.below(n - 1)) % n);
        ops.push_back({qc::GateKind::P, q, {c}, {rng.uniform(-3, 3)}});
        break;
      }
    }
  }
  return ops;
}

TEST(DiagRunPlan, EveryGateIsDetectedDiagonal) {
  const Qubit n = 6;
  dd::Package p{n};
  for (const auto& op : randomDiagonalOps(n, 32, 41)) {
    EXPECT_TRUE(isDiagonalGateDD(p.makeGateDD(op))) << op.toString();
  }
  EXPECT_FALSE(isDiagonalGateDD(p.makeGateDD({qc::GateKind::H, 2, {}, {}})));
  EXPECT_FALSE(isDiagonalGateDD(p.makeGateDD({qc::GateKind::X, 0, {}, {}})));
  EXPECT_FALSE(
      isDiagonalGateDD(p.makeGateDD({qc::GateKind::X, 0, {3}, {}})));  // CX
}

TEST(DiagRunPlan, FusedRunMatchesSequentialRecursive) {
  // k diagonal gates collapse into one pointwise sweep; the fused replay
  // must match applying the gates one by one through dmavRecursive.
  const Qubit n = 7;
  for (const std::size_t k : {2u, 5u, 17u}) {
    for (const unsigned threads : {1u, 4u}) {
      dd::Package p{n};
      std::vector<dd::mEdge> run;
      for (const auto& op : randomDiagonalOps(n, k, 100 + k + threads)) {
        run.push_back(p.makeGateDD(op));
        p.incRef(run.back());
      }
      const DmavPlan plan = compileDiagRunPlan(run, n, threads, &p);
      EXPECT_EQ(plan.fusedGates, k);
      EXPECT_EQ(plan.extraRoots.size(), k - 1);
      EXPECT_EQ(plan.diag.size(), Index{1} << n);
      EXPECT_TRUE(plan.fullyExclusive());
      EXPECT_EQ(plan.opCount(), plan.opCount(SpanOpKind::DiagRun));
      EXPECT_GT(plan.opCount(SpanOpKind::DiagRun), 0u);

      const auto v = test::randomState(n, 200 + k);
      AlignedVector<Complex> v1(v.begin(), v.end());
      AlignedVector<Complex> w1(v1.size());
      replayPlan(plan, v1, w1);

      AlignedVector<Complex> v2(v.begin(), v.end());
      AlignedVector<Complex> w2(v2.size());
      for (const dd::mEdge& m : run) {
        dmavRecursive(m, n, v2, w2, threads);
        std::swap(v2, w2);
      }
      EXPECT_STATE_NEAR(w1, v2, 1e-12);
      for (const dd::mEdge& m : run) {
        p.decRef(m);
      }
    }
  }
}

TEST(PlanCacheTest, RunKeyedEntriesHitAndPinAllRoots) {
  const Qubit n = 6;
  dd::Package p{n};
  PlanCache cache{8};
  std::vector<dd::mEdge> run;
  for (const auto& op : randomDiagonalOps(n, 3, 7)) {
    run.push_back(p.makeGateDD(op));
    p.incRef(run.back());
  }
  bool hit = true;
  const auto plan = cache.getSharedRun(p, run, n, 2, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(plan->fusedGates, 3u);
  const auto again = cache.getSharedRun(p, run, n, 2, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(plan.get(), again.get());
  // A shorter prefix of the same run is a different plan, not a hit.
  (void)cache.getSharedRun(p, std::span{run.data(), 2}, n, 2, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);

  // The cache pinned every gate root of the fused run: after dropping our
  // own references and collecting, the entry must still replay correctly.
  for (const dd::mEdge& m : run) {
    p.decRef(m);
  }
  p.garbageCollect(true);
  const auto pinned = cache.getSharedRun(p, run, n, 2, &hit);
  EXPECT_TRUE(hit);
  const auto v = test::randomState(n, 77);
  AlignedVector<Complex> in(v.begin(), v.end());
  AlignedVector<Complex> out(in.size());
  replayPlan(*pinned, in, out);
  test::DenseVector want = v;
  for (const dd::mEdge& m : run) {
    AlignedVector<Complex> v2(want.begin(), want.end());
    AlignedVector<Complex> w2(v2.size());
    dmavRecursive(m, n, v2, w2, 1);
    want.assign(w2.begin(), w2.end());
  }
  EXPECT_STATE_NEAR(out, want, 1e-12);
  cache.clear();
}

// ---------------------------------------------------------------------------
// In-place single-target plans
// ---------------------------------------------------------------------------

/// Eq. 2-3 straight from the definition: u on every amplitude pair whose
/// controls all read 1.
test::DenseVector applyPairs(const qc::Operation& op, test::DenseVector v) {
  const qc::Matrix2 u = op.matrix();
  Index controlMask = 0;
  for (const Qubit c : op.controls) {
    controlMask |= Index{1} << c;
  }
  const Index tBit = Index{1} << op.target;
  for (Index i = 0; i < v.size(); ++i) {
    if ((i & tBit) == 0 && (i & controlMask) == controlMask) {
      const Complex a0 = v[i];
      const Complex a1 = v[i | tBit];
      v[i] = u[0] * a0 + u[1] * a1;
      v[i | tBit] = u[2] * a0 + u[3] * a1;
    }
  }
  return v;
}

/// Control sets for `target`: none, one above, one below, two above, two
/// below, one on each side (those the register has room for).
std::vector<std::vector<Qubit>> controlSets(Qubit n, Qubit target) {
  std::vector<Qubit> above;
  std::vector<Qubit> below;
  for (Qubit q = target + 1; q < n; ++q) {
    above.push_back(q);
  }
  for (Qubit q = target - 1; q >= 0; --q) {
    below.push_back(q);
  }
  std::vector<std::vector<Qubit>> sets{{}};
  if (!above.empty()) {
    sets.push_back({above.back()});
  }
  if (!below.empty()) {
    sets.push_back({below.back()});
  }
  if (above.size() >= 2) {
    sets.push_back({above[0], above.back()});
  }
  if (below.size() >= 2) {
    sets.push_back({below.back(), below[0]});
  }
  if (!above.empty() && !below.empty()) {
    sets.push_back({below[0], above[0]});
  }
  return sets;
}

TEST(InPlacePlan, EveryGateKindAgreesWithSpanReplayAndReference) {
  // Every gate kind, with 0, 1 and 2 controls above and below the target,
  // at the bottom, middle and top qubit: the probe must recognize the DD,
  // and in-place replay, replayPlan's W = M * V, the span lowering and the
  // reference must agree.
  std::size_t cases = 0;
  for (const Qubit n : {Qubit{1}, Qubit{6}, Qubit{12}}) {
    dd::Package p{n};
    const auto v = test::randomState(n, 500 + static_cast<unsigned>(n));
    for (const Qubit target : {Qubit{0}, Qubit(n / 2), Qubit(n - 1)}) {
      for (const auto& controls : controlSets(n, target)) {
        for (int k = 0; k <= static_cast<int>(qc::GateKind::U3); ++k) {
          const auto kind = static_cast<qc::GateKind>(k);
          std::vector<fp> params{0.3, 0.7, 1.1};
          params.resize(qc::gateParamCount(kind));
          const qc::Operation op{kind, target, controls, params};
          const dd::mEdge m = p.makeGateDD(op);
          p.incRef(m);
          const auto want = applyPairs(op, v);
          const auto gate = singleTargetProbe(m, n);
          ASSERT_TRUE(gate.has_value()) << qc::gateName(kind) << " n=" << n
                                        << " t=" << target;
          for (const unsigned threads : {1u, 4u}) {
            const DmavPlan plan =
                compileGatePlan(m, n, threads, PlanMode::Row, &p);
            ASSERT_TRUE(plan.single.has_value());
            EXPECT_TRUE(plan.replaysInPlace());
            AlignedVector<Complex> inPlace(v.begin(), v.end());
            replayPlanInPlace(plan, inPlace);
            EXPECT_STATE_NEAR(inPlace, want, 1e-12)
                << qc::gateName(kind) << " n=" << n << " t=" << target
                << " controls=" << controls.size() << " threads=" << threads;
            EXPECT_STATE_NEAR(replayRow(plan, v), want, 1e-12);
            const DmavPlan spans =
                compileDmavPlan(m, n, threads, PlanMode::Row, &p);
            EXPECT_FALSE(spans.single.has_value());
            EXPECT_STATE_NEAR(replayRow(spans, v), want, 1e-12);
            ++cases;
          }
          p.decRef(m);
        }
      }
    }
  }
  EXPECT_GT(cases, 400u);
}

TEST(InPlacePlan, OnlySingleTargetDDsAreLoweredInPlace) {
  const Qubit n = 6;
  dd::Package p{n};
  const auto v = test::randomState(n, 61);
  const auto product = [&](const qc::Operation& a, const qc::Operation& b) {
    return p.multiply(p.makeGateDD(b), p.makeGateDD(a));  // a, then b
  };
  // Two targets, or diagonals on two qubits that no one control set
  // explains: span lowering, still exact.
  const std::vector<std::pair<qc::Operation, qc::Operation>> rejected = {
      {{qc::GateKind::H, 1, {}, {}}, {qc::GateKind::H, 4, {}, {}}},
      {{qc::GateKind::RZ, 0, {}, {0.4}}, {qc::GateKind::RZ, 2, {}, {0.9}}},
      {{qc::GateKind::X, 3, {0}, {}}, {qc::GateKind::RY, 5, {}, {0.3}}},
  };
  for (const auto& [a, b] : rejected) {
    const dd::mEdge m = product(a, b);
    p.incRef(m);
    EXPECT_FALSE(singleTargetProbe(m, n).has_value());
    const DmavPlan plan = compileGatePlan(m, n, 2, PlanMode::Row, &p);
    EXPECT_FALSE(plan.replaysInPlace());
    EXPECT_THROW(
        {
          AlignedVector<Complex> s(v.begin(), v.end());
          replayPlanInPlace(plan, s);
        },
        std::invalid_argument);
    EXPECT_STATE_NEAR(replayRow(plan, v), applyPairs(b, applyPairs(a, v)),
                      1e-12);
    p.decRef(m);
  }
  // A product on one target under one control set is one 2x2: in place.
  const qc::Operation a{qc::GateKind::RX, 2, {4}, {0.3}};
  const qc::Operation b{qc::GateKind::RY, 2, {4}, {0.8}};
  const dd::mEdge m = product(a, b);
  p.incRef(m);
  const DmavPlan plan = compileGatePlan(m, n, 2, PlanMode::Row, &p);
  ASSERT_TRUE(plan.single.has_value());
  AlignedVector<Complex> s(v.begin(), v.end());
  replayPlanInPlace(plan, s);
  EXPECT_STATE_NEAR(s, applyPairs(b, applyPairs(a, v)), 1e-12);
  // Cached mode keeps the paper's lowering.
  EXPECT_FALSE(
      compileGatePlan(m, n, 2, PlanMode::Cached, &p).single.has_value());
  p.decRef(m);
}

TEST(InPlacePlan, DiagRunPlansReplayInPlace) {
  const Qubit n = 8;
  dd::Package p{n};
  std::vector<dd::mEdge> run;
  const std::vector<qc::Operation> ops = {{qc::GateKind::RZ, 1, {}, {0.2}},
                                          {qc::GateKind::P, 6, {2}, {0.9}},
                                          {qc::GateKind::T, 7, {}, {}}};
  for (const auto& op : ops) {
    run.push_back(p.makeGateDD(op));
  }
  const auto v = test::randomState(n, 62);
  auto want = v;
  for (const auto& op : ops) {
    want = applyPairs(op, want);
  }
  for (const unsigned threads : {1u, 4u}) {
    const DmavPlan plan = compileDiagRunPlan(run, n, threads, &p);
    ASSERT_TRUE(plan.replaysInPlace());
    AlignedVector<Complex> s(v.begin(), v.end());
    replayPlanInPlace(plan, s);
    EXPECT_STATE_NEAR(s, want, 1e-12);
    EXPECT_STATE_NEAR(replayRow(plan, v), want, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Cache-blocked dense gates (DenseBlock)
// ---------------------------------------------------------------------------

TEST(DenseBlockPlan, TwoQubitFusedGateMatchesRecursive) {
  // H(7)*CX(7->6)*H(6) fused into one DD: both top qubits active, every
  // level below passive, so the probe must fire with k=2 and the compiled
  // tile replay must match the recursive baseline.
  const Qubit n = 8;
  dd::Package p{n};
  dd::mEdge m = p.makeGateDD({qc::GateKind::H, 6, {}, {}});
  m = p.multiply(p.makeGateDD({qc::GateKind::X, 6, {7}, {}}), m);
  m = p.multiply(p.makeGateDD({qc::GateKind::H, 7, {}, {}}), m);
  p.incRef(m);
  const auto info = denseBlockProbe(m, n);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->k, 2u);
  EXPECT_EQ(info->qubits[0], 6);
  EXPECT_EQ(info->qubits[1], 7);
  for (const unsigned threads : {1u, 4u}) {
    const DmavPlan plan = compileDmavPlan(m, n, threads, PlanMode::Row, &p);
    EXPECT_EQ(plan.denseK, 2u);
    EXPECT_TRUE(plan.fullyExclusive());
    EXPECT_GT(plan.opCount(), 0u);
    const auto v = test::randomState(n, 300 + threads);
    AlignedVector<Complex> v1(v.begin(), v.end());
    AlignedVector<Complex> w1(v1.size());
    replayPlan(plan, v1, w1);
    AlignedVector<Complex> v2(v.begin(), v.end());
    AlignedVector<Complex> w2(v2.size());
    dmavRecursive(m, n, v2, w2, threads);
    EXPECT_STATE_NEAR(w1, w2, 1e-12);
  }
  p.decRef(m);
}

TEST(DenseBlockPlan, ThreeQubitFusedGateMatchesRecursive) {
  const Qubit n = 9;
  dd::Package p{n};
  dd::mEdge m = p.makeGateDD({qc::GateKind::H, 6, {}, {}});
  m = p.multiply(p.makeGateDD({qc::GateKind::RY, 7, {}, {0.8}}), m);
  m = p.multiply(p.makeGateDD({qc::GateKind::X, 6, {8}, {}}), m);
  m = p.multiply(p.makeGateDD({qc::GateKind::H, 8, {}, {}}), m);
  p.incRef(m);
  const auto info = denseBlockProbe(m, n);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->k, 3u);
  const DmavPlan plan = compileDmavPlan(m, n, 4, PlanMode::Row, &p);
  EXPECT_EQ(plan.denseK, 3u);
  const auto v = test::randomState(n, 301);
  AlignedVector<Complex> v1(v.begin(), v.end());
  AlignedVector<Complex> w1(v1.size());
  replayPlan(plan, v1, w1);
  AlignedVector<Complex> v2(v.begin(), v.end());
  AlignedVector<Complex> w2(v2.size());
  dmavRecursive(m, n, v2, w2, 4);
  EXPECT_STATE_NEAR(w1, w2, 1e-12);
  p.decRef(m);
}

TEST(DenseBlockPlan, ProbeRejectsUnsuitableGates) {
  const Qubit n = 8;
  dd::Package p{n};
  // Single-qubit dense gate: k=1 < 2.
  EXPECT_FALSE(
      denseBlockProbe(p.makeGateDD({qc::GateKind::H, 7, {}, {}}), n)
          .has_value());
  // Diagonal two-qubit gate: no row has two nonzeros, DiagScale wins.
  dd::mEdge diag = p.makeGateDD({qc::GateKind::RZ, 7, {}, {0.3}});
  diag = p.multiply(p.makeGateDD({qc::GateKind::RZ, 6, {}, {0.7}}), diag);
  EXPECT_FALSE(denseBlockProbe(diag, n).has_value());
  // Dense pair on low qubits: the contiguous run (2^q0) is shorter than
  // kMinDenseRunLen, so the tile sweep would be gather-bound.
  dd::mEdge low = p.makeGateDD({qc::GateKind::H, 1, {}, {}});
  low = p.multiply(p.makeGateDD({qc::GateKind::X, 1, {2}, {}}), low);
  low = p.multiply(p.makeGateDD({qc::GateKind::H, 2, {}, {}}), low);
  EXPECT_FALSE(denseBlockProbe(low, n).has_value());
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, HitsOnRepeatedGateMissesOnNew) {
  const Qubit n = 6;
  dd::Package p{n};
  PlanCache cache{8};
  const dd::mEdge rz = p.makeGateDD({qc::GateKind::RZ, 2, {}, {0.5}});
  const dd::mEdge h = p.makeGateDD({qc::GateKind::H, 2, {}, {}});
  p.incRef(rz);
  p.incRef(h);

  const DmavPlan& first = cache.get(p, rz, n, 4, PlanMode::Row);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  const DmavPlan& again = cache.get(p, rz, n, 4, PlanMode::Row);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(&first, &again);  // same cached object

  cache.get(p, h, n, 4, PlanMode::Row);
  EXPECT_EQ(cache.stats().misses, 2u);
  // Different thread count / mode / ident flag are different plans.
  cache.get(p, rz, n, 2, PlanMode::Row);
  cache.get(p, rz, n, 4, PlanMode::Cached);
  setIdentFastPath(false);
  cache.get(p, rz, n, 4, PlanMode::Row);
  setIdentFastPath(true);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.size(), 5u);
  cache.clear();
  p.decRef(rz);
  p.decRef(h);
}

TEST(PlanCacheTest, LruEvictsOldestAtCapacity) {
  const Qubit n = 5;
  dd::Package p{n};
  PlanCache cache{2};
  const dd::mEdge a = p.makeGateDD({qc::GateKind::RZ, 0, {}, {0.1}});
  const dd::mEdge b = p.makeGateDD({qc::GateKind::RZ, 1, {}, {0.2}});
  const dd::mEdge c = p.makeGateDD({qc::GateKind::RZ, 2, {}, {0.3}});
  p.incRef(a);
  p.incRef(b);
  p.incRef(c);
  cache.get(p, a, n, 1, PlanMode::Row);
  cache.get(p, b, n, 1, PlanMode::Row);
  cache.get(p, a, n, 1, PlanMode::Row);  // touch a: b becomes oldest
  cache.get(p, c, n, 1, PlanMode::Row);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  cache.get(p, a, n, 1, PlanMode::Row);  // still cached
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.get(p, b, n, 1, PlanMode::Row);  // recompiled
  EXPECT_EQ(cache.stats().compiles, 4u);
  cache.clear();
  p.decRef(a);
  p.decRef(b);
  p.decRef(c);
}

TEST(PlanCacheTest, PinnedRootsSurviveGarbageCollection) {
  const Qubit n = 6;
  dd::Package p{n};
  PlanCache cache{4};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::RY, 3, {}, {0.7}});
  p.incRef(m);
  cache.get(p, m, n, 2, PlanMode::Row);
  p.decRef(m);  // the cache's pin is now the only reference
  p.garbageCollect(true);
  // The pinned root (and its subtree) must not have been recycled: a lookup
  // still hits and the plan still replays correctly.
  const DmavPlan& plan = cache.get(p, m, n, 2, PlanMode::Row);
  EXPECT_EQ(cache.stats().hits, 1u);
  const auto v = test::randomState(n, 96);
  EXPECT_STATE_NEAR(
      replayRow(plan, v),
      test::denseApply(
          test::denseOperator({qc::GateKind::RY, 3, {}, {0.7}}, n), v),
      1e-12);
  cache.clear();
}

TEST(PlanCacheTest, GenerationInvalidatesStandalonePlans) {
  const Qubit n = 6;
  dd::Package p{n};
  const dd::mEdge keep = p.makeGateDD({qc::GateKind::RZ, 1, {}, {0.4}});
  p.incRef(keep);
  const DmavPlan plan = compileDmavPlan(keep, n, 2, PlanMode::Row, &p);
  EXPECT_TRUE(plan.validFor(p));
  // Build an unreferenced gate DD and collect it: matrix nodes are released
  // back to the pool, so the generation advances and any standalone plan
  // keyed by raw pointers must report itself stale.
  (void)p.makeGateDD({qc::GateKind::U3, 4, {}, {0.3, 0.6, 0.9}});
  p.garbageCollect(true);
  EXPECT_FALSE(plan.validFor(p));
  p.decRef(keep);
}

TEST(PlanCacheTest, ZeroCapacityCompilesEveryTime) {
  const Qubit n = 5;
  dd::Package p{n};
  PlanCache cache{0};
  const dd::mEdge m = p.makeGateDD({qc::GateKind::H, 2, {}, {}});
  p.incRef(m);
  cache.get(p, m, n, 2, PlanMode::Row);
  cache.get(p, m, n, 2, PlanMode::Row);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().compiles, 2u);
  EXPECT_EQ(cache.size(), 0u);
  p.decRef(m);
}

}  // namespace
}  // namespace fdd::flat
