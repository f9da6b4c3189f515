#include "flatdd/dmav_plan.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/bits.hpp"
#include "common/timing.hpp"
#include "dd/package.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/array_simulator.hpp"
#include "simd/kernels.hpp"

namespace fdd::flat {

const char* toString(SpanOpKind kind) noexcept {
  switch (kind) {
    case SpanOpKind::MacSpan: return "MacSpan";
    case SpanOpKind::IdentScale: return "IdentScale";
    case SpanOpKind::Mac2Span: return "Mac2Span";
    case SpanOpKind::DiagScale: return "DiagScale";
    case SpanOpKind::PermuteCopy: return "PermuteCopy";
    case SpanOpKind::BlockScale: return "BlockScale";
    case SpanOpKind::DiagRun: return "DiagRun";
  }
  return "?";
}

namespace {

/// Per-op fixed cost (dispatch + loop setup) in MAC-equivalents, added to
/// the span length when modeling a block's replay time.
constexpr double kOpOverheadCost = 8.0;

/// Above this many pairs of combs, Lowering::rangesOverlap reports a
/// possible overlap (the block then keeps accumulating ops) instead of
/// checking every pair.
constexpr std::size_t kMaxCombCheckPairs = std::size_t{1} << 16;

/// True when the matrix is the identity on node `n`'s qubit: no off-diagonal
/// blocks, and equal diagonal blocks (node and weight).
bool isPassive(const dd::mNode* n) noexcept {
  return n->e[1].isZero() && n->e[2].isZero() && n->e[0] == n->e[3] &&
         !n->e[0].isZero();
}

bool isSingleAccum(SpanOpKind k) noexcept {
  return k == SpanOpKind::MacSpan || k == SpanOpKind::IdentScale;
}

/// Same comb shape: equal repetition count and stride.
bool sameComb(const SpanOp& a, const SpanOp& b) noexcept {
  return a.count == b.count && a.stride == b.stride;
}

std::int64_t floorDiv(std::int64_t x, std::int64_t s) noexcept {
  return x >= 0 ? x / s : -((-x + s - 1) / s);
}

/// True when the output spans of `a` and `b` (every comb repetition
/// included) may share an amplitude. Exact unless both are combs of
/// different strides, which are reported as overlapping.
bool combsOverlap(const SpanOp& a, const SpanOp& b) {
  if (a.extent() <= b.iw || b.extent() <= a.iw) {
    return false;
  }
  if ((a.count == 1 && b.count == 1) ||
      (a.count > 1 && b.count > 1 && a.stride != b.stride)) {
    return true;
  }
  // One common stride s: repetitions k of a and j of b meet iff
  // -len_b < d + (j - k) s < len_a with d = b.iw - a.iw, and j - k ranges
  // over [-(a.count - 1), b.count - 1].
  const auto s = static_cast<std::int64_t>(a.count > 1 ? a.stride : b.stride);
  const auto d = static_cast<std::int64_t>(b.iw) -
                 static_cast<std::int64_t>(a.iw);
  const auto la = static_cast<std::int64_t>(a.len);
  const auto lb = static_cast<std::int64_t>(b.len);
  const std::int64_t lo = std::max(floorDiv(-lb - d, s) + 1,
                                   1 - static_cast<std::int64_t>(a.count));
  const std::int64_t hi = std::min(-floorDiv(d - la, s) - 1,
                                   static_cast<std::int64_t>(b.count) - 1);
  return lo <= hi;
}

/// What a lowered sub-DD writes: output amplitudes summed over every op and
/// comb repetition, and whether no amplitude is written twice.
struct Footprint {
  Index written = 0;
  bool disjoint = true;
};

/// Lowers a gate DD into span ops for output rows [rowLo, rowHi): the
/// runTask recursion (Alg. 1 lines 16-22) flattened at compile time, with
/// absolute offsets. Passive levels are not walked path by path (lowerBand).
struct Lowering {
  bool identFast;
  Index rowLo;
  Index rowHi;
  std::vector<SpanOp>& ops;

  /// Lowers edge `e` whose node sits at `level`; `f` is the weight product
  /// above the edge (excluding e.w), the DmavTask convention.
  Footprint lower(const dd::mEdge& e, Qubit level, Index iv, Index iw,
                  Complex f) {
    if (e.isZero()) {
      return {};
    }
    const Complex fw = f * e.w;
    if (e.isTerminal()) {
      if (iw < rowLo || iw >= rowHi) {
        return {};
      }
      ops.push_back(SpanOp{.iv = iv, .iw = iw, .len = 1, .f = fw,
                           .kind = SpanOpKind::MacSpan});
      return {1, true};
    }
    const Index size = Index{1} << (level + 1);
    const bool inside = rowLo <= iw && iw + size <= rowHi;
    if (inside && e.n->ident && identFast) {
      ops.push_back(SpanOp{.iv = iv, .iw = iw, .len = size, .f = fw,
                           .kind = SpanOpKind::IdentScale});
      return {size, true};
    }
    if (inside && isPassive(e.n)) {
      return lowerBand(e.n, level, iv, iw, fw);
    }
    // Active node, or one straddling the row window: recurse per child,
    // skipping output halves outside the window. The two children of one
    // output half write the same rows, so they are checked for overlap.
    const Index step = size / 2;
    Footprint total;
    for (unsigned i = 0; i < 2; ++i) {
      const Index rows = iw + i * step;
      if (rows >= rowHi || rows + step <= rowLo) {
        continue;
      }
      const Index windowRows =
          std::min(rows + step, rowHi) - std::max(rows, rowLo);
      const std::size_t first = ops.size();
      const Footprint a = lower(e.n->e[2 * i], level - 1, iv, rows, fw);
      const std::size_t mid = ops.size();
      const Footprint b = lower(e.n->e[2 * i + 1], level - 1, iv + step, rows,
                                fw);
      total.written += a.written + b.written;
      total.disjoint = total.disjoint && a.disjoint && b.disjoint &&
                       (a.written == 0 || b.written == 0 ||
                        (a.written + b.written <= windowRows &&
                         !rangesOverlap(first, mid)));
    }
    return total;
  }

  /// Lowers the passive node `n` at `level` together with every passive
  /// level below it: the first non-passive edge is lowered once, then its
  /// ops are repeated over the band's 2^L blocks.
  Footprint lowerBand(const dd::mNode* n, Qubit level, Index iv, Index iw,
                      Complex fw) {
    dd::mEdge child = n->e[0];
    Complex f = fw;
    Qubit bandLevels = 1;
    while (!child.isTerminal() && isPassive(child.n) &&
           !(child.n->ident && identFast)) {
      f = f * child.w;
      child = child.n->e[0];
      ++bandLevels;
    }
    const Qubit childLevel = level - bandLevels;
    const std::size_t first = ops.size();
    const Footprint inner = lower(child, childLevel, iv, iw, f);
    const Index reps = Index{1} << bandLevels;
    repeat(first, Index{1} << (childLevel + 1), reps);
    return {inner.written * reps, inner.disjoint};
  }

  /// Repeats ops[first..] `reps` times at a pitch of `block` amplitudes (the
  /// lowered child's block). A span filling the block grows, a plain span
  /// becomes a comb, and a comb that tiles the block extends its count. An
  /// op has one stride, so a comb that does not tile its block (a passive
  /// run above a gap between active qubits) is copied once per repetition;
  /// the copy keeps the comb's short stride, which replays with far better
  /// locality than combing the copies along the long one.
  void repeat(std::size_t first, Index block, Index reps) {
    std::vector<SpanOp> nested;
    for (std::size_t k = first; k < ops.size(); ++k) {
      SpanOp& op = ops[k];
      if (op.count == 1 && op.len == block) {
        op.len *= reps;
      } else if (op.count == 1) {
        op.count = reps;
        op.stride = block;
      } else if (op.count * op.stride == block) {
        op.count *= reps;
      } else {
        nested.push_back(op);
      }
    }
    // Whole rounds of copies keep ops emitted next to each other (the two
    // terms of one output row) adjacent for fuseMac2.
    ops.reserve(ops.size() + nested.size() * (reps - 1));
    for (Index r = 1; r < reps && !nested.empty(); ++r) {
      for (SpanOp copy : nested) {
        copy.iv += r * block;
        copy.iw += r * block;
        ops.push_back(copy);
      }
    }
  }

  /// True when an op in [first, mid) may write an amplitude that an op in
  /// [mid, end) writes. Each range is internally disjoint already.
  [[nodiscard]] bool rangesOverlap(std::size_t first, std::size_t mid) const {
    const auto plain = [](const SpanOp& op) { return op.count == 1; };
    if (std::all_of(ops.begin() + static_cast<std::ptrdiff_t>(first),
                    ops.end(), plain)) {
      std::vector<std::pair<Index, Index>> spans;
      spans.reserve(ops.size() - first);
      for (std::size_t k = first; k < ops.size(); ++k) {
        spans.emplace_back(ops[k].iw, ops[k].iw + ops[k].len);
      }
      std::sort(spans.begin(), spans.end());
      for (std::size_t k = 1; k < spans.size(); ++k) {
        if (spans[k].first < spans[k - 1].second) {
          return true;
        }
      }
      return false;
    }
    if ((mid - first) * (ops.size() - mid) > kMaxCombCheckPairs) {
      return true;
    }
    for (std::size_t a = first; a < mid; ++a) {
      for (std::size_t b = mid; b < ops.size(); ++b) {
        if (combsOverlap(ops[a], ops[b])) {
          return true;
        }
      }
    }
    return false;
  }
};

/// Merges runs of ops that continue each other (same input/output stride,
/// same coefficient, same comb shape): e.g. an identity span followed by
/// the equal-weight diagonal entry below it.
void mergeAdjacent(std::vector<SpanOp>& ops) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    if (w > 0) {
      SpanOp& prev = ops[w - 1];
      const SpanOp& cur = ops[r];
      if (isSingleAccum(prev.kind) && isSingleAccum(cur.kind) &&
          sameComb(prev, cur) && prev.iw + prev.len == cur.iw &&
          prev.iv + prev.len == cur.iv && prev.f == cur.f &&
          (prev.count == 1 || prev.len + cur.len <= prev.stride)) {
        prev.len += cur.len;
        if (prev.kind != cur.kind) {
          prev.kind = SpanOpKind::MacSpan;
        }
        continue;
      }
    }
    ops[w++] = ops[r];
  }
  ops.resize(w);
}

/// Fuses adjacent single-input accumulates into the same output span — the
/// two nonzero entries of a dense 2x2 row — into one Mac2Span, halving the
/// reads and writes of w. Runs after promoteExclusive (a promoted block has
/// no accumulates left).
void fuseMac2(std::vector<SpanOp>& ops) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    if (w > 0) {
      SpanOp& prev = ops[w - 1];
      const SpanOp& cur = ops[r];
      if (isSingleAccum(prev.kind) && isSingleAccum(cur.kind) &&
          sameComb(prev, cur) && prev.iw == cur.iw && prev.len == cur.len) {
        prev.kind = SpanOpKind::Mac2Span;
        prev.iv2 = cur.iv;
        prev.f2 = cur.f;
        continue;
      }
    }
    ops[w++] = ops[r];
  }
  ops.resize(w);
}

/// Promotes a lowered block of `rows` rows at `rowBegin` to exclusive-write
/// kinds when its footprint writes every amplitude at most once. Replay then
/// zero-fills nothing if the footprint covers the block, and otherwise (a
/// block missing rows, as cached-mode column blocks can) the whole block:
/// one zero span per gap of every comb repetition would be O(2^n) again,
/// and an exclusive write overwrites a cleared row anyway.
void promoteExclusive(std::vector<SpanOp>& ops, Footprint fp, Index rowBegin,
                      Index rows, std::vector<ZeroSpan>& zeroSpans) {
  if (!fp.disjoint || fp.written != rows) {
    zeroSpans.push_back(ZeroSpan{rowBegin, rows});
  }
  if (fp.disjoint) {
    for (SpanOp& op : ops) {
      op.kind =
          op.iv == op.iw ? SpanOpKind::DiagScale : SpanOpKind::PermuteCopy;
    }
  }
}

/// Lowers edge `m` (node at `level`, at input/output offsets iv/iw, weight
/// product `f` above it) for output rows [rowBegin, rowBegin + rows), then
/// runs the peephole passes over the block.
void lowerBlock(const dd::mEdge& m, Qubit level, Index iv, Index iw, Complex f,
                Index rowBegin, Index rows, bool identFast,
                std::vector<SpanOp>& ops, std::vector<ZeroSpan>& zeroSpans) {
  Lowering lowering{identFast, rowBegin, rowBegin + rows, ops};
  const Footprint fp = lowering.lower(m, level, iv, iw, f);
  mergeAdjacent(ops);
  promoteExclusive(ops, fp, rowBegin, rows, zeroSpans);
  fuseMac2(ops);
}

double modelCost(const std::vector<SpanOp>& ops,
                 const std::vector<ZeroSpan>& zeroSpans) {
  // Cost unit: vector iterations at the runtime dispatch width. One complex
  // amplitude is two doubles, so a span of len amplitudes retires in
  // ceil(2*len / d) instructions (Eq. 6's d, resolved at runtime).
  const double d = static_cast<double>(simd::lanes());
  double cost = 0;
  for (const SpanOp& op : ops) {
    const double iters = std::ceil(2.0 * static_cast<double>(op.len) / d) *
                         static_cast<double>(op.count);
    const double terms = op.kind == SpanOpKind::Mac2Span ? 2.0 : 1.0;
    cost += iters * terms + kOpOverheadCost;
  }
  for (const ZeroSpan& z : zeroSpans) {
    cost += static_cast<double>(z.len) / d;
  }
  return cost;
}

/// Balancing granularity: each thread's row block splits into up to
/// kPlanSplitFactor sub-blocks, as long as sub-blocks keep at least
/// kMinPlanBlockRows rows (and at most 2^n blocks exist overall).
unsigned rowBlockCount(unsigned t, Index dim) {
  unsigned split = 1;
  while (t > 1 && split < kPlanSplitFactor && Index{t} * split * 2 <= dim &&
         dim / (Index{t} * split * 2) >= kMinPlanBlockRows) {
    split *= 2;
  }
  return t * split;
}

/// A plan with its identity fields set and no ops yet.
DmavPlan emptyPlan(const dd::mEdge& root, Qubit nQubits, unsigned threads,
                   PlanMode mode, const dd::Package* pkg) {
  DmavPlan plan;
  plan.root = root.n;
  plan.rootWeight = root.w;
  plan.nQubits = nQubits;
  plan.dim = Index{1} << nQubits;
  plan.threads = clampDmavThreads(nQubits, plan.dim == 1 ? 1 : threads);
  plan.mode = mode;
  plan.identFast = identFastPathEnabled();
  plan.generation = pkg != nullptr ? pkg->mNodeGeneration() : 0;
  plan.orderingEpoch = pkg != nullptr ? pkg->orderingEpoch() : 0;
  return plan;
}

void compileRow(const dd::mEdge& m, DmavPlan& plan) {
  const unsigned t = plan.threads;
  const unsigned nBlocks = rowBlockCount(t, plan.dim);
  const Index rows = plan.dim / nBlocks;
  plan.blocks.resize(nBlocks);
  for (unsigned b = 0; b < nBlocks; ++b) {
    PlanBlock& block = plan.blocks[b];
    block.rowBegin = static_cast<Index>(b) * rows;
    block.rows = rows;
    lowerBlock(m, plan.nQubits - 1, 0, 0, Complex{1.0}, block.rowBegin, rows,
               plan.identFast, block.ops, block.zeroSpans);
    block.cost = modelCost(block.ops, block.zeroSpans);
  }

  // Longest-processing-time packing of blocks onto threads. Row blocks own
  // disjoint output rows, so any assignment is race-free; LPT flattens the
  // per-thread skew that irregular DDs produce under the fixed 1:1 mapping.
  std::vector<std::uint32_t> order(nBlocks);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return plan.blocks[a].cost > plan.blocks[b].cost;
                   });
  plan.blocksOf.assign(t, {});
  std::vector<double> load(t, 0.0);
  for (const std::uint32_t id : order) {
    const auto it = std::min_element(load.begin(), load.end());
    const auto u = static_cast<std::size_t>(it - load.begin());
    plan.blocksOf[u].push_back(id);
    *it += plan.blocks[id].cost;
  }
}

void compileCached(const dd::mEdge& m, DmavPlan& plan) {
  const ColumnAssignment a =
      assignColumnSpace(m, plan.nQubits, plan.threads);
  plan.threads = a.threads;
  plan.h = a.h;
  plan.numBuffers = a.numBuffers;
  plan.colPrograms.resize(a.threads);
  plan.reduceFrom.assign(a.threads, {});

  std::vector<char> written(
      static_cast<std::size_t>(std::max(a.numBuffers, 1u)) * a.threads, 0);

  for (unsigned i = 0; i < a.threads; ++i) {
    ColumnProgram& prog = plan.colPrograms[i];
    prog.buffer = a.bufferOf[i];
    const Index ivBase = static_cast<Index>(i) * a.h;
    // First-occurrence table of sub-matrix nodes (coefficient + row offset),
    // resolved at compile time: repeats become BlockScale ops.
    std::unordered_map<const dd::mNode*, std::pair<Complex, Index>> seen;
    seen.reserve(a.perThread[i].size());
    for (const DmavTask& task : a.perThread[i]) {
      ++plan.tasks;
      const std::size_t block = static_cast<std::size_t>(task.start / a.h);
      written[static_cast<std::size_t>(prog.buffer) * a.threads + block] = 1;
      const Complex coeff = task.f * task.m.w;
      if (!task.m.isTerminal()) {
        const auto it = seen.find(task.m.n);
        if (it != seen.end()) {
          prog.ops.push_back(SpanOp{.iv = it->second.second,
                                    .iw = task.start, .len = a.h,
                                    .f = coeff / it->second.first,
                                    .kind = SpanOpKind::BlockScale});
          ++plan.cacheHits;
          continue;
        }
        seen.emplace(task.m.n, std::make_pair(coeff, task.start));
      }
      std::vector<SpanOp> taskOps;
      lowerBlock(task.m, a.borderLevel, ivBase, task.start, task.f,
                 task.start, a.h, plan.identFast, taskOps, prog.zeroSpans);
      prog.ops.insert(prog.ops.end(), taskOps.begin(), taskOps.end());
    }
  }

  for (unsigned blk = 0; blk < a.threads; ++blk) {
    for (unsigned b = 0; b < a.numBuffers; ++b) {
      if (written[static_cast<std::size_t>(b) * a.threads + blk] != 0) {
        plan.reduceFrom[blk].push_back(b);
      }
    }
  }
}

// ---- diagonal-run lowering ------------------------------------------------

bool isDiagonalRec(const dd::mNode* n,
                   std::unordered_set<const dd::mNode*>& seen) {
  if (!seen.insert(n).second) {
    return true;
  }
  if (n->ident) {
    return true;
  }
  if (!n->e[1].isZero() || !n->e[2].isZero()) {
    return false;
  }
  for (const int c : {0, 3}) {
    const dd::mEdge& e = n->e[static_cast<std::size_t>(c)];
    if (!e.isZero() && !e.isTerminal() && !isDiagonalRec(e.n, seen)) {
      return false;
    }
  }
  return true;
}

/// Folds the diagonal of edge `e` (node at `level`, span 2^(level+1),
/// accumulated weight `f` excluding e.w) into diag[idx..]: pointwise
/// product of the existing entries with this gate's diagonal. Identity
/// subtrees with unit weight — the bulk of an RZ/CP DD — are skipped. A
/// terminal edge above the bottom contributes only its first entry (the
/// lowering's len-1 convention); the remainder of the span is zero.
void foldDiagRec(const dd::mEdge& e, Qubit level, Index idx, Complex f,
                 Complex* diag) {
  const Index len = Index{1} << (level + 1);
  if (e.isZero()) {
    simd::zeroFill(diag + idx, len);
    return;
  }
  const Complex fw = f * e.w;
  if (e.isTerminal()) {
    diag[idx] *= fw;
    if (len > 1) {
      simd::zeroFill(diag + idx + 1, len - 1);
    }
    return;
  }
  if (e.n->ident) {
    if (fw != Complex{1.0}) {
      simd::scale(diag + idx, diag + idx, fw, len);
    }
    return;
  }
  const Index step = Index{1} << level;
  foldDiagRec(e.n->e[0], level - 1, idx, fw, diag);
  foldDiagRec(e.n->e[3], level - 1, idx + step, fw, diag);
}

// ---- dense-block lowering -------------------------------------------------

/// Carves the dense plan's work into per-thread DenseBlockOp chunks. Every
/// chunk has cost proportional to baseCount * runLen, so greedy min-load
/// packing balances exactly.
void compileDense(const DenseGateInfo& info, DmavPlan& plan) {
  plan.denseK = info.k;
  plan.denseU = info.u;
  const unsigned m = 1u << info.k;
  Index activeMask = 0;
  for (unsigned i = 0; i < info.k; ++i) {
    activeMask |= Index{1} << info.qubits[i];
  }
  for (unsigned j = 0; j < m; ++j) {
    Index off = 0;
    for (unsigned i = 0; i < info.k; ++i) {
      if ((j >> i & 1u) != 0) {
        off |= Index{1} << info.qubits[i];
      }
    }
    plan.denseOffsets[j] = off;
  }
  plan.denseRunLen = Index{1} << info.qubits[0];
  plan.denseFreeHiMask =
      (plan.dim - 1) & ~activeMask & ~(plan.denseRunLen - 1);
  const Index nBases =
      Index{1} << std::popcount(plan.denseFreeHiMask);

  const unsigned t = plan.threads;
  const Index targets = Index{t} * kPlanSplitFactor;
  std::vector<DenseBlockOp> chunks;
  if (nBases >= targets) {
    // Plenty of bases: contiguous base ranges, full runs.
    for (Index c = 0; c < targets; ++c) {
      const Index b0 = nBases * c / targets;
      const Index b1 = nBases * (c + 1) / targets;
      if (b1 > b0) {
        chunks.push_back(DenseBlockOp{b0, b1 - b0, 0, plan.denseRunLen});
      }
    }
  } else {
    // Few bases (active qubits near the top): split each base's run on
    // kDenseTileAmps boundaries so threads share a single long run.
    const Index perBase = (targets + nBases - 1) / nBases;
    Index slice = (plan.denseRunLen + perBase - 1) / perBase;
    slice = std::max(kDenseTileAmps,
                     (slice + kDenseTileAmps - 1) / kDenseTileAmps *
                         kDenseTileAmps);
    for (Index b = 0; b < nBases; ++b) {
      for (Index off = 0; off < plan.denseRunLen; off += slice) {
        chunks.push_back(
            DenseBlockOp{b, 1, off, std::min(slice, plan.denseRunLen - off)});
      }
    }
  }

  plan.denseOpsOf.assign(t, {});
  std::vector<double> load(t, 0.0);
  for (const DenseBlockOp& chunk : chunks) {
    const auto it = std::min_element(load.begin(), load.end());
    plan.denseOpsOf[static_cast<std::size_t>(it - load.begin())].push_back(
        chunk);
    *it += static_cast<double>(chunk.baseCount) *
           static_cast<double>(chunk.runLen);
  }
}

// ---- single-target lowering ----------------------------------------------

/// Relative tolerance of singleTargetProbe's weight checks. Recognized
/// weights are path products of the DD's own canonical weights, so only the
/// identity blocks' weights are compared to an outside value (1).
constexpr fp kSingleTargetTolerance = 1e-12;

bool nearlyEqual(Complex a, Complex b) noexcept {
  return std::abs(a - b) <= kSingleTargetTolerance * std::max(1.0, std::abs(b));
}

/// Checks a gate DD, node by node, against a candidate single-target gate
/// (target t, controls, u). `f` is the weight product above an edge,
/// excluding the edge's own weight.
struct SingleTargetCheck {
  Qubit t;
  Index controls;
  const std::array<Complex, 4>& u;

  [[nodiscard]] bool isControl(Qubit level) const noexcept {
    return (controls >> level & 1u) != 0;
  }

  /// `e` is the identity on levels [0, level] (weight 1 in total).
  [[nodiscard]] static bool identity(const dd::mEdge& e, Qubit level,
                                     Complex f) noexcept {
    if (e.isZero() || !nearlyEqual(f * e.w, Complex{1.0})) {
      return false;
    }
    return level < 0 ? e.isTerminal()
                     : !e.isTerminal() && e.n->v == level && e.n->ident;
  }

  /// `e` (node at `level` >= t) is the gate on levels [0, level], every
  /// control above `level` read as 1.
  [[nodiscard]] bool gate(const dd::mEdge& e, Qubit level, Complex f) const {
    if (e.isZero() || e.isTerminal() || e.n->v != level) {
      return false;
    }
    const Complex fw = f * e.w;
    const dd::mNode* n = e.n;
    if (level == t) {
      for (unsigned k = 0; k < 4; ++k) {
        if (!block(n->e[k], level - 1, fw, k)) {
          return false;
        }
      }
      return true;
    }
    if (!n->e[1].isZero() || !n->e[2].isZero()) {
      return false;
    }
    if (isControl(level)) {
      return identity(n->e[0], level - 1, fw) && gate(n->e[3], level - 1, fw);
    }
    return n->e[0] == n->e[3] && gate(n->e[0], level - 1, fw);
  }

  /// `e` (node at `level` < t) is entry k of u on levels [0, level] where
  /// every control is 1, and entry k of the identity elsewhere.
  [[nodiscard]] bool block(const dd::mEdge& e, Qubit level, Complex f,
                           unsigned k) const {
    const bool onDiagonal = k == 0 || k == 3;
    if (e.isZero()) {
      // Zero only where u[k] is, and on the diagonal only if no control
      // below could read 0 (the identity's ones).
      const Index below = level < 0 ? 0 : (Index{2} << level) - 1;
      return nearlyEqual(u[k], Complex{}) &&
             (!onDiagonal || (controls & below) == 0);
    }
    const Complex fw = f * e.w;
    if (level < 0) {
      return e.isTerminal() && nearlyEqual(fw, u[k]);
    }
    if (e.isTerminal() || e.n->v != level) {
      return false;
    }
    const dd::mNode* n = e.n;
    if (!n->e[1].isZero() || !n->e[2].isZero()) {
      return false;
    }
    if (isControl(level)) {
      const bool off = onDiagonal ? identity(n->e[0], level - 1, fw)
                                  : n->e[0].isZero();
      return off && block(n->e[3], level - 1, fw, k);
    }
    return n->e[0] == n->e[3] && block(n->e[0], level - 1, fw, k);
  }
};

}  // namespace

std::optional<SingleTargetGate> singleTargetProbe(const dd::mEdge& m,
                                                  Qubit nQubits) {
  if (nQubits < 1 || m.isZero() || m.isTerminal() ||
      m.n->v != nQubits - 1) {
    return std::nullopt;
  }
  // Levels with a non-passive node are the target and the controls; the
  // target is the one level with off-diagonal blocks, when u has any.
  std::vector<char> active(static_cast<std::size_t>(nQubits), 0);
  Qubit offDiagonal = -1;
  std::unordered_set<const dd::mNode*> seen{m.n};
  std::vector<const dd::mNode*> stack{m.n};
  while (!stack.empty()) {
    const dd::mNode* n = stack.back();
    stack.pop_back();
    if (n->ident) {
      continue;
    }
    if (!n->e[1].isZero() || !n->e[2].isZero()) {
      if (offDiagonal >= 0 && offDiagonal != n->v) {
        return std::nullopt;  // two levels mix amplitudes: not one target
      }
      offDiagonal = n->v;
    }
    if (!isPassive(n)) {
      active[static_cast<std::size_t>(n->v)] = 1;
    }
    for (const dd::mEdge& e : n->e) {
      if (!e.isTerminal() && seen.insert(e.n).second) {
        stack.push_back(e.n);
      }
    }
  }

  // A diagonal u leaves the target ambiguous between the active levels
  // (CP is symmetric, CRZ is not): try each, highest first.
  std::vector<Qubit> targets;
  if (offDiagonal >= 0) {
    targets.push_back(offDiagonal);
  } else {
    for (Qubit l = nQubits - 1; l >= 0; --l) {
      if (active[static_cast<std::size_t>(l)] != 0) {
        targets.push_back(l);
      }
    }
    if (targets.empty()) {
      targets.push_back(0);  // a scalar times the identity
    }
  }
  for (const Qubit t : targets) {
    SingleTargetGate gate;
    gate.target = t;
    for (Qubit l = 0; l < nQubits; ++l) {
      if (l != t && active[static_cast<std::size_t>(l)] != 0) {
        gate.controlMask |= Index{1} << l;
      }
    }
    // u[k] is the weight product down the path that reads every control
    // as 1, takes block k at the target and e[0] at passive levels.
    for (unsigned k = 0; k < 4; ++k) {
      Complex f = m.w;
      dd::mEdge e = m;
      for (Qubit l = nQubits - 1; l >= 0 && !e.isZero(); --l) {
        const unsigned child =
            l == t ? k : ((gate.controlMask >> l & 1u) != 0 ? 3u : 0u);
        e = e.n->e[child];
        f *= e.w;
      }
      gate.u[k] = e.isZero() ? Complex{} : f;
    }
    const SingleTargetCheck check{t, gate.controlMask, gate.u};
    if (check.gate(m, nQubits - 1, Complex{1.0})) {
      return gate;
    }
  }
  return std::nullopt;
}

std::size_t DmavPlan::opCount() const noexcept {
  std::size_t count = 0;
  for (const PlanBlock& b : blocks) {
    count += b.ops.size();
  }
  for (const ColumnProgram& p : colPrograms) {
    count += p.ops.size();
  }
  for (const auto& chunks : denseOpsOf) {
    count += chunks.size();
  }
  return count;
}

std::size_t DmavPlan::opCount(SpanOpKind kind) const noexcept {
  std::size_t count = 0;
  for (const PlanBlock& b : blocks) {
    for (const SpanOp& op : b.ops) {
      count += op.kind == kind ? 1 : 0;
    }
  }
  for (const ColumnProgram& p : colPrograms) {
    for (const SpanOp& op : p.ops) {
      count += op.kind == kind ? 1 : 0;
    }
  }
  return count;
}

bool DmavPlan::fullyExclusive() const noexcept {
  if (denseK != 0) {
    return true;  // every amplitude is written exactly once, no zero-fill
  }
  for (const PlanBlock& b : blocks) {
    if (!b.zeroSpans.empty()) {
      return false;
    }
    for (const SpanOp& op : b.ops) {
      if (!isExclusiveWrite(op.kind)) {
        return false;
      }
    }
  }
  return true;
}

std::size_t DmavPlan::memoryBytes() const noexcept {
  std::size_t bytes = sizeof(DmavPlan);
  for (const PlanBlock& b : blocks) {
    bytes += b.ops.capacity() * sizeof(SpanOp) +
             b.zeroSpans.capacity() * sizeof(ZeroSpan);
  }
  bytes += blocks.capacity() * sizeof(PlanBlock);
  for (const ColumnProgram& p : colPrograms) {
    bytes += p.ops.capacity() * sizeof(SpanOp) +
             p.zeroSpans.capacity() * sizeof(ZeroSpan);
  }
  bytes += colPrograms.capacity() * sizeof(ColumnProgram);
  for (const auto& ids : blocksOf) {
    bytes += ids.capacity() * sizeof(std::uint32_t);
  }
  for (const auto& bufs : reduceFrom) {
    bytes += bufs.capacity() * sizeof(unsigned);
  }
  bytes += diag.capacity() * sizeof(Complex);
  bytes += extraRoots.capacity() * sizeof(extraRoots[0]);
  for (const auto& chunks : denseOpsOf) {
    bytes += chunks.capacity() * sizeof(DenseBlockOp);
  }
  bytes += denseOpsOf.capacity() * sizeof(denseOpsOf[0]);
  return bytes;
}

bool DmavPlan::validFor(const dd::Package& pkg) const noexcept {
  return generation == pkg.mNodeGeneration() &&
         orderingEpoch == pkg.orderingEpoch();
}

DmavPlan compileDmavPlan(const dd::mEdge& m, Qubit nQubits, unsigned threads,
                         PlanMode mode, const dd::Package* pkg,
                         const std::optional<DenseGateInfo>* dense) {
  FDD_TIMED_SCOPE("plan.compile");
  Stopwatch clock;
  DmavPlan plan = emptyPlan(m, nQubits, threads, mode, pkg);
  if (mode == PlanMode::Row) {
    const auto info = dense != nullptr ? *dense : denseBlockProbe(m, nQubits);
    if (info) {
      compileDense(*info, plan);
    } else {
      compileRow(m, plan);
    }
  } else {
    compileCached(m, plan);
  }
  plan.compileSeconds = clock.seconds();
  return plan;
}

DmavPlan compileGatePlan(const dd::mEdge& m, Qubit nQubits, unsigned threads,
                         PlanMode mode, const dd::Package* pkg,
                         const std::optional<DenseGateInfo>* dense) {
  Stopwatch clock;
  std::optional<SingleTargetGate> gate;
  if (mode == PlanMode::Row) {
    gate = singleTargetProbe(m, nQubits);
  }
  if (!gate) {
    return compileDmavPlan(m, nQubits, threads, mode, pkg, dense);
  }
  FDD_TIMED_SCOPE("plan.compile");
  DmavPlan plan = emptyPlan(m, nQubits, threads, mode, pkg);
  plan.single = *gate;
  plan.compileSeconds = clock.seconds();
  return plan;
}

bool isDiagonalGateDD(const dd::mEdge& m) {
  if (m.isZero()) {
    return false;
  }
  if (m.isTerminal()) {
    return true;  // scalar: trivially diagonal
  }
  std::unordered_set<const dd::mNode*> seen;
  return isDiagonalRec(m.n, seen);
}

std::optional<DenseGateInfo> denseBlockProbe(const dd::mEdge& m,
                                             Qubit nQubits) {
  if (nQubits < 2 || m.isZero() || m.isTerminal() || m.n->ident ||
      m.n->v != nQubits - 1) {
    return std::nullopt;
  }

  // Classify each level: passive (matrix acts as the identity there) or
  // active. A level is passive iff *every* node at it has zero off-diagonal
  // children and e[0] == e[3] (node and weight) — then the sub-DD below is
  // independent of that qubit's bit, which is what makes the single-path
  // matrix extraction below valid for every run base at once.
  std::vector<char> activeLevel(static_cast<std::size_t>(nQubits), 0);
  {
    std::unordered_set<const dd::mNode*> seen;
    std::vector<const dd::mNode*> stack{m.n};
    seen.insert(m.n);
    while (!stack.empty()) {
      const dd::mNode* n = stack.back();
      stack.pop_back();
      if (n->ident) {
        continue;  // identity on [0, v]: all levels below are passive
      }
      if (!isPassive(n)) {
        activeLevel[static_cast<std::size_t>(n->v)] = 1;
      }
      for (const auto& e : n->e) {
        if (e.isZero()) {
          continue;
        }
        if (e.isTerminal()) {
          if (n->v != 0) {
            return std::nullopt;  // mid-tree terminal: not block-structured
          }
          continue;
        }
        if (e.n->v != n->v - 1) {
          return std::nullopt;  // level skip: bail
        }
        if (seen.insert(e.n).second) {
          stack.push_back(e.n);
        }
      }
    }
  }

  DenseGateInfo info;
  for (Qubit q = 0; q < nQubits; ++q) {
    if (activeLevel[static_cast<std::size_t>(q)] != 0) {
      if (info.k == 3) {
        return std::nullopt;  // more than 3 active qubits
      }
      info.qubits[info.k++] = q;
    }
  }
  if (info.k < 2) {
    return std::nullopt;  // single-qubit / diagonal: existing lowering wins
  }
  if ((Index{1} << info.qubits[0]) < kMinDenseRunLen) {
    return std::nullopt;  // runs too short to keep the column kernel busy
  }

  // Extract U by 4^k path descents: active levels branch on (row, col)
  // bits, passive levels always take e[0] (== e[3]).
  const unsigned dimU = 1u << info.k;
  bool denseRow = false;
  for (unsigned ra = 0; ra < dimU; ++ra) {
    unsigned nonzeros = 0;
    for (unsigned ca = 0; ca < dimU; ++ca) {
      Complex f = m.w;
      const dd::mNode* node = m.n;
      bool zero = false;
      for (Qubit level = nQubits - 1; level >= 0; --level) {
        unsigned child = 0;
        if (activeLevel[static_cast<std::size_t>(level)] != 0) {
          unsigned i = 0;
          while (info.qubits[i] != level) {
            ++i;
          }
          child = 2 * (ra >> i & 1u) + (ca >> i & 1u);
        }
        const dd::mEdge& e = node->e[child];
        if (e.isZero()) {
          zero = true;
          break;
        }
        f *= e.w;
        node = e.n;
      }
      info.u[ra * dimU + ca] = zero ? Complex{} : f;
      nonzeros += zero ? 0u : 1u;
    }
    denseRow = denseRow || nonzeros >= 2;
  }
  if (!denseRow) {
    return std::nullopt;  // diagonal/permutation: span ops are cheaper
  }
  return info;
}

DmavPlan compileDiagRunPlan(std::span<const dd::mEdge> gates, Qubit nQubits,
                            unsigned threads, const dd::Package* pkg) {
  assert(!gates.empty());
  FDD_TIMED_SCOPE("plan.compileDiagRun");
  Stopwatch clock;
  DmavPlan plan = emptyPlan(gates[0], nQubits, threads, PlanMode::Row, pkg);
  plan.fusedGates = gates.size();
  plan.extraRoots.reserve(gates.size() - 1);
  for (std::size_t g = 1; g < gates.size(); ++g) {
    plan.extraRoots.emplace_back(gates[g].n, gates[g].w);
  }

  plan.diag.assign(plan.dim, Complex{1.0});
  for (std::size_t g = 0; g < gates.size(); ++g) {
    foldDiagRec(gates[g], nQubits - 1, 0, Complex{1.0}, plan.diag.data());
  }

  // Uniform exclusive-write sweeps: every block costs the same, so the plain
  // round-robin assignment is already balanced.
  const unsigned t = plan.threads;
  const unsigned nBlocks = rowBlockCount(t, plan.dim);
  const Index rows = plan.dim / nBlocks;
  plan.blocks.resize(nBlocks);
  plan.blocksOf.assign(t, {});
  for (unsigned b = 0; b < nBlocks; ++b) {
    PlanBlock& block = plan.blocks[b];
    block.rowBegin = static_cast<Index>(b) * rows;
    block.rows = rows;
    block.ops.push_back(SpanOp{.iv = block.rowBegin, .iw = block.rowBegin,
                               .len = rows, .kind = SpanOpKind::DiagRun});
    block.cost = static_cast<double>(rows);
    plan.blocksOf[b % t].push_back(b);
  }
  plan.compileSeconds = clock.seconds();
  return plan;
}

namespace {

inline void executeOp(const SpanOp& op, const Complex* v, Complex* w,
                      const Complex* diag) {
  if (op.count > 1) {
    switch (op.kind) {
      case SpanOpKind::MacSpan:
      case SpanOpKind::IdentScale:
        simd::macStrided(w + op.iw, v + op.iv, op.f, op.count, op.len,
                         op.stride);
        return;
      case SpanOpKind::Mac2Span:
        simd::mac2Strided(w + op.iw, v + op.iv, op.f, v + op.iv2, op.f2,
                          op.count, op.len, op.stride);
        return;
      case SpanOpKind::DiagScale:
      case SpanOpKind::PermuteCopy:
        simd::scaleStrided(w + op.iw, v + op.iv, op.f, op.count, op.len,
                           op.stride);
        return;
      case SpanOpKind::BlockScale:
        simd::scaleStrided(w + op.iw, w + op.iv, op.f, op.count, op.len,
                           op.stride);
        return;
      case SpanOpKind::DiagRun:
        for (Index c = 0; c < op.count; ++c) {
          const Index at = c * op.stride;
          simd::mulPointwise(w + op.iw + at, v + op.iv + at,
                             diag + op.iw + at, op.len);
        }
        return;
    }
  }
  switch (op.kind) {
    case SpanOpKind::MacSpan:
    case SpanOpKind::IdentScale:
      simd::scaleAccumulate(w + op.iw, v + op.iv, op.f, op.len);
      break;
    case SpanOpKind::Mac2Span:
      simd::mac2(w + op.iw, v + op.iv, op.f, v + op.iv2, op.f2, op.len);
      break;
    case SpanOpKind::DiagScale:
    case SpanOpKind::PermuteCopy:
      simd::scale(w + op.iw, v + op.iv, op.f, op.len);
      break;
    case SpanOpKind::BlockScale:
      simd::scale(w + op.iw, w + op.iv, op.f, op.len);
      break;
    case SpanOpKind::DiagRun:
      simd::mulPointwise(w + op.iw, v + op.iv, diag + op.iw, op.len);
      break;
  }
}

/// Runs a row-mode plan's blocks, each on its pool thread: W = M * V, or
/// V = M * V when w == v and the plan replaysInPlace().
void replayBlocks(const DmavPlan& plan, const Complex* v, Complex* w) {
  par::globalPool().run(plan.threads, [&](unsigned i) {
    for (const std::uint32_t id : plan.blocksOf[i]) {
      const PlanBlock& block = plan.blocks[id];
      for (const ZeroSpan& z : block.zeroSpans) {
        simd::zeroFill(w + z.begin, z.len);
      }
      for (const SpanOp& op : block.ops) {
        executeOp(op, v, w, plan.diag.data());
      }
    }
  });
}

void applySingleTarget(const DmavPlan& plan, std::span<Complex> v) {
  const SingleTargetGate& g = *plan.single;
  sim::applyControlledPairs(v, g.u, g.target, g.controlMask, plan.threads);
}

}  // namespace

void replayPlan(const DmavPlan& plan, std::span<const Complex> v,
                std::span<Complex> w) {
  if (v.size() != plan.dim || w.size() != plan.dim) {
    throw std::invalid_argument("replayPlan: vector size mismatch");
  }
  if (v.data() == w.data()) {
    throw std::invalid_argument("replayPlan: V and W must not alias");
  }
  FDD_TIMED_SCOPE("dmav.replay");
  obs::PoolPhaseScope poolPhase{"dmav.replay"};
  if (plan.single) {
    // W = V, then the pair kernel on W.
    par::globalPool().parallelFor(
        plan.threads, 0, plan.dim, [&](std::size_t lo, std::size_t hi) {
          std::copy(v.begin() + lo, v.begin() + hi, w.begin() + lo);
        });
    applySingleTarget(plan, w);
    return;
  }
  auto& pool = par::globalPool();
  if (plan.denseK != 0) {
    // Dense-block plan: one pass over memory, kDenseTileAmps amplitudes per
    // span per denseColumns call. Bases are enumerated with the masked
    // counter (seeded by scatterBits for mid-range chunk starts).
    const unsigned m = 1u << plan.denseK;
    const Index carry = ~plan.denseFreeHiMask;
    pool.run(plan.threads, [&](unsigned i) {
      const Complex* in[8];
      Complex* out[8];
      for (const DenseBlockOp& chunk : plan.denseOpsOf[i]) {
        Index base = scatterBits(chunk.baseBegin, plan.denseFreeHiMask);
        for (Index c = 0; c < chunk.baseCount; ++c) {
          const Index end = chunk.runOffset + chunk.runLen;
          for (Index off = chunk.runOffset; off < end;
               off += kDenseTileAmps) {
            const Index tile = std::min(kDenseTileAmps, end - off);
            for (unsigned j = 0; j < m; ++j) {
              const Index at = base + plan.denseOffsets[j] + off;
              in[j] = v.data() + at;
              out[j] = w.data() + at;
            }
            simd::denseColumns(out, in, plan.denseU.data(), m, tile);
          }
          base = ((base | carry) + 1) & ~carry;
        }
      }
    });
    return;
  }
  replayBlocks(plan, v.data(), w.data());
}

void replayPlanInPlace(const DmavPlan& plan, std::span<Complex> v) {
  if (v.size() != plan.dim) {
    throw std::invalid_argument("replayPlanInPlace: vector size mismatch");
  }
  if (!plan.replaysInPlace()) {
    throw std::invalid_argument(
        "replayPlanInPlace: plan is neither single-target nor DiagRun");
  }
  FDD_TIMED_SCOPE("dmav.replay");
  obs::PoolPhaseScope poolPhase{"dmav.replay"};
  if (plan.single) {
    applySingleTarget(plan, v);
  } else {
    replayBlocks(plan, v.data(), v.data());
  }
}

DmavCacheStats replayPlanCached(const DmavPlan& plan,
                                std::span<const Complex> v,
                                std::span<Complex> w,
                                DmavWorkspace& workspace) {
  if (v.size() != plan.dim || w.size() != plan.dim) {
    throw std::invalid_argument("replayPlanCached: vector size mismatch");
  }
  if (v.data() == w.data()) {
    throw std::invalid_argument("replayPlanCached: V and W must not alias");
  }
  FDD_TIMED_SCOPE("dmav.replayCached");
  obs::PoolPhaseScope poolPhase{"dmav.replayCached"};
  DmavCacheStats stats;
  stats.tasks = plan.tasks;
  stats.cacheHits = plan.cacheHits;
  stats.buffers = plan.numBuffers;

  workspace.ensure(std::max<std::size_t>(plan.numBuffers, 1), plan.dim);
  std::vector<Complex*> bufs(std::max<std::size_t>(plan.numBuffers, 1));
  for (std::size_t b = 0; b < bufs.size(); ++b) {
    bufs[b] = workspace.buffer(b, plan.dim);
  }

  auto& pool = par::globalPool();
  // Phase 1: per-thread programs into the shared partial-output buffers.
  pool.run(plan.threads, [&](unsigned i) {
    const ColumnProgram& prog = plan.colPrograms[i];
    Complex* buf = bufs[prog.buffer];
    for (const ZeroSpan& z : prog.zeroSpans) {
      simd::zeroFill(buf + z.begin, z.len);
    }
    for (const SpanOp& op : prog.ops) {
      executeOp(op, v.data(), buf, nullptr);  // DiagRun never cached-mode
    }
  });
  // Phase 2: reduce the buffers into W, summing only written blocks.
  pool.run(plan.threads, [&](unsigned i) {
    const Index lo = static_cast<Index>(i) * plan.h;
    bool first = true;
    for (const unsigned b : plan.reduceFrom[i]) {
      if (first) {
        std::copy(bufs[b] + lo, bufs[b] + lo + plan.h, w.data() + lo);
        first = false;
      } else {
        simd::accumulate(w.data() + lo, bufs[b] + lo, plan.h);
      }
    }
    if (first) {
      simd::zeroFill(w.data() + lo, plan.h);
    }
  });
  return stats;
}

}  // namespace fdd::flat
