#include "dd/package.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "common/bits.hpp"
#include "obs/metrics.hpp"

namespace fdd::dd {

Package::Package(Qubit nQubits, fp tolerance)
    : nQubits_{nQubits},
      ctable_{tolerance},
      vUnique_{nQubits},
      mUnique_{nQubits} {
  if (nQubits < 1 || nQubits > 40) {
    throw std::invalid_argument("Package: qubit count must be in [1, 40]");
  }
  identCache_.reserve(static_cast<std::size_t>(nQubits));
}

// ---------------------------------------------------------------------------
// Normalization & node construction
// ---------------------------------------------------------------------------

template <typename NodeT>
Edge<NodeT> Package::normalize(Qubit level,
                               std::array<Edge<NodeT>, NodeT::kRadix> e,
                               NodePool<NodeT>& pool,
                               UniqueTable<NodeT>& table) {
  bool allZero = true;
  for (auto& edge : e) {
    if (edge.isZero()) {
      edge = Edge<NodeT>::zero();  // canonical zero (terminal node)
    } else {
      allZero = false;
    }
  }
  if (allZero) {
    return Edge<NodeT>::zero();
  }

  // Divide out the largest-magnitude weight (leftmost on ties) so the node's
  // weight pattern is canonical; the factor moves to the incoming edge.
  std::size_t idx = 0;
  fp best = -1.0;
  for (std::size_t i = 0; i < e.size(); ++i) {
    const fp mag = norm2(e[i].w);
    if (mag > best) {
      best = mag;
      idx = i;
    }
  }
  const Complex top = e[idx].w;
  for (std::size_t i = 0; i < e.size(); ++i) {
    if (i == idx) {
      e[i].w = Complex{1.0};
      continue;
    }
    if (!e[i].isZero()) {
      e[i].w = ctable_.lookup(e[i].w / top);
      if (e[i].isZero()) {
        e[i] = Edge<NodeT>::zero();
      }
    }
  }

  bool created = false;
  NodeT* node = table.getOrInsert(level, e, pool, created);
  if (created) {
    for (const auto& child : e) {
      incRefNode(child.n);
    }
    if constexpr (std::is_same_v<NodeT, mNode>) {
      // Identity detection: [S, 0, 0, S] with weight-1 edges onto an
      // identity (or terminal) child is the identity on qubits [0, level].
      node->ident = e[1].isZero() && e[2].isZero() && e[0] == e[3] &&
                    weightEqual(e[0].w, Complex{1.0}) &&
                    (e[0].isTerminal() || e[0].n->ident);
    }
  }
  return Edge<NodeT>{node, ctable_.lookup(top)};
}

vEdge Package::makeVectorNode(Qubit level, std::array<vEdge, 2> e) {
  assert(level >= 0 && level < nQubits_);
  const vEdge r = normalize(level, e, vPool_, vUnique_);
  peakVNodes_ = std::max(peakVNodes_, vUnique_.count());
  return r;
}

mEdge Package::makeMatrixNode(Qubit level, std::array<mEdge, 4> e) {
  assert(level >= 0 && level < nQubits_);
  const mEdge r = normalize(level, e, mPool_, mUnique_);
  peakMNodes_ = std::max(peakMNodes_, mUnique_.count());
  return r;
}

// ---------------------------------------------------------------------------
// States
// ---------------------------------------------------------------------------

vEdge Package::makeZeroState() { return makeBasisState(0); }

vEdge Package::makeBasisState(Index bits) {
  if (nQubits_ < 62 && bits >= (Index{1} << nQubits_)) {
    throw std::out_of_range("makeBasisState: basis index out of range");
  }
  vEdge e = vEdge::one();
  for (Qubit l = 0; l < nQubits_; ++l) {
    if (testBit(bits, l)) {
      e = makeVectorNode(l, {vEdge::zero(), e});
    } else {
      e = makeVectorNode(l, {e, vEdge::zero()});
    }
  }
  return e;
}

// ---------------------------------------------------------------------------
// Adjacent-level variable swap (the reorder trick, arXiv:2211.07110)
// ---------------------------------------------------------------------------
//
// Local rewrite at u = lower + 1: a node U at level u with children a, b
// represents f(x_u, x_l, rest) = x_u' [a b] over the level-l subtrees. The
// swapped node U' indexes x_l first, so its child for x_l = i is the level-l
// node over x_u built from the i-children of a and b (weights multiplied
// through, zeros propagated). Levels above u only change because child
// *identities* changed; they are rebuilt through the normalizing
// constructors with a per-node memo (results stored weight-1 and scaled by
// the incoming edge weight — the same factoring the compute tables use).

vEdge Package::swapAdjacent(const vEdge& state, Qubit lower) {
  if (lower < 0 || lower + 1 >= nQubits_) {
    throw std::out_of_range("swapAdjacent: level out of range");
  }
  if (state.isZero() || state.isTerminal() || state.n->v <= lower) {
    return state;  // no node at or above the swapped pair: nothing to do
  }
  std::unordered_map<const vNode*, vEdge> memo;
  return swapAdjacentRec(state, lower, memo);
}

vEdge Package::swapAdjacentRec(const vEdge& e, Qubit lower,
                               std::unordered_map<const vNode*, vEdge>& memo) {
  if (e.isZero()) {
    return vEdge::zero();
  }
  if (e.isTerminal() || e.n->v <= lower) {
    return e;  // untouched strictly below the rewritten level
  }
  const Qubit level = e.n->v;
  if (const auto it = memo.find(e.n); it != memo.end()) {
    vEdge r = it->second;
    if (r.isZero()) {
      return vEdge::zero();
    }
    r.w = ctable_.lookup(r.w * e.w);
    return r.isZero() ? vEdge::zero() : r;
  }
  vEdge result;
  if (level == lower + 1) {
    const vEdge a = e.n->e[0];
    const vEdge b = e.n->e[1];
    // i-child of c's level-l node, with c's weight multiplied through. No
    // level skipping: a nonzero c points to a node at exactly `lower`.
    const auto sub = [&](const vEdge& c, std::size_t i) -> vEdge {
      if (c.isZero()) {
        return vEdge::zero();
      }
      assert(!c.isTerminal() && c.n->v == lower);
      vEdge child = c.n->e[i];
      if (child.isZero()) {
        return vEdge::zero();
      }
      child.w = ctable_.lookup(child.w * c.w);
      return child.isZero() ? vEdge::zero() : child;
    };
    std::array<vEdge, 2> swapped;
    for (std::size_t i = 0; i < 2; ++i) {
      swapped[i] = makeVectorNode(lower, {sub(a, i), sub(b, i)});
    }
    result = makeVectorNode(level, swapped);
  } else {
    std::array<vEdge, 2> children;
    for (std::size_t i = 0; i < 2; ++i) {
      children[i] = swapAdjacentRec(e.n->e[i], lower, memo);
    }
    result = makeVectorNode(level, children);
  }
  memo.emplace(e.n, result);
  if (result.isZero()) {
    return vEdge::zero();
  }
  result.w = ctable_.lookup(result.w * e.w);
  return result.isZero() ? vEdge::zero() : result;
}

// ---------------------------------------------------------------------------
// Reference counting & garbage collection
// ---------------------------------------------------------------------------

// Terminal nodes (and anything that ever hits the ceiling) stay pinned at
// kRefSaturated forever and are never written, which is what lets packages
// on different threads share the static terminals.

void Package::incRefNode(vNode* n) noexcept {
  if (n->ref != kRefSaturated) {
    ++n->ref;
  }
}
void Package::incRefNode(mNode* n) noexcept {
  if (n->ref != kRefSaturated) {
    ++n->ref;
  }
}
void Package::decRefNode(vNode* n) noexcept {
  if (n->ref != kRefSaturated) {
    assert(n->ref > 0);
    --n->ref;
  }
}
void Package::decRefNode(mNode* n) noexcept {
  if (n->ref != kRefSaturated) {
    assert(n->ref > 0);
    --n->ref;
  }
}

void Package::garbageCollect(bool force) {
  const std::size_t live = vUnique_.count() + mUnique_.count();
  if (!force && live < gcThreshold_) {
    return;
  }
  ++gcRuns_;
  const std::size_t vCollected = vUnique_.collect(
      vPool_, [](const vEdge& child) { decRefNode(child.n); });
  const std::size_t mCollected = mUnique_.collect(
      mPool_, [](const mEdge& child) { decRefNode(child.n); });
  gcCollected_ += vCollected + mCollected;
  if (mCollected > 0) {
    // Released mNode addresses will be recycled; invalidate anything keyed
    // by raw matrix-node pointers (see mNodeGeneration()).
    ++mNodeGeneration_;
  }

  // Cached results may reference reclaimed nodes.
  vAddTable_.flush();
  mAddTable_.flush();
  mvTable_.flush();
  mmTable_.flush();

  // The complex table accumulates a representative for nearly every distinct
  // amplitude ever produced; on irregular circuits that is unbounded. Once
  // it outgrows the live DD, rebuild it from the weights still on live
  // edges (bit-exact, so live nodes keep hashing identically).
  if (ctable_.size() > ctableRebuildThreshold_) {
    ctable_.clear();
    vUnique_.forEach([this](const vNode* node) {
      for (const auto& child : node->e) {
        ctable_.insertExact(child.w);
      }
    });
    mUnique_.forEach([this](const mNode* node) {
      for (const auto& child : node->e) {
        ctable_.insertExact(child.w);
      }
    });
  }

  // Back off if little was reclaimed so we do not thrash (unless a caller
  // pinned the threshold explicitly).
  if (!gcThresholdPinned_) {
    const std::size_t liveAfter = vUnique_.count() + mUnique_.count();
    gcThreshold_ = std::max<std::size_t>(std::size_t{1} << 16, 2 * liveAfter);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

PackageStats Package::stats() const {
  PackageStats s;
  s.vNodesLive = vUnique_.count();
  s.mNodesLive = mUnique_.count();
  s.peakVNodes = peakVNodes_;
  s.peakMNodes = peakMNodes_;
  s.gcRuns = gcRuns_;
  s.gcCollected = gcCollected_;
  s.gcBucketVisits = vUnique_.bucketVisits() + mUnique_.bucketVisits();
  s.uniqueBuckets = vUnique_.bucketCount() + mUnique_.bucketCount();
  s.memoryBytes = vPool_.allocatedBytes() + mPool_.allocatedBytes() +
                  vUnique_.memoryBytes() + mUnique_.memoryBytes() +
                  vAddTable_.memoryBytes() + mAddTable_.memoryBytes() +
                  mvTable_.memoryBytes() + mmTable_.memoryBytes() +
                  ctable_.memoryBytes();
  s.computeHits = vAddTable_.hits() + mAddTable_.hits() + mvTable_.hits() +
                  mmTable_.hits();
  s.computeMisses = vAddTable_.misses() + mAddTable_.misses() +
                    mvTable_.misses() + mmTable_.misses();
  if (obs::enabled()) {
    // Publish as gauges so the engine's registry snapshot (and therefore
    // RunReport.metrics) carries the final table health of the run —
    // backends call stats() while filling the report, before the snapshot.
    auto& reg = obs::Registry::instance();
    reg.gauge("dd.compute.hits").set(static_cast<double>(s.computeHits));
    reg.gauge("dd.compute.misses").set(static_cast<double>(s.computeMisses));
  }
  return s;
}

namespace {

/// Canonicity scan of one unique table: no duplicate (level, children)
/// pairs, weights normalized, children one level down, zeros canonical,
/// count consistent with the live chain contents.
template <typename NodeT, typename TableT>
bool checkTableCanonical(const TableT& table) {
  bool ok = true;
  // Group live nodes by structural hash, then compare within groups: any
  // two distinct nodes with equal (level, children) break canonicity.
  std::unordered_map<std::uint64_t, std::vector<const NodeT*>> groups;
  std::size_t visited = 0;
  table.forEach([&](const NodeT* node) {
    ++visited;
    // Normalization stores a literal 1.0 at the chosen maximum and snaps
    // every other weight through the complex table, which can perturb
    // magnitudes by up to the merge tolerance (so another weight's norm may
    // sit a hair above 1, or a near-tie may canonicalize to exactly ±i to
    // the left of the unit edge). The bit-exactly checkable invariant is:
    // some edge carries weight exactly 1, and no weight's norm exceeds 1
    // beyond that tolerance slack.
    constexpr fp kSlack = 1e-8;
    bool hasUnit = false;
    for (const auto& edge : node->e) {
      hasUnit = hasUnit || weightEqual(edge.w, Complex{1.0});
      if (norm2(edge.w) > 1.0 + kSlack) {
        ok = false;  // weight larger than the supposed maximum
      }
    }
    if (!hasUnit) {
      ok = false;  // no unit weight: the node was never normalized
    }
    for (const auto& child : node->e) {
      if (child.isZero()) {
        if (!child.isTerminal() || !weightEqual(child.w, Complex{})) {
          ok = false;  // zero edges must be the canonical zero
        }
      } else if (!child.isTerminal() && child.n->v != node->v - 1) {
        ok = false;  // no level skipping
      }
    }
    auto& group = groups[nodeHash(node->v, node->e)];
    for (const NodeT* other : group) {
      if (other->v == node->v && other->e == node->e) {
        ok = false;  // duplicate canonical node
      }
    }
    group.push_back(node);
  });
  return ok && visited == table.count();
}

}  // namespace

bool Package::checkCanonical() const {
  return checkTableCanonical<vNode>(vUnique_) &&
         checkTableCanonical<mNode>(mUnique_);
}

// Explicit instantiations keep normalize's definition out of the header.
template vEdge Package::normalize<vNode>(Qubit, std::array<vEdge, 2>,
                                         NodePool<vNode>&, UniqueTable<vNode>&);
template mEdge Package::normalize<mNode>(Qubit, std::array<mEdge, 4>,
                                         NodePool<mNode>&, UniqueTable<mNode>&);

}  // namespace fdd::dd
