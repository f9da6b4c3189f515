// DD arithmetic: addition, matrix-vector multiplication (the DD simulation
// step), and matrix-matrix multiplication (DDMM, used by gate fusion).
// All three are memoized in compute tables; multiplication factors operand
// weights out of the cache key so one cached entry serves every scaled pair.
// Addition keys keep their weights, so two edges onto one node are summed
// directly instead: recursing would make a fresh key on every level.

#include <cassert>

#include "dd/package.hpp"

namespace fdd::dd {

namespace {

/// Commutative operand ordering so add(a, b) and add(b, a) share a slot.
/// Only reached for distinct nodes (equal nodes take the same-node rule).
template <typename NodeT>
void orderOperands(Edge<NodeT>& a, Edge<NodeT>& b) noexcept {
  if (reinterpret_cast<std::uintptr_t>(b.n) <
      reinterpret_cast<std::uintptr_t>(a.n)) {
    std::swap(a, b);
  }
}

/// Child edge of `parent` scaled by the parent edge's weight.
template <typename NodeT>
Edge<NodeT> scaledChild(const Edge<NodeT>& parent, std::size_t i,
                        ComplexTable& ct) {
  Edge<NodeT> child = parent.n->e[i];
  if (child.isZero()) {
    return Edge<NodeT>::zero();
  }
  child.w = ct.lookup(child.w * parent.w);
  if (child.isZero()) {
    return Edge<NodeT>::zero();
  }
  return child;
}

}  // namespace

// ---------------------------------------------------------------------------
// Addition
// ---------------------------------------------------------------------------

vEdge Package::add(const vEdge& a, const vEdge& b, Qubit level) {
  assert(level < nQubits_);
  return addRec(a, b, level);
}

mEdge Package::add(const mEdge& a, const mEdge& b, Qubit level) {
  assert(level < nQubits_);
  return addRec(a, b, level);
}

vEdge Package::addRec(const vEdge& a0, const vEdge& b0, Qubit level) {
  if (a0.isZero()) {
    return b0;
  }
  if (b0.isZero()) {
    return a0;
  }
  if (a0.n == b0.n) {
    // w_a * N + w_b * N = (w_a + w_b) * N, exactly: no recursion, and no
    // per-level rounding that would split N's sub-DD into near-copies.
    const Complex sum = ctable_.lookup(a0.w + b0.w);
    return sum == Complex{} ? vEdge::zero() : vEdge{a0.n, sum};
  }
  vEdge a = a0;
  vEdge b = b0;
  orderOperands(a, b);
  const AddKey<vNode> key{a, b};
  if (vEdge hit; vAddTable_.lookup(key, hit)) {
    return hit;
  }
  assert(a.n->v == level && b.n->v == level);
  std::array<vEdge, 2> r;
  for (std::size_t i = 0; i < 2; ++i) {
    r[i] = addRec(scaledChild(a, i, ctable_), scaledChild(b, i, ctable_),
                  level - 1);
  }
  const vEdge res = makeVectorNode(level, r);
  vAddTable_.insert(key, res);
  return res;
}

mEdge Package::addRec(const mEdge& a0, const mEdge& b0, Qubit level) {
  if (a0.isZero()) {
    return b0;
  }
  if (b0.isZero()) {
    return a0;
  }
  if (a0.n == b0.n) {
    // w_a * N + w_b * N = (w_a + w_b) * N, exactly: no recursion, and no
    // per-level rounding that would split N's sub-DD into near-copies.
    const Complex sum = ctable_.lookup(a0.w + b0.w);
    return sum == Complex{} ? mEdge::zero() : mEdge{a0.n, sum};
  }
  mEdge a = a0;
  mEdge b = b0;
  orderOperands(a, b);
  const AddKey<mNode> key{a, b};
  if (mEdge hit; mAddTable_.lookup(key, hit)) {
    return hit;
  }
  assert(a.n->v == level && b.n->v == level);
  std::array<mEdge, 4> r;
  for (std::size_t i = 0; i < 4; ++i) {
    r[i] = addRec(scaledChild(a, i, ctable_), scaledChild(b, i, ctable_),
                  level - 1);
  }
  const mEdge res = makeMatrixNode(level, r);
  mAddTable_.insert(key, res);
  return res;
}

// ---------------------------------------------------------------------------
// Matrix-vector multiplication
// ---------------------------------------------------------------------------

vEdge Package::multiply(const mEdge& m, const vEdge& v) {
  return mulRec(m, v, nQubits_ - 1);
}

vEdge Package::mulRec(const mEdge& m, const vEdge& v, Qubit level) {
  if (m.isZero() || v.isZero()) {
    return vEdge::zero();
  }
  const Complex w = ctable_.lookup(m.w * v.w);
  if (w == Complex{}) {
    return vEdge::zero();
  }
  if (level < 0) {
    return {vNode::terminal(), w};
  }
  assert(m.n->v == level && v.n->v == level);
  const MulKey<mNode, vNode> key{m.n, v.n};
  if (vEdge hit; mvTable_.lookup(key, hit)) {
    if (hit.isZero()) {
      return vEdge::zero();
    }
    const Complex scaled = ctable_.lookup(hit.w * w);
    return scaled == Complex{} ? vEdge::zero() : vEdge{hit.n, scaled};
  }
  // Compute the weight-1 product of the two nodes:
  //   r[i] = sum_j M[i][j] * V[j]
  std::array<vEdge, 2> r;
  for (std::size_t i = 0; i < 2; ++i) {
    const vEdge p = mulRec(m.n->e[2 * i + 0], v.n->e[0], level - 1);
    const vEdge q = mulRec(m.n->e[2 * i + 1], v.n->e[1], level - 1);
    r[i] = addRec(p, q, level - 1);
  }
  const vEdge res = makeVectorNode(level, r);
  mvTable_.insert(key, res);
  if (res.isZero()) {
    return vEdge::zero();
  }
  const Complex scaled = ctable_.lookup(res.w * w);
  return scaled == Complex{} ? vEdge::zero() : vEdge{res.n, scaled};
}

// ---------------------------------------------------------------------------
// Matrix-matrix multiplication (DDMM)
// ---------------------------------------------------------------------------

mEdge Package::multiply(const mEdge& a, const mEdge& b) {
  return mulRec(a, b, nQubits_ - 1);
}

mEdge Package::mulRec(const mEdge& a, const mEdge& b, Qubit level) {
  if (a.isZero() || b.isZero()) {
    return mEdge::zero();
  }
  const Complex w = ctable_.lookup(a.w * b.w);
  if (w == Complex{}) {
    return mEdge::zero();
  }
  if (level < 0) {
    return {mNode::terminal(), w};
  }
  assert(a.n->v == level && b.n->v == level);
  const MulKey<mNode, mNode> key{a.n, b.n};
  if (mEdge hit; mmTable_.lookup(key, hit)) {
    if (hit.isZero()) {
      return mEdge::zero();
    }
    const Complex scaled = ctable_.lookup(hit.w * w);
    return scaled == Complex{} ? mEdge::zero() : mEdge{hit.n, scaled};
  }
  // r[i][j] = sum_k A[i][k] * B[k][j]
  std::array<mEdge, 4> r;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      const mEdge p = mulRec(a.n->e[2 * i + 0], b.n->e[0 + j], level - 1);
      const mEdge q = mulRec(a.n->e[2 * i + 1], b.n->e[2 + j], level - 1);
      r[2 * i + j] = addRec(p, q, level - 1);
    }
  }
  const mEdge res = makeMatrixNode(level, r);
  mmTable_.insert(key, res);
  if (res.isZero()) {
    return mEdge::zero();
  }
  const Complex scaled = ctable_.lookup(res.w * w);
  return scaled == Complex{} ? mEdge::zero() : mEdge{res.n, scaled};
}

}  // namespace fdd::dd
