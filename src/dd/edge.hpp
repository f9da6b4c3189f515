#pragma once
// Decision-diagram node and edge types (QMDD representation [86]).
//
// Invariants maintained by Package:
//  * Fully reduced, no level skipping: a nonzero child edge of a node at
//    level l points to a node at level l-1 (the terminal when l == 0).
//  * An edge with weight 0 is always the canonical zero edge
//    {terminal, +0.0+0.0i}.
//  * All edge weights are canonical representatives from the ComplexTable,
//    so weights compare by raw bits.
//  * A node's outgoing weights are normalized: the largest-magnitude weight
//    (leftmost on ties) is exactly 1.

#include <array>
#include <cstdint>
#include <limits>

#include "common/types.hpp"
#include "dd/complex_table.hpp"

namespace fdd::dd {

template <typename NodeT>
struct Edge {
  NodeT* n = NodeT::terminal();
  Complex w{};

  [[nodiscard]] bool isTerminal() const noexcept { return n->isTerminal(); }
  /// Canonical zero edge test (valid under the Package invariants).
  [[nodiscard]] bool isZero() const noexcept {
    return w.real() == 0.0 && w.imag() == 0.0;
  }

  [[nodiscard]] static Edge zero() noexcept {
    return {NodeT::terminal(), Complex{}};
  }
  [[nodiscard]] static Edge one() noexcept {
    return {NodeT::terminal(), Complex{1.0}};
  }

  [[nodiscard]] bool operator==(const Edge& o) const noexcept {
    return n == o.n && weightEqual(w, o.w);
  }
};

inline constexpr std::uint32_t kRefSaturated =
    std::numeric_limits<std::uint32_t>::max();

/// Vector DD node: two outgoing edges (the |0> and |1> sub-vectors).
struct vNode {
  static constexpr std::size_t kRadix = 2;

  std::array<Edge<vNode>, 2> e{};
  vNode* next = nullptr;  // unique-table chain
  std::uint32_t ref = 0;
  Qubit v = -1;           // level; -1 marks the terminal

  [[nodiscard]] bool isTerminal() const noexcept { return v < 0; }

  [[nodiscard]] static vNode* terminal() noexcept { return &terminalNode; }
  static vNode terminalNode;  // defined below (incomplete type here)
};

inline vNode vNode::terminalNode{{}, nullptr, kRefSaturated, -1};

/// Matrix DD node: four outgoing edges in row-major block order
/// e[0]=upper-left, e[1]=upper-right, e[2]=lower-left, e[3]=lower-right.
struct mNode {
  static constexpr std::size_t kRadix = 4;

  std::array<Edge<mNode>, 4> e{};
  mNode* next = nullptr;
  std::uint32_t ref = 0;
  Qubit v = -1;
  /// True when this node represents an exact identity operator on qubits
  /// [0, v]. Set at unique-table insertion; DMAV's Run kernel turns identity
  /// subtrees into one SIMD scale-accumulate instead of 2^(v+1) recursions.
  bool ident = false;

  [[nodiscard]] bool isTerminal() const noexcept { return v < 0; }

  [[nodiscard]] static mNode* terminal() noexcept { return &terminalNode; }
  static mNode terminalNode;  // defined below (incomplete type here)
};

inline mNode mNode::terminalNode{{}, nullptr, kRefSaturated, -1, false};

using vEdge = Edge<vNode>;
using mEdge = Edge<mNode>;

/// Structural hash of a prospective node (level + children).
template <typename NodeT>
[[nodiscard]] std::uint64_t nodeHash(
    Qubit level, const std::array<Edge<NodeT>, NodeT::kRadix>& e) noexcept {
  std::uint64_t h = static_cast<std::uint64_t>(level) * 0xd6e8feb86659fd93ULL;
  for (const auto& edge : e) {
    const auto p = reinterpret_cast<std::uintptr_t>(edge.n);
    h ^= (p * 0xff51afd7ed558ccdULL) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    h ^= weightHash(edge.w) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace fdd::dd
