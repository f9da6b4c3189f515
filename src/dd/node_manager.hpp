#pragma once
// Node allocation (chunked arena + free list) and per-level unique tables.
//
// Single-threaded by contract (see package.hpp): only the thread currently
// mutating the owning Package calls allocate/release/getOrInsert/collect.
// Nodes are immutable once inserted (apart from their refcount), so other
// threads may walk finished DDs while no mutation is in flight.

#include <cstddef>
#include <memory>
#include <vector>

#include "dd/edge.hpp"

namespace fdd::dd {

/// Chunked arena with a free list. Nodes are recycled by the garbage
/// collector; chunks are only released when the pool is destroyed, so node
/// pointers stay stable for the Package's lifetime.
template <typename NodeT>
class NodePool {
 public:
  static constexpr std::size_t kChunkSize = 4096;

  NodeT* allocate() {
    ++liveCount_;
    if (free_ != nullptr) {
      NodeT* node = free_;
      free_ = node->next;
      return node;
    }
    if (chunkPos_ == kChunkSize) {
      chunks_.push_back(std::make_unique<NodeT[]>(kChunkSize));
      chunkPos_ = 0;
    }
    return &chunks_.back()[chunkPos_++];
  }

  void release(NodeT* node) noexcept {
    node->next = free_;
    node->ref = 0;
    free_ = node;
    --liveCount_;
  }

  [[nodiscard]] std::size_t liveCount() const noexcept { return liveCount_; }
  [[nodiscard]] std::size_t allocatedBytes() const noexcept {
    return chunks_.size() * kChunkSize * sizeof(NodeT);
  }

 private:
  std::vector<std::unique_ptr<NodeT[]>> chunks_;
  std::size_t chunkPos_ = kChunkSize;
  NodeT* free_ = nullptr;
  std::size_t liveCount_ = 0;
};

/// Open-hashing unique table, one bucket array per level. getOrInsert is the
/// single gateway through which nodes come into existence, which is what
/// guarantees DD canonicity (identical sub-DDs share one node).
template <typename NodeT>
class UniqueTable {
 public:
  static constexpr std::size_t kBucketBits = 13;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

  explicit UniqueTable(Qubit levels)
      : buckets_(static_cast<std::size_t>(levels) * kBuckets, nullptr) {}

  /// Finds a node with the given level/children or creates one. `created`
  /// reports whether a new node was inserted (callers then take ownership of
  /// the children references).
  NodeT* getOrInsert(Qubit level,
                     const std::array<Edge<NodeT>, NodeT::kRadix>& e,
                     NodePool<NodeT>& pool, bool& created) {
    NodeT*& head = bucketAt(level, nodeHash(level, e));
    for (NodeT* cur = head; cur != nullptr; cur = cur->next) {
      if (cur->e == e) {
        created = false;
        return cur;
      }
    }
    NodeT* node = pool.allocate();
    node->e = e;
    node->v = level;
    node->ref = 0;
    node->next = head;
    head = node;
    ++count_;
    created = true;
    return node;
  }

  /// Removes dead nodes (ref == 0), returning them to the pool and
  /// decrementing children references via `decRefChild`. Runs passes until a
  /// fixpoint so chains of dead parents collapse in one call.
  template <typename DecRefChild>
  std::size_t collect(NodePool<NodeT>& pool, DecRefChild&& decRefChild) {
    std::size_t collected = 0;
    bool removedAny = true;
    while (removedAny) {
      removedAny = false;
      for (auto& head : buckets_) {
        NodeT** link = &head;
        while (*link != nullptr) {
          NodeT* cur = *link;
          if (cur->ref == 0) {
            *link = cur->next;
            for (const auto& child : cur->e) {
              decRefChild(child);
            }
            pool.release(cur);
            --count_;
            ++collected;
            removedAny = true;
          } else {
            link = &cur->next;
          }
        }
      }
    }
    return collected;
  }

  /// Visits every live node.
  template <typename F>
  void forEach(F&& fn) const {
    for (const NodeT* head : buckets_) {
      for (const NodeT* cur = head; cur != nullptr; cur = cur->next) {
        fn(cur);
      }
    }
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return buckets_.size() * sizeof(NodeT*);
  }

 private:
  NodeT*& bucketAt(Qubit level, std::uint64_t hash) {
    const std::size_t slot = hash & (kBuckets - 1);
    return buckets_[static_cast<std::size_t>(level) * kBuckets + slot];
  }

  std::vector<NodeT*> buckets_;
  std::size_t count_ = 0;
};

}  // namespace fdd::dd
