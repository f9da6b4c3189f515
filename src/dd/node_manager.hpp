#pragma once
// Node allocation (chunked arena + free list) and per-level unique tables.
//
// Single-threaded by contract (see package.hpp): only the thread currently
// mutating the owning Package calls allocate/release/getOrInsert/collect.
// Nodes are immutable once inserted (apart from their refcount), so other
// threads may walk finished DDs while no mutation is in flight.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <vector>

#include "dd/edge.hpp"

namespace fdd::dd {

/// Chunked arena with a free list. Nodes are recycled by the garbage
/// collector; chunks are only released when the pool is destroyed, so node
/// pointers stay stable for the Package's lifetime. Chunks grow with the
/// pool: the first holds kMinChunkSize nodes and each next one twice as many,
/// up to kMaxChunkSize, so a small DD only initializes a few small chunks.
template <typename NodeT>
class NodePool {
 public:
  static constexpr std::size_t kMinChunkSize = 64;
  static constexpr std::size_t kMaxChunkSize = 4096;

  NodeT* allocate() {
    ++liveCount_;
    if (free_ != nullptr) {
      NodeT* node = free_;
      free_ = node->next;
      return node;
    }
    if (chunkPos_ == chunkSize_) {
      chunkSize_ = chunks_.empty() ? kMinChunkSize
                                   : std::min(2 * chunkSize_, kMaxChunkSize);
      chunks_.push_back(std::make_unique<NodeT[]>(chunkSize_));
      capacity_ += chunkSize_;
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
    return capacity_ * sizeof(NodeT);
  }

 private:
  std::vector<std::unique_ptr<NodeT[]>> chunks_;
  std::size_t chunkSize_ = 0;  // nodes in the newest chunk
  std::size_t chunkPos_ = 0;   // nodes handed out from the newest chunk
  std::size_t capacity_ = 0;   // nodes over all chunks
  NodeT* free_ = nullptr;
  std::size_t liveCount_ = 0;
};

/// Open-hashing unique table, one bucket array per level. getOrInsert is the
/// single gateway through which nodes come into existence, which is what
/// guarantees DD canonicity (identical sub-DDs share one node).
///
/// Housekeeping scales with live nodes, not with a fixed capacity: a level's
/// bucket array starts at kMinBuckets, doubles when the level holds more
/// nodes than buckets (load factor 1), and shrinks back after a collection
/// leaves it below 1/8 full. Resizing relinks the existing chains.
template <typename NodeT>
class UniqueTable {
 public:
  static constexpr std::size_t kMinBuckets = 64;

  explicit UniqueTable(Qubit levels)
      : levels_(static_cast<std::size_t>(levels)) {
    for (auto& lvl : levels_) {
      lvl.buckets.assign(kMinBuckets, nullptr);
    }
    bucketCount_ = levels_.size() * kMinBuckets;
  }

  /// Finds a node with the given level/children or creates one. `created`
  /// reports whether a new node was inserted (callers then take ownership of
  /// the children references).
  NodeT* getOrInsert(Qubit level,
                     const std::array<Edge<NodeT>, NodeT::kRadix>& e,
                     NodePool<NodeT>& pool, bool& created) {
    Level& lvl = levels_[static_cast<std::size_t>(level)];
    NodeT*& head =
        lvl.buckets[nodeHash(level, e) & (lvl.buckets.size() - 1)];
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
    if (++lvl.count > lvl.buckets.size()) {
      resize(lvl, 2 * lvl.buckets.size());
    }
    return node;
  }

  /// Removes dead nodes (ref == 0), returning them to the pool and
  /// decrementing children references via `decRefChild`. Children sit exactly
  /// one level below their parent, so sweeping levels top-down sees every
  /// node only after all its parents were swept: a single pass collapses
  /// whole chains of dead nodes. Levels holding no node are skipped.
  template <typename DecRefChild>
  std::size_t collect(NodePool<NodeT>& pool, DecRefChild&& decRefChild) {
    std::size_t collected = 0;
    for (auto lvl = levels_.rbegin(); lvl != levels_.rend(); ++lvl) {
      if (lvl->count == 0) {
        continue;
      }
      bucketVisits_ += lvl->buckets.size();
      for (auto& head : lvl->buckets) {
        NodeT** link = &head;
        while (*link != nullptr) {
          NodeT* cur = *link;
          if (cur->ref == 0) {
            *link = cur->next;
            for (const auto& child : cur->e) {
              decRefChild(child);
            }
            pool.release(cur);
            --lvl->count;
            ++collected;
          } else {
            link = &cur->next;
          }
        }
      }
      if (lvl->buckets.size() > kMinBuckets &&
          8 * lvl->count < lvl->buckets.size()) {
        resize(*lvl, std::max(kMinBuckets, std::bit_ceil(2 * lvl->count)));
      }
    }
    count_ -= collected;
    return collected;
  }

  /// Visits every live node.
  template <typename F>
  void forEach(F&& fn) const {
    for (const Level& lvl : levels_) {
      for (const NodeT* head : lvl.buckets) {
        for (const NodeT* cur = head; cur != nullptr; cur = cur->next) {
          fn(cur);
        }
      }
    }
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// Bucket slots over all levels (the table's current capacity).
  [[nodiscard]] std::size_t bucketCount() const noexcept {
    return bucketCount_;
  }
  /// Buckets scanned by collect() so far, summed over calls.
  [[nodiscard]] std::size_t bucketVisits() const noexcept {
    return bucketVisits_;
  }
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return bucketCount_ * sizeof(NodeT*) + levels_.size() * sizeof(Level);
  }

 private:
  struct Level {
    std::vector<NodeT*> buckets;  // size is a power of two
    std::size_t count = 0;
  };

  void resize(Level& lvl, std::size_t size) {
    std::vector<NodeT*> buckets(size, nullptr);
    for (NodeT* cur : lvl.buckets) {
      while (cur != nullptr) {
        NodeT* next = cur->next;
        NodeT*& head = buckets[nodeHash(cur->v, cur->e) & (size - 1)];
        cur->next = head;
        head = cur;
        cur = next;
      }
    }
    bucketCount_ = bucketCount_ - lvl.buckets.size() + size;
    lvl.buckets = std::move(buckets);
  }

  std::vector<Level> levels_;
  std::size_t count_ = 0;
  std::size_t bucketCount_ = 0;
  std::size_t bucketVisits_ = 0;
};

}  // namespace fdd::dd
