#pragma once
// Direct-mapped operation cache ("compute table"). DD operations are
// memoized on their operands; a collision simply overwrites the slot, which
// bounds memory and needs no eviction policy. Flushed on garbage collection
// because results may reference reclaimed nodes. A flush is O(1): every slot
// carries the generation it was written in, and flush() starts a new one, so
// older slots stop matching. The 64-bit tag never wraps.
//
// The slot array grows with use, so a job that does few operations pays for
// few slots: it is allocated at kMinSlots on first insert and doubles once
// the inserts since the last growth exceed the slot count, up to kMaxSlots.
// Growing rehashes the live entries and drops the flushed ones.
//
// lookup() copies the result out instead of returning a pointer into the
// slot: callers hold the result across recursive calls, and any insert()
// hashing to the same slot would overwrite it underneath them.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "dd/edge.hpp"

namespace fdd::dd {

template <typename KeyT, typename ResultT, std::size_t MaxBitsV = 14>
class ComputeTable {
 public:
  static constexpr std::size_t kMaxSlots = std::size_t{1} << MaxBitsV;
  static constexpr std::size_t kMinSlots = std::min<std::size_t>(64, kMaxSlots);

  /// Copies the cached result for `key` into `out`; returns false on miss.
  [[nodiscard]] bool lookup(const KeyT& key, ResultT& out) noexcept {
    if (!slots_.empty()) {
      const Slot& s = slots_[key.hash() & (slots_.size() - 1)];
      if (s.generation == generation_ && s.key == key) {
        ++hits_;
        out = s.result;
        return true;
      }
    }
    ++misses_;
    return false;
  }

  void insert(const KeyT& key, const ResultT& result) {
    if (insertsSinceGrowth_ >= slots_.size() && slots_.size() < kMaxSlots) {
      grow();
    }
    ++insertsSinceGrowth_;
    slots_[key.hash() & (slots_.size() - 1)] = Slot{key, result, generation_};
  }

  void flush() noexcept { ++generation_; }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t slotCount() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

 private:
  struct Slot {
    KeyT key{};
    ResultT result{};
    std::uint64_t generation = 0;  // live iff equal to the table's
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinSlots : 2 * old.size(), Slot{});
    for (const Slot& s : old) {
      if (s.generation == generation_) {
        slots_[s.key.hash() & (slots_.size() - 1)] = s;
      }
    }
    insertsSinceGrowth_ = 0;
  }

  std::vector<Slot> slots_;
  std::uint64_t generation_ = 1;
  std::size_t insertsSinceGrowth_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Key for multiply(left, right) with weights factored out of the cache.
template <typename LeftT, typename RightT>
struct MulKey {
  const LeftT* left = nullptr;
  const RightT* right = nullptr;

  [[nodiscard]] bool operator==(const MulKey&) const noexcept = default;
  [[nodiscard]] std::uint64_t hash() const noexcept {
    const auto a = reinterpret_cast<std::uintptr_t>(left);
    const auto b = reinterpret_cast<std::uintptr_t>(right);
    std::uint64_t h = a * 0xff51afd7ed558ccdULL;
    h ^= b * 0xc4ceb9fe1a85ec53ULL + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return h;
  }
};

/// Key for add(a, b); weights participate because addition does not factor.
template <typename NodeT>
struct AddKey {
  Edge<NodeT> a{};
  Edge<NodeT> b{};

  [[nodiscard]] bool operator==(const AddKey& o) const noexcept {
    return a == o.a && b == o.b;
  }
  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = reinterpret_cast<std::uintptr_t>(a.n) *
                      0xff51afd7ed558ccdULL;
    h ^= weightHash(a.w) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= reinterpret_cast<std::uintptr_t>(b.n) * 0xc4ceb9fe1a85ec53ULL +
         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= weightHash(b.w) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
};

}  // namespace fdd::dd
