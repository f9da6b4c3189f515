#pragma once
// Cache-line / SIMD-lane aligned storage for flat state vectors. AVX2 loads
// are fastest on 32-byte-aligned data; we align to 64 to also avoid false
// sharing between per-thread output segments.

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace fdd {

inline constexpr std::size_t kAlignment = 64;
/// Allocations of at least this many bytes (state vectors from 16 qubits
/// up) are mapped and unmapped directly instead of going through malloc.
/// glibc raises its mmap threshold to the size of every mapped chunk it
/// frees, after which such buffers are carved from the heap, whose top
/// then stays resident when they are freed out of order: peak RSS came to
/// depend on the order of allocations, not on what was live. Smaller
/// buffers stay with malloc: mapping from 128 KiB up kept glibc's
/// threshold at its minimum and made fig11's per-gate DMAV paths at 12
/// qubits up to 2x slower.
inline constexpr std::size_t kMapThreshold = std::size_t{1} << 20;

template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) {
      return nullptr;
    }
    const std::size_t bytes = roundUp(n * sizeof(T));
    if (bytes >= kMapThreshold) {
      void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) {
        throw std::bad_alloc{};
      }
      return static_cast<T*>(p);  // page-aligned
    }
    void* p = std::aligned_alloc(kAlignment, bytes);
    if (p == nullptr) {
      throw std::bad_alloc{};
    }
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = roundUp(n * sizeof(T));
    if (bytes >= kMapThreshold) {
      munmap(p, bytes);
    } else {
      std::free(p);
    }
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }

 private:
  static std::size_t roundUp(std::size_t bytes) noexcept {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }
};

/// A 64-byte aligned vector; the canonical flat state-vector storage.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace fdd
