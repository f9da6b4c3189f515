#pragma once
// Canonical storage for edge weights, following DDSIM's complex-number
// handling [98]: every weight that appears on a DD edge is snapped to a
// canonical representative so that (a) weights equal up to the numerical
// tolerance become *bit-identical*, letting the unique table hash and compare
// weights by their raw bits, and (b) decision-diagram node sharing is immune
// to floating-point jitter accumulated over long gate sequences.
//
// We canonicalize the real and imaginary components independently through a
// bucketed table of doubles. Lookup probes the value's bucket and both
// neighbors, so two values within the tolerance always map to the same
// representative even when they straddle a bucket boundary. Entries live in
// one growing vector and are linked by index into chains that hash from an
// array of heads. The heads grow with the entries: they start at kMinHeads,
// double when the entries outnumber them (load factor 1) and go back to
// kMinHeads in clear(). A resize relinks every chain newest-first, the order
// inserts leave it in, so a lookup returns the same representative before
// and after any resize.

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace fdd::dd {

class RealTable {
 public:
  static constexpr std::size_t kMinHeads = 64;

  explicit RealTable(fp tolerance);

  /// Returns the canonical representative for x (inserting x if no existing
  /// entry lies within the tolerance). Canonical zero is +0.0.
  [[nodiscard]] fp lookup(fp x);

  /// Inserts x verbatim as a representative unless the identical bits are
  /// already present. Used when rebuilding the table from live edge weights
  /// during garbage collection: live weights must survive bit-exactly.
  void insertExact(fp x);

  /// Drops every entry and re-seeds the standard constants.
  void clear();

  [[nodiscard]] fp tolerance() const noexcept { return tol_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Chain heads currently allocated (the table's hash capacity).
  [[nodiscard]] std::size_t headCount() const noexcept { return heads_.size(); }
  /// Bytes of heap the table currently holds (for memory accounting).
  [[nodiscard]] std::size_t memoryBytes() const noexcept;

 private:
  struct Entry {
    std::int64_t bucket;  // bucketOf(value)
    fp value;
    std::uint32_t next;   // 1 + index of the next entry in the chain; 0 ends
  };

  [[nodiscard]] std::int64_t bucketOf(fp x) const noexcept;
  [[nodiscard]] std::size_t slotOf(std::int64_t bucket) const noexcept;
  void insert(std::int64_t bucket, fp x);
  /// Resizes the heads to `count` (a power of two) and relinks every entry.
  void rehash(std::size_t count);
  void seed();

  fp tol_;
  fp bucketWidth_;
  std::vector<std::uint32_t> heads_;  // per slot: 1 + index of the chain head
  std::vector<Entry> entries_;
};

class ComplexTable {
 public:
  explicit ComplexTable(fp tolerance = 1e-10);

  /// Canonicalizes both components. Values within tolerance of 0 snap to
  /// exactly +0.0, of 1 to exactly 1.0, etc. (0, ±1, ±1/sqrt(2), ±0.5 are
  /// pre-seeded since they dominate quantum gate sets).
  [[nodiscard]] Complex lookup(Complex z);

  /// See RealTable::insertExact / clear.
  void insertExact(Complex z) {
    table_.insertExact(z.real());
    table_.insertExact(z.imag());
  }
  void clear() { table_.clear(); }

  [[nodiscard]] fp tolerance() const noexcept { return table_.tolerance(); }
  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return table_.memoryBytes();
  }

 private:
  RealTable table_;
};

/// Bitwise equality of canonicalized weights. Only valid on values returned
/// by ComplexTable::lookup.
[[nodiscard]] inline bool weightEqual(const Complex& a,
                                      const Complex& b) noexcept {
  return a.real() == b.real() && a.imag() == b.imag();
}

/// Hash of a canonical weight's raw bits.
[[nodiscard]] std::uint64_t weightHash(const Complex& w) noexcept;

}  // namespace fdd::dd
