#include "dd/complex_table.hpp"

#include <bit>
#include <cmath>

namespace fdd::dd {

namespace {
constexpr fp kSeedValues[] = {0.0,  1.0,        -1.0,       0.5,
                              -0.5, SQRT2_INV, -SQRT2_INV};
}  // namespace

RealTable::RealTable(fp tolerance)
    : tol_{tolerance}, bucketWidth_{4 * tolerance}, heads_(kMinHeads, 0) {
  seed();
}

void RealTable::seed() {
  // Pre-seed the values virtually every gate set produces, so they become
  // the representatives rather than whatever jittered variant shows up first.
  for (const fp v : kSeedValues) {
    (void)lookup(v);
  }
}

std::int64_t RealTable::bucketOf(fp x) const noexcept {
  return static_cast<std::int64_t>(std::floor(x / bucketWidth_));
}

std::size_t RealTable::slotOf(std::int64_t bucket) const noexcept {
  auto h = static_cast<std::uint64_t>(bucket) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return static_cast<std::size_t>(h) & (heads_.size() - 1);
}

void RealTable::insert(std::int64_t bucket, fp x) {
  std::uint32_t& head = heads_[slotOf(bucket)];
  entries_.push_back(Entry{bucket, x, head});
  head = static_cast<std::uint32_t>(entries_.size());
  if (entries_.size() > heads_.size()) {
    rehash(2 * heads_.size());
  }
}

void RealTable::rehash(std::size_t count) {
  std::vector<std::uint32_t>(count, 0).swap(heads_);
  // Prepending in insertion order leaves every chain newest-first.
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    std::uint32_t& head = heads_[slotOf(e.bucket)];
    e.next = head;
    head = i + 1;
  }
}

fp RealTable::lookup(fp x) {
  // Exact and near-zero values snap to canonical +0.0 (zero is special: it
  // decides edge zero-ness, so it must never be "merely close").
  if (x == 0.0 || (x <= tol_ && x >= -tol_)) {
    return 0.0;
  }
  const std::int64_t b = bucketOf(x);
  for (std::int64_t probe = b - 1; probe <= b + 1; ++probe) {
    for (std::uint32_t i = heads_[slotOf(probe)]; i != 0;) {
      const Entry& e = entries_[i - 1];
      if (e.bucket == probe && std::abs(e.value - x) <= tol_) {
        return e.value;
      }
      i = e.next;
    }
  }
  insert(b, x);
  return x;
}

void RealTable::insertExact(fp x) {
  if (x == 0.0) {
    return;  // zero is implicit
  }
  const std::int64_t b = bucketOf(x);
  for (std::uint32_t i = heads_[slotOf(b)]; i != 0;) {
    const Entry& e = entries_[i - 1];
    if (e.bucket == b && e.value == x) {
      return;
    }
    i = e.next;
  }
  insert(b, x);
}

void RealTable::clear() {
  entries_.clear();
  rehash(kMinHeads);
  seed();
}

std::size_t RealTable::memoryBytes() const noexcept {
  return heads_.size() * sizeof(std::uint32_t) +
         entries_.capacity() * sizeof(Entry);
}

ComplexTable::ComplexTable(fp tolerance) : table_{tolerance} {}

Complex ComplexTable::lookup(Complex z) {
  return {table_.lookup(z.real()), table_.lookup(z.imag())};
}

std::uint64_t weightHash(const Complex& w) noexcept {
  const auto re = std::bit_cast<std::uint64_t>(w.real());
  const auto im = std::bit_cast<std::uint64_t>(w.imag());
  std::uint64_t h = re * 0x9e3779b97f4a7c15ULL;
  h ^= (im + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return h;
}

}  // namespace fdd::dd
