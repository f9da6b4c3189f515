// Canonical complex table: tolerance merging, bucket-boundary robustness,
// zero canonicalization, bit-hashability of representatives.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "dd/complex_table.hpp"

namespace fdd::dd {
namespace {

TEST(RealTable, ExactValuesAreStable) {
  RealTable t{1e-10};
  const fp a = t.lookup(0.123456);
  EXPECT_EQ(t.lookup(0.123456), a);
}

TEST(RealTable, NearbyValuesMerge) {
  RealTable t{1e-10};
  const fp a = t.lookup(0.5);
  const fp b = t.lookup(0.5 + 1e-12);
  const fp c = t.lookup(0.5 - 1e-12);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(RealTable, DistantValuesStaySeparate) {
  RealTable t{1e-10};
  EXPECT_NE(t.lookup(0.5), t.lookup(0.5 + 1e-6));
}

TEST(RealTable, NegativeZeroCanonicalizesToPositiveZero) {
  RealTable t{1e-10};
  const fp z = t.lookup(-0.0);
  EXPECT_EQ(z, 0.0);
  EXPECT_FALSE(std::signbit(z));
}

TEST(RealTable, BucketBoundaryStraddling) {
  // Two values within tolerance but potentially in adjacent buckets must
  // still merge — this is what the neighbor probing is for.
  const fp tol = 1e-10;
  RealTable t{tol};
  const fp width = 4 * tol;
  for (int k = 1; k < 50; ++k) {
    const fp boundary = k * width;
    const fp lo = boundary - tol / 4;
    const fp hi = boundary + tol / 4;
    const fp a = t.lookup(lo);
    const fp b = t.lookup(hi);
    EXPECT_EQ(a, b) << "k=" << k;
  }
}

TEST(RealTable, SeededConstantsAreRepresentatives) {
  RealTable t{1e-10};
  EXPECT_EQ(t.lookup(SQRT2_INV + 1e-13), SQRT2_INV);
  EXPECT_EQ(t.lookup(1.0 - 1e-13), 1.0);
  EXPECT_EQ(t.lookup(-0.5 + 1e-13), -0.5);
}

TEST(RealTable, HeadsGrowWithoutChangingAnyRepresentative) {
  // Every query is recorded with the representative it got. The heads then
  // double several times, and every recorded query must still get the
  // bit-identical value. Each round asks three kinds of query in a fresh
  // region: a random value; two values on either side of a bucket boundary
  // (the second merges into the first); and a value within tolerance of two
  // representatives of one bucket, which gets the newer one, so a resize
  // that reversed the chain order would hand back the older.
  const fp tol = 1e-10;
  const fp width = 4 * tol;
  RealTable t{tol};
  EXPECT_EQ(t.headCount(), RealTable::kMinHeads);
  std::vector<std::pair<fp, fp>> seen;  // (query, representative)
  const auto query = [&](fp x) {
    const fp r = t.lookup(x);
    seen.emplace_back(x, r);
    return r;
  };
  const auto expectUnchanged = [&] {
    for (const auto& [x, r] : seen) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(t.lookup(x)),
                std::bit_cast<std::uint64_t>(r))
          << "query " << x << " after growing to " << t.headCount();
    }
  };
  Xoshiro256 rng{2024};
  std::size_t heads = t.headCount();
  int doublings = 0;
  for (int round = 0; round < 4000; ++round) {
    (void)query(rng.uniform(-1, 1));
    const fp boundary = std::floor(rng.uniform(-1, 1) / width) * width;
    const fp below = query(boundary - tol / 4);
    EXPECT_EQ(query(boundary + tol / 4), below);
    const fp bucket = std::floor(rng.uniform(-1, 1) / width) * width;
    (void)query(bucket + tol / 2);
    const fp newer = query(bucket + 2 * tol);
    EXPECT_EQ(query(bucket + 1.25 * tol), newer);
    EXPECT_LE(t.headCount(), std::max(RealTable::kMinHeads, 2 * t.size()));
    if (t.headCount() != heads) {
      EXPECT_EQ(t.headCount(), 2 * heads);
      heads = t.headCount();
      ++doublings;
      expectUnchanged();
    }
  }
  EXPECT_GE(doublings, 6);
  expectUnchanged();

  // The GC rebuild empties the table: the heads go back to the minimum and
  // only the seeded constants remain.
  t.clear();
  EXPECT_EQ(t.headCount(), RealTable::kMinHeads);
  EXPECT_EQ(t.lookup(SQRT2_INV + 1e-13), SQRT2_INV);
  EXPECT_LT(t.size(), RealTable::kMinHeads);
}

TEST(ComplexTable, ComponentsCanonicalizedIndependently) {
  ComplexTable t{1e-10};
  const Complex a = t.lookup({0.25, 0.75});
  const Complex b = t.lookup({0.25 + 1e-12, 0.75 - 1e-12});
  EXPECT_TRUE(weightEqual(a, b));
  EXPECT_EQ(weightHash(a), weightHash(b));
}

TEST(ComplexTable, ZeroSnapsExactly) {
  ComplexTable t{1e-10};
  const Complex z = t.lookup({1e-12, -1e-12});
  EXPECT_EQ(z, Complex{});
}

TEST(ComplexTable, HashDistinguishesDistinctValues) {
  ComplexTable t{1e-10};
  const Complex a = t.lookup({0.1, 0.2});
  const Complex b = t.lookup({0.2, 0.1});
  EXPECT_NE(weightHash(a), weightHash(b));
}

TEST(ComplexTable, RandomizedIdempotence) {
  ComplexTable t{1e-10};
  Xoshiro256 rng{123};
  for (int i = 0; i < 2000; ++i) {
    const Complex z{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const Complex c1 = t.lookup(z);
    const Complex c2 = t.lookup(c1);
    EXPECT_TRUE(weightEqual(c1, c2));
    EXPECT_LT(std::abs(c1 - z), 2e-10);
  }
}

TEST(ComplexTable, SizeGrowsOnlyForNewValues) {
  ComplexTable t{1e-10};
  const std::size_t base = t.size();
  (void)t.lookup({0.33, 0.0});
  EXPECT_EQ(t.size(), base + 1);
  (void)t.lookup({0.33, 0.0});
  EXPECT_EQ(t.size(), base + 1);
  EXPECT_GT(t.memoryBytes(), 0u);
}

}  // namespace
}  // namespace fdd::dd
