#pragma once
// SIMD kernels over contiguous and bit-strided complex arrays. These
// implement the paper's "SIMD-enabled scalar multiplication" (used by both
// the parallel DD-to-array conversion, Fig. 4b, and the DMAV cache, Alg. 2
// line 7), the buffer summation of Alg. 2 lines 11-13, and the fused/strided
// shapes the DmavPlan replay and ArraySimulator hot loops emit.
//
// Dispatch is resolved at runtime: the widest tier the build AND the
// executing CPU support wins (avx512 > avx2 > scalar). FLATDD_FORCE_SCALAR
// pins the scalar table; FLATDD_FORCE_TIER=<scalar|avx2|avx512> pins any
// tier. Both are validated — an unknown value or a tier this build/CPU
// cannot run warns once on stderr and falls back to the best available
// tier instead of silently changing meaning. Benchmarks and tests may
// switch tiers mid-process with setDispatchTier().

#include <cstddef>
#include <optional>

#include "common/types.hpp"

namespace fdd::simd {

enum class DispatchTier { Scalar, Avx2, Avx512 };

/// Human-readable tier name: "scalar", "avx2" or "avx512".
[[nodiscard]] const char* toString(DispatchTier tier) noexcept;

/// Inverse of toString (case-sensitive); nullopt for unknown names. This is
/// the FLATDD_FORCE_TIER parser, exposed so tests can cover the accepted
/// vocabulary without spawning processes.
[[nodiscard]] std::optional<DispatchTier> parseTierName(
    const char* name) noexcept;

/// The tier every kernel below currently dispatches to.
[[nodiscard]] DispatchTier activeTier() noexcept;

/// True when `tier` can be selected on this build + CPU.
[[nodiscard]] bool tierAvailable(DispatchTier tier) noexcept;

/// The widest tier this build + CPU can run (what dispatch resolves to when
/// no force override is set).
[[nodiscard]] DispatchTier bestAvailableTier() noexcept;

/// Force the active tier (for benchmarking / testing all paths in one
/// process). Returns false and leaves the tier unchanged when `tier` is not
/// available. Not thread-safe against concurrently running kernels; switch
/// only from the main thread between simulations.
bool setDispatchTier(DispatchTier tier) noexcept;

/// Number of double-precision MACs one vector instruction retires; this is
/// the `d` of the paper's cost model (Eq. 6). 8 on the AVX-512 tier, 4 on
/// AVX2, 1 on scalar. Runtime-resolved, so cost-model callers always see
/// the width that will actually execute.
[[nodiscard]] unsigned lanes() noexcept;

/// Lanes of an arbitrary tier (8 / 4 / 1), independent of what is active.
[[nodiscard]] unsigned lanesOf(DispatchTier tier) noexcept;

/// True when the active tier is exactly the AVX2 path (not AVX-512).
[[nodiscard]] bool avx2Enabled() noexcept;

/// True when the active tier is any vector path (lanes > 1).
[[nodiscard]] bool vectorEnabled() noexcept;

/// out[i] = s * in[i] for i in [0, n). out and in may not overlap, except
/// out == in (in-place scaling) which is allowed.
void scale(Complex* out, const Complex* in, Complex s, std::size_t n) noexcept;

/// out[i] += s * in[i] for i in [0, n). No overlap.
void scaleAccumulate(Complex* out, const Complex* in, Complex s,
                     std::size_t n) noexcept;

/// out[i] += in[i] for i in [0, n). No overlap.
void accumulate(Complex* out, const Complex* in, std::size_t n) noexcept;

/// Two-term fused MAC: out[i] += a * x[i] + b * y[i] for i in [0, n).
/// out may not overlap x or y; x and y may alias each other.
void mac2(Complex* out, const Complex* x, Complex a, const Complex* y,
          Complex b, std::size_t n) noexcept;

/// In-place 2x2 butterfly over two parallel spans: for i in [0, n),
///   (a[i], b[i]) = (u[0]*a[i] + u[1]*b[i], u[2]*a[i] + u[3]*b[i]).
/// u is the row-major 2x2 gate matrix. a and b may not overlap.
void butterfly(Complex* a, Complex* b, const Complex* u,
               std::size_t n) noexcept;

/// In-place 2x2 butterfly over adjacent pairs (target qubit 0): for i in
/// [0, nPairs), (s[2i], s[2i+1]) = U * (s[2i], s[2i+1]).
void butterflyAdjacent(Complex* s, const Complex* u,
                       std::size_t nPairs) noexcept;

/// Strided comb butterfly: butterfly() on sub-spans a + k*stride and
/// b + k*stride of `len` amplitudes, k in [0, count). Requires len <=
/// stride; the two combs must not overlap. A comb of len-1 teeth at stride
/// 2 with b == a + 1 is butterflyAdjacent().
void butterflyStrided(Complex* a, Complex* b, const Complex* u,
                      std::size_t count, std::size_t len,
                      std::size_t stride) noexcept;

/// Strided comb scale: out[k*stride + j] = s * in[k*stride + j] for
/// k in [0, count), j in [0, len). Requires len <= stride. Stores stay
/// strictly within the comb (no neighbouring element is touched), so combs
/// may butt against spans owned by other threads.
void scaleStrided(Complex* out, const Complex* in, Complex s,
                  std::size_t count, std::size_t len,
                  std::size_t stride) noexcept;

/// Strided comb MAC: out[k*stride + j] += s * in[k*stride + j].
void macStrided(Complex* out, const Complex* in, Complex s, std::size_t count,
                std::size_t len, std::size_t stride) noexcept;

/// Strided comb two-term MAC:
/// out[k*stride+j] += a * x[k*stride+j] + b * y[k*stride+j].
void mac2Strided(Complex* out, const Complex* x, Complex a, const Complex* y,
                 Complex b, std::size_t count, std::size_t len,
                 std::size_t stride) noexcept;

/// Sum of |v[i]|^2 — used for normalization checks.
[[nodiscard]] fp normSquared(const Complex* v, std::size_t n) noexcept;

/// Full complex pointwise product: out[i] = a[i] * b[i]. out may alias a or
/// b (element i only reads index i). The DiagRun op applies a fused
/// diagonal-gate-run's phase table with this in one sweep.
void mulPointwise(Complex* out, const Complex* a, const Complex* b,
                  std::size_t n) noexcept;

/// Dense m x m matrix (row-major u, m in {4, 8}) across m parallel spans:
/// out[j][i] = sum_l u[j*m+l] * in[l][i]. Output spans must not overlap the
/// input spans — the DenseBlock tile writes W from V.
void denseColumns(Complex* const* out, const Complex* const* in,
                  const Complex* u, unsigned m, std::size_t n) noexcept;

/// out[i] = 0 for i in [0, n).
void zeroFill(Complex* out, std::size_t n) noexcept;

}  // namespace fdd::simd
