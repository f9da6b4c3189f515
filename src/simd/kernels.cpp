// Runtime kernel dispatch. The active tier is resolved once, lazily, from
// (a) which translation units were compiled with vector support, (b) the
// FLATDD_FORCE_SCALAR / FLATDD_FORCE_TIER environment variables, and (c)
// cpuid (avx2+fma, avx512f+avx512dq). setDispatchTier() lets benchmarks and
// tests flip tables mid-process to time every path in one binary.
//
// Env validation: both variables are checked against the accepted
// vocabulary. An unknown value, or a tier the build/CPU cannot run, prints
// one warning to stderr and resolution falls back to the best available
// tier — never a silent semantic change.

#include "simd/kernels.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernel_table.hpp"

namespace fdd::simd {
namespace {

bool cpuHasAvx2Fma() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpuHasAvx512() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

const detail::KernelTable& tableFor(DispatchTier tier) noexcept {
  switch (tier) {
    case DispatchTier::Avx512: return detail::avx512Table();
    case DispatchTier::Avx2: return detail::avx2Table();
    case DispatchTier::Scalar: break;
  }
  return detail::scalarTable();
}

void warnOnce(std::atomic<bool>& flag, const char* fmt,
              const char* value) noexcept {
  if (!flag.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr, fmt, value);
  }
}

/// FLATDD_FORCE_SCALAR: "" / "0" = unset, "1" = scalar. Any other value is
/// treated as set (historical behavior) but warns once.
bool forceScalarEnv() noexcept {
  const char* v = std::getenv("FLATDD_FORCE_SCALAR");
  if (v == nullptr || v[0] == '\0') {
    return false;
  }
  if (v[0] == '0' && v[1] == '\0') {
    return false;
  }
  if (!(v[0] == '1' && v[1] == '\0')) {
    static std::atomic<bool> warned{false};
    warnOnce(warned,
             "flatdd: FLATDD_FORCE_SCALAR=%s is not \"0\" or \"1\"; "
             "treating it as \"1\" (scalar kernels)\n",
             v);
  }
  return true;
}

const detail::KernelTable* resolveBest() noexcept {
  if (detail::avx512Compiled() && cpuHasAvx512()) {
    return &detail::avx512Table();
  }
  if (detail::avx2Compiled() && cpuHasAvx2Fma()) {
    return &detail::avx2Table();
  }
  return &detail::scalarTable();
}

const detail::KernelTable* resolveDefault() noexcept {
  // FLATDD_FORCE_SCALAR predates FLATDD_FORCE_TIER and wins when both are
  // set — scripts that exported it keep their meaning.
  if (forceScalarEnv()) {
    return &detail::scalarTable();
  }
  if (const char* v = std::getenv("FLATDD_FORCE_TIER");
      v != nullptr && v[0] != '\0') {
    const std::optional<DispatchTier> tier = parseTierName(v);
    if (!tier.has_value()) {
      static std::atomic<bool> warnedUnknown{false};
      warnOnce(warnedUnknown,
               "flatdd: FLATDD_FORCE_TIER=%s is not a known tier "
               "(scalar|avx2|avx512); using the best available tier\n",
               v);
    } else if (!tierAvailable(*tier)) {
      static std::atomic<bool> warnedUnavailable{false};
      warnOnce(warnedUnavailable,
               "flatdd: FLATDD_FORCE_TIER=%s is not available on this "
               "build/CPU; using the best available tier\n",
               v);
    } else {
      return &tableFor(*tier);
    }
  }
  return resolveBest();
}

std::atomic<const detail::KernelTable*> gActive{nullptr};

const detail::KernelTable& active() noexcept {
  const detail::KernelTable* t = gActive.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = resolveDefault();
    gActive.store(t, std::memory_order_release);
  }
  return *t;
}

}  // namespace

const char* toString(DispatchTier tier) noexcept {
  switch (tier) {
    case DispatchTier::Avx512: return "avx512";
    case DispatchTier::Avx2: return "avx2";
    case DispatchTier::Scalar: break;
  }
  return "scalar";
}

std::optional<DispatchTier> parseTierName(const char* name) noexcept {
  if (name == nullptr) {
    return std::nullopt;
  }
  if (std::strcmp(name, "scalar") == 0) {
    return DispatchTier::Scalar;
  }
  if (std::strcmp(name, "avx2") == 0) {
    return DispatchTier::Avx2;
  }
  if (std::strcmp(name, "avx512") == 0) {
    return DispatchTier::Avx512;
  }
  return std::nullopt;
}

DispatchTier activeTier() noexcept {
  const detail::KernelTable* t = &active();
  // Compare against the real vector tables first: when a vector TU was not
  // compiled, its accessor aliases a lower tier and must not claim the name.
  if (detail::avx512Compiled() && t == &detail::avx512Table()) {
    return DispatchTier::Avx512;
  }
  if (detail::avx2Compiled() && t == &detail::avx2Table()) {
    return DispatchTier::Avx2;
  }
  return DispatchTier::Scalar;
}

bool tierAvailable(DispatchTier tier) noexcept {
  switch (tier) {
    case DispatchTier::Scalar:
      return true;
    case DispatchTier::Avx2:
      return detail::avx2Compiled() && cpuHasAvx2Fma();
    case DispatchTier::Avx512:
      return detail::avx512Compiled() && cpuHasAvx512();
  }
  return false;
}

DispatchTier bestAvailableTier() noexcept {
  if (tierAvailable(DispatchTier::Avx512)) {
    return DispatchTier::Avx512;
  }
  if (tierAvailable(DispatchTier::Avx2)) {
    return DispatchTier::Avx2;
  }
  return DispatchTier::Scalar;
}

bool setDispatchTier(DispatchTier tier) noexcept {
  if (!tierAvailable(tier)) {
    return false;
  }
  gActive.store(&tableFor(tier), std::memory_order_release);
  return true;
}

unsigned lanes() noexcept { return active().lanes; }

unsigned lanesOf(DispatchTier tier) noexcept {
  switch (tier) {
    case DispatchTier::Avx512: return 8;
    case DispatchTier::Avx2: return 4;
    case DispatchTier::Scalar: break;
  }
  return 1;
}

bool avx2Enabled() noexcept { return activeTier() == DispatchTier::Avx2; }

bool vectorEnabled() noexcept { return active().lanes > 1; }

void scale(Complex* out, const Complex* in, Complex s, std::size_t n) noexcept {
  active().scale(out, in, s, n);
}

void scaleAccumulate(Complex* out, const Complex* in, Complex s,
                     std::size_t n) noexcept {
  active().scaleAccumulate(out, in, s, n);
}

void accumulate(Complex* out, const Complex* in, std::size_t n) noexcept {
  active().accumulate(out, in, n);
}

void mac2(Complex* out, const Complex* x, Complex a, const Complex* y,
          Complex b, std::size_t n) noexcept {
  active().mac2(out, x, a, y, b, n);
}

void butterfly(Complex* a, Complex* b, const Complex* u,
               std::size_t n) noexcept {
  active().butterfly(a, b, u, n);
}

void butterflyAdjacent(Complex* s, const Complex* u,
                       std::size_t nPairs) noexcept {
  active().butterflyAdjacent(s, u, nPairs);
}

void butterflyStrided(Complex* a, Complex* b, const Complex* u,
                      std::size_t count, std::size_t len,
                      std::size_t stride) noexcept {
  active().butterflyStrided(a, b, u, count, len, stride);
}

void scaleStrided(Complex* out, const Complex* in, Complex s,
                  std::size_t count, std::size_t len,
                  std::size_t stride) noexcept {
  active().scaleStrided(out, in, s, count, len, stride);
}

void macStrided(Complex* out, const Complex* in, Complex s, std::size_t count,
                std::size_t len, std::size_t stride) noexcept {
  active().macStrided(out, in, s, count, len, stride);
}

void mac2Strided(Complex* out, const Complex* x, Complex a, const Complex* y,
                 Complex b, std::size_t count, std::size_t len,
                 std::size_t stride) noexcept {
  active().mac2Strided(out, x, a, y, b, count, len, stride);
}

fp normSquared(const Complex* v, std::size_t n) noexcept {
  return active().normSquared(v, n);
}

void mulPointwise(Complex* out, const Complex* a, const Complex* b,
                  std::size_t n) noexcept {
  active().mulPointwise(out, a, b, n);
}

void denseColumns(Complex* const* out, const Complex* const* in,
                  const Complex* u, unsigned m, std::size_t n) noexcept {
  active().denseColumns(out, in, u, m, n);
}

void zeroFill(Complex* out, std::size_t n) noexcept {
  if (n != 0) {  // an empty buffer's data() may be null, which memset forbids
    std::memset(static_cast<void*>(out), 0, n * sizeof(Complex));
  }
}

}  // namespace fdd::simd
