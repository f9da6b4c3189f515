// AVX2+FMA tier. This translation unit is the only one compiled with
// -mavx2 -mfma (per-source property in src/CMakeLists.txt, signalled by
// FLATDD_AVX2_TU); everything else stays at the base ISA so the binary runs
// on non-AVX2 hosts and merely dispatches to the scalar table there.
//
// A 256-bit register holds two interleaved complex doubles [r0 i0 r1 i1].
// Complex scalar product per register:
//   even slots:  sr*r - si*i
//   odd  slots:  sr*i + si*r
// which is exactly vaddsubpd(v*sr, swap(v)*si).

#include "simd/kernel_table.hpp"

#if defined(FLATDD_AVX2_TU) && defined(__AVX2__) && defined(__FMA__)
#define FLATDD_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace fdd::simd::detail {

#if defined(FLATDD_HAVE_AVX2_KERNELS)

namespace {

inline __m256d complexScale(__m256d v, __m256d sr, __m256d si) noexcept {
  const __m256d swapped = _mm256_permute_pd(v, 0b0101);
  // fmaddsub computes v*sr -/+ swapped*si in one op (even lanes subtract,
  // odd lanes add) — exactly the complex-product sign pattern.
  return _mm256_fmaddsub_pd(v, sr, _mm256_mul_pd(swapped, si));
}

void scaleK(Complex* out, const Complex* in, Complex s,
            std::size_t n) noexcept {
  const __m256d sr = _mm256_set1_pd(s.real());
  const __m256d si = _mm256_set1_pd(s.imag());
  auto* o = reinterpret_cast<double*>(out);
  const auto* p = reinterpret_cast<const double*>(in);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d v = _mm256_loadu_pd(p + 2 * i);
    _mm256_storeu_pd(o + 2 * i, complexScale(v, sr, si));
  }
  for (; i < n; ++i) {
    out[i] = s * in[i];
  }
}

void scaleAccumulateK(Complex* out, const Complex* in, Complex s,
                      std::size_t n) noexcept {
  const __m256d sr = _mm256_set1_pd(s.real());
  const __m256d si = _mm256_set1_pd(s.imag());
  auto* o = reinterpret_cast<double*>(out);
  const auto* p = reinterpret_cast<const double*>(in);
  std::size_t i = 0;
  // Unrolled x4 with prefetch 512B ahead: the accumulate target is
  // typically cache-hot (DMAV partial-output buffer) while the input
  // streams from L3, so hiding the input load latency is what pays.
  for (; i + 8 <= n; i += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(p + 2 * i) + 512, _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(p + 2 * i) + 576, _MM_HINT_T0);
    const __m256d v0 = _mm256_loadu_pd(p + 2 * i);
    const __m256d v1 = _mm256_loadu_pd(p + 2 * i + 4);
    const __m256d v2 = _mm256_loadu_pd(p + 2 * i + 8);
    const __m256d v3 = _mm256_loadu_pd(p + 2 * i + 12);
    const __m256d a0 = _mm256_loadu_pd(o + 2 * i);
    const __m256d a1 = _mm256_loadu_pd(o + 2 * i + 4);
    const __m256d a2 = _mm256_loadu_pd(o + 2 * i + 8);
    const __m256d a3 = _mm256_loadu_pd(o + 2 * i + 12);
    _mm256_storeu_pd(o + 2 * i, _mm256_add_pd(a0, complexScale(v0, sr, si)));
    _mm256_storeu_pd(o + 2 * i + 4,
                     _mm256_add_pd(a1, complexScale(v1, sr, si)));
    _mm256_storeu_pd(o + 2 * i + 8,
                     _mm256_add_pd(a2, complexScale(v2, sr, si)));
    _mm256_storeu_pd(o + 2 * i + 12,
                     _mm256_add_pd(a3, complexScale(v3, sr, si)));
  }
  for (; i + 2 <= n; i += 2) {
    const __m256d v = _mm256_loadu_pd(p + 2 * i);
    const __m256d acc = _mm256_loadu_pd(o + 2 * i);
    _mm256_storeu_pd(o + 2 * i, _mm256_add_pd(acc, complexScale(v, sr, si)));
  }
  for (; i < n; ++i) {
    out[i] += s * in[i];
  }
}

void accumulateK(Complex* out, const Complex* in, std::size_t n) noexcept {
  auto* o = reinterpret_cast<double*>(out);
  const auto* p = reinterpret_cast<const double*>(in);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d a = _mm256_loadu_pd(o + 2 * i);
    const __m256d b = _mm256_loadu_pd(p + 2 * i);
    _mm256_storeu_pd(o + 2 * i, _mm256_add_pd(a, b));
  }
  for (; i < n; ++i) {
    out[i] += in[i];
  }
}

void mac2K(Complex* out, const Complex* x, Complex a, const Complex* y,
           Complex b, std::size_t n) noexcept {
  const __m256d ar = _mm256_set1_pd(a.real());
  const __m256d ai = _mm256_set1_pd(a.imag());
  const __m256d br = _mm256_set1_pd(b.real());
  const __m256d bi = _mm256_set1_pd(b.imag());
  auto* o = reinterpret_cast<double*>(out);
  const auto* px = reinterpret_cast<const double*>(x);
  const auto* py = reinterpret_cast<const double*>(y);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_prefetch(reinterpret_cast<const char*>(px + 2 * i) + 256,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(py + 2 * i) + 256,
                 _MM_HINT_T0);
    __m256d a0 = _mm256_loadu_pd(o + 2 * i);
    __m256d a1 = _mm256_loadu_pd(o + 2 * i + 4);
    a0 = _mm256_add_pd(a0,
                       complexScale(_mm256_loadu_pd(px + 2 * i), ar, ai));
    a1 = _mm256_add_pd(a1,
                       complexScale(_mm256_loadu_pd(px + 2 * i + 4), ar, ai));
    a0 = _mm256_add_pd(a0,
                       complexScale(_mm256_loadu_pd(py + 2 * i), br, bi));
    a1 = _mm256_add_pd(a1,
                       complexScale(_mm256_loadu_pd(py + 2 * i + 4), br, bi));
    _mm256_storeu_pd(o + 2 * i, a0);
    _mm256_storeu_pd(o + 2 * i + 4, a1);
  }
  for (; i + 2 <= n; i += 2) {
    __m256d acc = _mm256_loadu_pd(o + 2 * i);
    acc = _mm256_add_pd(acc,
                        complexScale(_mm256_loadu_pd(px + 2 * i), ar, ai));
    acc = _mm256_add_pd(acc,
                        complexScale(_mm256_loadu_pd(py + 2 * i), br, bi));
    _mm256_storeu_pd(o + 2 * i, acc);
  }
  for (; i < n; ++i) {
    out[i] += a * x[i] + b * y[i];
  }
}

void butterflyK(Complex* a, Complex* b, const Complex* u,
                std::size_t n) noexcept {
  const __m256d u0r = _mm256_set1_pd(u[0].real());
  const __m256d u0i = _mm256_set1_pd(u[0].imag());
  const __m256d u1r = _mm256_set1_pd(u[1].real());
  const __m256d u1i = _mm256_set1_pd(u[1].imag());
  const __m256d u2r = _mm256_set1_pd(u[2].real());
  const __m256d u2i = _mm256_set1_pd(u[2].imag());
  const __m256d u3r = _mm256_set1_pd(u[3].real());
  const __m256d u3i = _mm256_set1_pd(u[3].imag());
  auto* pa = reinterpret_cast<double*>(a);
  auto* pb = reinterpret_cast<double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(pa + 2 * i);
    const __m256d vb = _mm256_loadu_pd(pb + 2 * i);
    const __m256d na =
        _mm256_add_pd(complexScale(va, u0r, u0i), complexScale(vb, u1r, u1i));
    const __m256d nb =
        _mm256_add_pd(complexScale(va, u2r, u2i), complexScale(vb, u3r, u3i));
    _mm256_storeu_pd(pa + 2 * i, na);
    _mm256_storeu_pd(pb + 2 * i, nb);
  }
  for (; i < n; ++i) {
    const Complex x = a[i];
    const Complex y = b[i];
    a[i] = u[0] * x + u[1] * y;
    b[i] = u[2] * x + u[3] * y;
  }
}

void butterflyAdjacentK(Complex* s, const Complex* u,
                        std::size_t nPairs) noexcept {
  const __m256d u0r = _mm256_set1_pd(u[0].real());
  const __m256d u0i = _mm256_set1_pd(u[0].imag());
  const __m256d u1r = _mm256_set1_pd(u[1].real());
  const __m256d u1i = _mm256_set1_pd(u[1].imag());
  const __m256d u2r = _mm256_set1_pd(u[2].real());
  const __m256d u2i = _mm256_set1_pd(u[2].imag());
  const __m256d u3r = _mm256_set1_pd(u[3].real());
  const __m256d u3i = _mm256_set1_pd(u[3].imag());
  auto* p = reinterpret_cast<double*>(s);
  std::size_t i = 0;
  // Two adjacent pairs per iteration: deinterleave [a0 b0][a1 b1] into
  // [a0 a1] / [b0 b1] with cross-lane permutes, apply the 2x2, reinterleave.
  for (; i + 2 <= nPairs; i += 2) {
    const __m256d v0 = _mm256_loadu_pd(p + 4 * i);
    const __m256d v1 = _mm256_loadu_pd(p + 4 * i + 4);
    const __m256d va = _mm256_permute2f128_pd(v0, v1, 0x20);
    const __m256d vb = _mm256_permute2f128_pd(v0, v1, 0x31);
    const __m256d na =
        _mm256_add_pd(complexScale(va, u0r, u0i), complexScale(vb, u1r, u1i));
    const __m256d nb =
        _mm256_add_pd(complexScale(va, u2r, u2i), complexScale(vb, u3r, u3i));
    _mm256_storeu_pd(p + 4 * i, _mm256_permute2f128_pd(na, nb, 0x20));
    _mm256_storeu_pd(p + 4 * i + 4, _mm256_permute2f128_pd(na, nb, 0x31));
  }
  for (; i < nPairs; ++i) {
    const Complex x = s[2 * i];
    const Complex y = s[2 * i + 1];
    s[2 * i] = u[0] * x + u[1] * y;
    s[2 * i + 1] = u[2] * x + u[3] * y;
  }
}

// Strided combs vectorize the inner span when len >= 2 (one register per two
// complexes). A len == 1 stride == 2 comb — the shape every low-qubit gate
// collapses to — is vectorized by blending: load two adjacent complexes,
// scale both, keep the untouched odd lane's original bits in the store. The
// blend rewrites odd-lane bytes with the values just loaded, which is safe
// because those bytes lie inside the comb extent minus one, i.e. inside the
// same plan block / ArraySimulator chunk and therefore the same thread; the
// final comb is done scalar so no store reaches the extent boundary. Other
// len == 1 shapes defer to the scalar table — the plain indexed loop
// auto-vectorizes badly under -mavx2 (gather/scatter), so reusing the
// scalar TU's codegen is strictly faster.
template <bool Accumulate>
void scaleStride2Lane0(Complex* out, const Complex* in, Complex s,
                       std::size_t count) noexcept {
  const __m256d sr = _mm256_set1_pd(s.real());
  const __m256d si = _mm256_set1_pd(s.imag());
  auto* o = reinterpret_cast<double*>(out);
  const auto* p = reinterpret_cast<const double*>(in);
  std::size_t k = 0;
  for (; k + 1 < count; ++k) {  // last comb scalar: keep stores < extent
    const __m256d v = _mm256_loadu_pd(p + 4 * k);
    __m256d r = complexScale(v, sr, si);
    if constexpr (Accumulate) {
      r = _mm256_add_pd(_mm256_loadu_pd(o + 4 * k), r);
    }
    const __m256d keep = _mm256_loadu_pd(o + 4 * k);
    _mm256_storeu_pd(o + 4 * k, _mm256_blend_pd(r, keep, 0b1100));
  }
  for (; k < count; ++k) {
    if constexpr (Accumulate) {
      out[2 * k] += s * in[2 * k];
    } else {
      out[2 * k] = s * in[2 * k];
    }
  }
}

void butterflyStridedK(Complex* a, Complex* b, const Complex* u,
                       std::size_t count, std::size_t len,
                       std::size_t stride) noexcept {
  if (len == 1 && stride == 2 && b == a + 1) {
    butterflyAdjacentK(a, u, count);
  } else if (len == 1) {
    // Isolated pairs: two teeth per register, one in each 128-bit half.
    const __m256d u0r = _mm256_set1_pd(u[0].real());
    const __m256d u0i = _mm256_set1_pd(u[0].imag());
    const __m256d u1r = _mm256_set1_pd(u[1].real());
    const __m256d u1i = _mm256_set1_pd(u[1].imag());
    const __m256d u2r = _mm256_set1_pd(u[2].real());
    const __m256d u2i = _mm256_set1_pd(u[2].imag());
    const __m256d u3r = _mm256_set1_pd(u[3].real());
    const __m256d u3i = _mm256_set1_pd(u[3].imag());
    auto* pa = reinterpret_cast<double*>(a);
    auto* pb = reinterpret_cast<double*>(b);
    const std::size_t step = 2 * stride;  // doubles between teeth
    std::size_t k = 0;
    for (; k + 2 <= count; k += 2) {
      double* a0 = pa + k * step;
      double* b0 = pb + k * step;
      const __m256d va = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(a0)), _mm_loadu_pd(a0 + step),
          1);
      const __m256d vb = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(b0)), _mm_loadu_pd(b0 + step),
          1);
      const __m256d na = _mm256_add_pd(complexScale(va, u0r, u0i),
                                       complexScale(vb, u1r, u1i));
      const __m256d nb = _mm256_add_pd(complexScale(va, u2r, u2i),
                                       complexScale(vb, u3r, u3i));
      _mm_storeu_pd(a0, _mm256_castpd256_pd128(na));
      _mm_storeu_pd(a0 + step, _mm256_extractf128_pd(na, 1));
      _mm_storeu_pd(b0, _mm256_castpd256_pd128(nb));
      _mm_storeu_pd(b0 + step, _mm256_extractf128_pd(nb, 1));
    }
    if (k < count) {
      butterflyK(a + k * stride, b + k * stride, u, 1);
    }
  } else {
    for (std::size_t k = 0; k < count; ++k) {
      butterflyK(a + k * stride, b + k * stride, u, len);
    }
  }
}

void scaleStridedK(Complex* out, const Complex* in, Complex s,
                   std::size_t count, std::size_t len,
                   std::size_t stride) noexcept {
  if (len == 1) {
    if (stride == 2) {
      scaleStride2Lane0<false>(out, in, s, count);
    } else {
      scalarTable().scaleStrided(out, in, s, count, len, stride);
    }
    return;
  }
  for (std::size_t k = 0; k < count; ++k) {
    scaleK(out + k * stride, in + k * stride, s, len);
  }
}

void macStridedK(Complex* out, const Complex* in, Complex s, std::size_t count,
                 std::size_t len, std::size_t stride) noexcept {
  if (len == 1) {
    if (stride == 2) {
      scaleStride2Lane0<true>(out, in, s, count);
    } else {
      scalarTable().macStrided(out, in, s, count, len, stride);
    }
    return;
  }
  for (std::size_t k = 0; k < count; ++k) {
    scaleAccumulateK(out + k * stride, in + k * stride, s, len);
  }
}

void mac2StridedK(Complex* out, const Complex* x, Complex a, const Complex* y,
                  Complex b, std::size_t count, std::size_t len,
                  std::size_t stride) noexcept {
  if (len == 1) {
    scalarTable().mac2Strided(out, x, a, y, b, count, len, stride);
    return;
  }
  for (std::size_t k = 0; k < count; ++k) {
    mac2K(out + k * stride, x + k * stride, a, y + k * stride, b, len);
  }
}

fp normSquaredK(const Complex* v, std::size_t n) noexcept {
  const auto* p = reinterpret_cast<const double*>(v);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d x = _mm256_loadu_pd(p + 2 * i);
    acc = _mm256_fmadd_pd(x, x, acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  fp sum = lane[0] + lane[1] + lane[2] + lane[3];
  for (; i < n; ++i) {
    sum += norm2(v[i]);
  }
  return sum;
}

void mulPointwiseK(Complex* out, const Complex* a, const Complex* b,
                   std::size_t n) noexcept {
  auto* o = reinterpret_cast<double*>(out);
  const auto* pa = reinterpret_cast<const double*>(a);
  const auto* pb = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(pa + 2 * i);
    const __m256d vb = _mm256_loadu_pd(pb + 2 * i);
    // Per-element complexScale: the coefficient is a vector, so the real
    // parts come from movedup (even lanes) and the imaginaries from the odd
    // lanes duplicated.
    const __m256d br = _mm256_movedup_pd(vb);
    const __m256d bi = _mm256_permute_pd(vb, 0b1111);
    _mm256_storeu_pd(o + 2 * i, complexScale(va, br, bi));
  }
  for (; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

void denseColumnsK(Complex* const* out, const Complex* const* in,
                   const Complex* u, unsigned m, std::size_t n) noexcept {
  // Broadcast the matrix once; the spill to stack stays L1-hot across the
  // whole tile while the column loads stream.
  __m256d ur[64];
  __m256d ui[64];
  for (unsigned j = 0; j < m * m; ++j) {
    ur[j] = _mm256_set1_pd(u[j].real());
    ui[j] = _mm256_set1_pd(u[j].imag());
  }
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m256d acc[8];
    for (unsigned j = 0; j < m; ++j) {
      acc[j] = _mm256_setzero_pd();
    }
    for (unsigned l = 0; l < m; ++l) {
      const __m256d v =
          _mm256_loadu_pd(reinterpret_cast<const double*>(in[l] + i));
      for (unsigned j = 0; j < m; ++j) {
        acc[j] = _mm256_add_pd(acc[j],
                               complexScale(v, ur[j * m + l], ui[j * m + l]));
      }
    }
    for (unsigned j = 0; j < m; ++j) {
      _mm256_storeu_pd(reinterpret_cast<double*>(out[j] + i), acc[j]);
    }
  }
  for (; i < n; ++i) {
    Complex x[8];
    for (unsigned l = 0; l < m; ++l) {
      x[l] = in[l][i];
    }
    for (unsigned j = 0; j < m; ++j) {
      Complex acc{};
      for (unsigned l = 0; l < m; ++l) {
        acc += u[j * m + l] * x[l];
      }
      out[j][i] = acc;
    }
  }
}

}  // namespace

bool avx2Compiled() noexcept { return true; }

const KernelTable& avx2Table() noexcept {
  static const KernelTable table{
      /*lanes=*/4,          &scaleK,      &scaleAccumulateK,
      &accumulateK,         &mac2K,       &butterflyK,
      &butterflyAdjacentK,  &butterflyStridedK, &scaleStridedK, &macStridedK,
      &mac2StridedK,        &normSquaredK,  &mulPointwiseK,
      &denseColumnsK,
  };
  return table;
}

#else  // no AVX2 in this build: alias the scalar table

bool avx2Compiled() noexcept { return false; }

const KernelTable& avx2Table() noexcept { return scalarTable(); }

#endif

}  // namespace fdd::simd::detail
