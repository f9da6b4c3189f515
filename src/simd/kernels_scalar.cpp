// Scalar reference tier: straight std::complex loops. This is both the
// portable fallback and the baseline the randomized equivalence tests and
// bench/kernels compare the vector tier against.

#include "simd/kernel_table.hpp"

namespace fdd::simd::detail {
namespace {

void scaleK(Complex* out, const Complex* in, Complex s,
            std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = s * in[i];
  }
}

void scaleAccumulateK(Complex* out, const Complex* in, Complex s,
                      std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] += s * in[i];
  }
}

void accumulateK(Complex* out, const Complex* in, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] += in[i];
  }
}

void mac2K(Complex* out, const Complex* x, Complex a, const Complex* y,
           Complex b, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] += a * x[i] + b * y[i];
  }
}

void butterflyK(Complex* a, Complex* b, const Complex* u,
                std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const Complex x = a[i];
    const Complex y = b[i];
    a[i] = u[0] * x + u[1] * y;
    b[i] = u[2] * x + u[3] * y;
  }
}

void butterflyAdjacentK(Complex* s, const Complex* u,
                        std::size_t nPairs) noexcept {
  for (std::size_t i = 0; i < nPairs; ++i) {
    const Complex x = s[2 * i];
    const Complex y = s[2 * i + 1];
    s[2 * i] = u[0] * x + u[1] * y;
    s[2 * i + 1] = u[2] * x + u[3] * y;
  }
}

void butterflyStridedK(Complex* a, Complex* b, const Complex* u,
                       std::size_t count, std::size_t len,
                       std::size_t stride) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    butterflyK(a + k * stride, b + k * stride, u, len);
  }
}

void scaleStridedK(Complex* out, const Complex* in, Complex s,
                   std::size_t count, std::size_t len,
                   std::size_t stride) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t base = k * stride;
    for (std::size_t j = 0; j < len; ++j) {
      out[base + j] = s * in[base + j];
    }
  }
}

void macStridedK(Complex* out, const Complex* in, Complex s, std::size_t count,
                 std::size_t len, std::size_t stride) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t base = k * stride;
    for (std::size_t j = 0; j < len; ++j) {
      out[base + j] += s * in[base + j];
    }
  }
}

void mac2StridedK(Complex* out, const Complex* x, Complex a, const Complex* y,
                  Complex b, std::size_t count, std::size_t len,
                  std::size_t stride) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t base = k * stride;
    for (std::size_t j = 0; j < len; ++j) {
      out[base + j] += a * x[base + j] + b * y[base + j];
    }
  }
}

fp normSquaredK(const Complex* v, std::size_t n) noexcept {
  fp sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += norm2(v[i]);
  }
  return sum;
}

void mulPointwiseK(Complex* out, const Complex* a, const Complex* b,
                   std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

void denseColumnsK(Complex* const* out, const Complex* const* in,
                   const Complex* u, unsigned m, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
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

const KernelTable& scalarTable() noexcept {
  static const KernelTable table{
      /*lanes=*/1,          &scaleK,      &scaleAccumulateK,
      &accumulateK,         &mac2K,       &butterflyK,
      &butterflyAdjacentK,  &butterflyStridedK, &scaleStridedK, &macStridedK,
      &mac2StridedK,        &normSquaredK,  &mulPointwiseK,
      &denseColumnsK,
  };
  return table;
}

}  // namespace fdd::simd::detail
