// The vector kernels: one portable implementation.
//
// This translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt): the accumulation order below is the repo's bit-identity
// anchor — trained artifacts, journal replay and checkpoint restore all
// depend on it — and a compiler-contracted FMA would silently change its
// roundings.
//
// The reductions keep four partial sums over i % 4 and collapse them as
// (s0 + s1) + (s2 + s3) before the tail. That is the order of the 4-wide
// AVX2 kernels these replace, so models trained on AVX2 hosts stay
// byte-identical. Do not "improve" it with pairwise summation or a
// different lane count: tests/simd_test.cc pins it with exact goldens.
#include "common/simd.h"

namespace grafics::simd {

double Dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredL2Distance(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void Axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void DotMany(const double* query, const double* rows, std::size_t num_rows,
             std::size_t cols, double* out) {
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = Dot(query, rows + r * cols, cols);
  }
}

void SquaredL2DistanceMany(const double* query, const double* rows,
                           std::size_t num_rows, std::size_t cols,
                           double* out) {
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = SquaredL2Distance(query, rows + r * cols, cols);
  }
}

}  // namespace grafics::simd
