// Vector kernels for the inference/fold hot path.
//
// Every per-query and per-fold cycle in GRAFICS bottoms out in three
// BLAS-level-1 loops — dot products, axpy, and squared-L2 distances — called
// from the online-refinement SGD inner loop (embed/trainer.cc), the
// centroid/kNN distance scans (cluster/), and agglomeration
// (cluster/proximity_clusterer.cc). This header is the single place those
// loops are implemented, as one portable implementation in simd.cc.
//
// Shapes: the one-to-one kernels (Dot / SquaredL2Distance / Axpy) operate on
// raw contiguous arrays; the one-to-many kernels (DotMany /
// SquaredL2DistanceMany) scan one query row against a contiguous row-major
// block — the shape the centroid and kNN classifiers actually have — so a
// whole scan is one call with no per-row span slicing.
//
// Determinism (see docs/performance.md): Dot and SquaredL2Distance keep four
// partial sums over i % 4, collapse them as (s0 + s1) + (s2 + s3), then add
// the n % 4 tail left to right; Axpy is element-wise. simd.cc is compiled
// with -ffp-contract=off, so the same build flags give the same bits on
// every host. The kernels stay out of line for that reason: a caller's
// translation unit may be built with FMA contraction.
//
// No bounds checks here: callers (common/matrix.cc free functions, the
// trainer, the classifiers) validate sizes first. `n`/`cols` may be zero.
#pragma once

#include <cstddef>

namespace grafics::simd {

double Dot(const double* a, const double* b, std::size_t n);
double SquaredL2Distance(const double* a, const double* b, std::size_t n);
/// y += alpha * x
void Axpy(double alpha, const double* x, double* y, std::size_t n);
/// out[r] = Dot(query, rows + r * cols, cols) for r in [0, num_rows).
void DotMany(const double* query, const double* rows, std::size_t num_rows,
             std::size_t cols, double* out);
/// out[r] = SquaredL2Distance(query, rows + r * cols, cols).
void SquaredL2DistanceMany(const double* query, const double* rows,
                           std::size_t num_rows, std::size_t cols,
                           double* out);

}  // namespace grafics::simd
