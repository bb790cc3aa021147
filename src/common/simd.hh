/**
 * @file
 * Elementwise f64 kernels for the digest/balance load planes.
 *
 * The SoA rework (ROADMAP item 5) flattens the per-slot walks into
 * contiguous arrays precisely so the inner loops become the two
 * elementwise kernels below: unit-stride, branch-free, with all the
 * irregular work (gathers, scatter-increments) hoisted out.
 *
 * Plain `__restrict` loops are enough. Without target flags, gcc
 * vectorizes them at -O3 (the Release build perfbench times) or -O2
 * -ftree-vectorize, and clang at -O2; the CI spot-check compiles them
 * with -fopt-info-vec / -Rpass=loop-vectorize and requires both to
 * vectorize. Vectorizing cannot move a result bit:
 *
 *   - each kernel is purely elementwise (dst[i] op src[i] with one
 *     shared scalar), so lane order never changes the rounding — no
 *     horizontal reductions, no re-association;
 *   - the default x86-64 target has no FMA, so `dst[i] + w * src[i]`
 *     is never contracted into one rounding.
 */

#ifndef DITILE_COMMON_SIMD_HH
#define DITILE_COMMON_SIMD_HH

#include <cstddef>

namespace ditile::simd {

/**
 * dst[i] += w * src[i] for i in [0, n). The Eq.-17 load-accumulation
 * kernel (one multiply and one add per element, weight shared across
 * the array).
 */
inline void
f64Axpy(double *__restrict dst, const double *__restrict src, double w,
        std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] += w * src[i];
}

/** dst[i] += src[i] over f64 (the totalLoads ascending-t merge). */
inline void
f64Add(double *__restrict dst, const double *__restrict src,
       std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] += src[i];
}

} // namespace ditile::simd

#endif // DITILE_COMMON_SIMD_HH
