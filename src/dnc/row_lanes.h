/**
 * @file
 * Row-parallel AVX2 dot products for the memory kernels: lane k of a
 * 256-bit accumulator carries row k's dot product, so four rows' chains
 * advance in one vector add.
 *
 * A row's scalar dot is one serial chain, `acc += row[c] * x[c]` for
 * ascending c, and its latency is one floating-point add per column. A
 * lane carries exactly that chain: the accumulator starts at +0.0, each
 * column adds its product in ascending c, and the multiply and the add
 * round separately (the hot translation units build with
 * -ffp-contract=off). Every lane therefore ends on the same bits as the
 * scalar loop, while G accumulators (4G rows) keep G chains in flight.
 *
 * Columns reach the lanes two at a time. Two 128-bit loads per register
 * fetch rows (0, 2) and (1, 3) at columns (c, c + 1), and one unpack
 * pair turns them into column vectors. That is two shuffles per four
 * rows and two columns, half the cost of a full 4 x 4 register
 * transpose. The bodies need an even width; callers keep their scalar
 * loops for odd widths, short runs and non-AVX2 builds.
 */

#ifndef HIMA_DNC_ROW_LANES_H
#define HIMA_DNC_ROW_LANES_H

#include "common/tensor.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace hima {

#if defined(__AVX2__)

/** Rows per accumulator: one row per 64-bit lane. */
constexpr Index kRowLanes = 4;

/**
 * Dots of the 4G consecutive rows at `base` (row k starts at
 * base + k * stride) with `x`, or with themselves when `Self` (x is
 * then unused): lane l of acc[g] ends on row 4g + l's serial ascending-c
 * chain. `w` must be even.
 */
template <int G, bool Self>
inline void
rowLaneDots(const Real *base, Index stride, const Real *x, Index w,
            __m256d (&acc)[G])
{
    for (int g = 0; g < G; ++g)
        acc[g] = _mm256_setzero_pd();
    for (Index c = 0; c < w; c += 2) {
        __m256d x0 = _mm256_setzero_pd();
        __m256d x1 = _mm256_setzero_pd();
        if constexpr (!Self) {
            x0 = _mm256_broadcast_sd(x + c);
            x1 = _mm256_broadcast_sd(x + c + 1);
        }
        for (int g = 0; g < G; ++g) {
            const Real *r0 = base + (4 * g) * stride + c;
            const __m256d a = _mm256_insertf128_pd(
                _mm256_castpd128_pd256(_mm_loadu_pd(r0)),
                _mm_loadu_pd(r0 + 2 * stride), 1);
            const __m256d b = _mm256_insertf128_pd(
                _mm256_castpd128_pd256(_mm_loadu_pd(r0 + stride)),
                _mm_loadu_pd(r0 + 3 * stride), 1);
            const __m256d col0 = _mm256_unpacklo_pd(a, b);
            const __m256d col1 = _mm256_unpackhi_pd(a, b);
            if constexpr (Self) {
                acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(col0, col0));
                acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(col1, col1));
            } else {
                acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(col0, x0));
                acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(col1, x1));
            }
        }
    }
}

/**
 * L2 norms of `rows` consecutive rows (a multiple of kRowLanes) into
 * norms[0, rows): each lane's c-ascending acc += v*v chain, then a
 * correctly rounded square root, as the scalar loop computes it. Blocks
 * of 16 rows keep four chains in flight. `w` must be even.
 */
inline void
rowLaneNormsInto(const Real *base, Index stride, Index w, Index rows,
                 Real *norms)
{
    Index i = 0;
    for (; i + 4 * kRowLanes <= rows; i += 4 * kRowLanes) {
        __m256d acc[4];
        rowLaneDots<4, true>(base + i * stride, stride, nullptr, w, acc);
        for (Index g = 0; g < 4; ++g)
            _mm256_storeu_pd(norms + i + g * kRowLanes,
                             _mm256_sqrt_pd(acc[g]));
    }
    for (; i < rows; i += kRowLanes) {
        __m256d acc[1];
        rowLaneDots<1, true>(base + i * stride, stride, nullptr, w, acc);
        _mm256_storeu_pd(norms + i, _mm256_sqrt_pd(acc[0]));
    }
}

#endif // __AVX2__

} // namespace hima

#endif // HIMA_DNC_ROW_LANES_H
