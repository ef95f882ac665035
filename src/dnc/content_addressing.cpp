#include "dnc/content_addressing.h"

#include <cmath>
#include <optional>

#include "common/math_util.h"
#include "dnc/row_lanes.h"

namespace hima {

ContentAddressing::ContentAddressing(bool approximate, int segments,
                                     Real skipThreshold)
    : skipThreshold_(skipThreshold)
{
    HIMA_ASSERT(skipThreshold_ >= 0.0, "negative read skip threshold");
    if (approximate)
        approx_ = std::make_unique<SoftmaxApprox>(segments);
}

Vector
ContentAddressing::weighting(const Matrix &memory, const Vector &key,
                             Real strength, KernelProfiler *profiler) const
{
    Vector scores;
    Vector out;
    weightingInto(memory, key, strength, nullptr, scores, out, profiler);
    return out;
}

void
ContentAddressing::weightingInto(const Matrix &memory, const Vector &key,
                                 Real strength,
                                 const Vector *cachedRowNorms,
                                 Vector &scores, Vector &out,
                                 KernelProfiler *profiler) const
{
    HIMA_ASSERT(memory.cols() == key.size(),
                "key width %zu != memory width %zu",
                key.size(), memory.cols());
    const Index n = memory.rows();
    const Index w = memory.cols();
    scores.resize(n);
    out.resize(n);

    // CW/CR.(1) Normalize: row norms and the key norm. With a cache the
    // row norms are already maintained by the memory write; the hardware
    // cost model is charged identically either way (the accelerator
    // normalizes every row each lookup — only the simulator skips work).
    const Real *rowNorms = nullptr;
    Real keyNorm = 0.0;
    {
        std::optional<KernelScope> scope;
        if (profiler)
            scope.emplace(*profiler, Kernel::Normalize);
        if (cachedRowNorms) {
            HIMA_ASSERT(cachedRowNorms->size() == n,
                        "row-norm cache length %zu != rows %zu",
                        cachedRowNorms->size(), n);
            rowNorms = cachedRowNorms->data();
        } else {
            // No cache: compute the norms into `out`, which is free as
            // scratch until the softmax at the end overwrites it.
            Real *fresh = out.data();
            for (Index i = 0; i < n; ++i) {
                const Real *row = memory.rowPtr(i);
                Real acc = 0.0;
                for (Index c = 0; c < w; ++c)
                    acc += row[c] * row[c];
                fresh[i] = std::sqrt(acc);
            }
            rowNorms = fresh;
        }
        keyNorm = key.norm();
        if (profiler) {
            auto &c = profiler->at(Kernel::Normalize);
            c.macOps += n * w + w;       // squared accumulations
            c.specialOps += n + 1;       // square roots
            c.extMemAccesses += n * w;   // every memory word read
            c.stateMemAccesses += w;     // the key
        }
    }

    // CW/CR.(2) Similarity: cosine scores sharpened and softmaxed.
    {
        std::optional<KernelScope> scope;
        if (profiler)
            scope.emplace(*profiler, Kernel::Similarity);
        constexpr Real eps = 1e-6;
        const Real *pkey = key.data();
        Real *ps = scores.data();
        // Every row's dot is one c-ascending chain, whichever body runs
        // it, so the bodies agree bit for bit. With AVX2 and an even
        // width, blocks of 16 rows run as four row-parallel
        // accumulators (row_lanes.h: one lane per row, four chains per
        // vector add) and the sharpening runs lane for lane. Shorter
        // runs, odd widths and non-AVX2 builds take four rows at a
        // time, one scalar accumulator each, so four chains still
        // overlap instead of serializing on add latency. Run alignment
        // does not affect bits, so the sparse path below reuses the
        // same bodies over runs of consecutive active rows.
        const auto scoreRun = [&](Index beg, Index end) {
            Index i = beg;
#if defined(__AVX2__)
            if (w % 2 == 0) {
                const __m256d s = _mm256_set1_pd(strength);
                const __m256d kn = _mm256_set1_pd(keyNorm);
                const __m256d e = _mm256_set1_pd(eps);
                for (; i + 4 * kRowLanes <= end; i += 4 * kRowLanes) {
                    __m256d acc[4];
                    rowLaneDots<4, false>(memory.rowPtr(i), w, pkey, w, acc);
                    for (Index g = 0; g < 4; ++g) {
                        const Index r = i + g * kRowLanes;
                        const __m256d den = _mm256_add_pd(
                            _mm256_mul_pd(_mm256_loadu_pd(rowNorms + r), kn),
                            e);
                        _mm256_storeu_pd(
                            ps + r,
                            _mm256_div_pd(_mm256_mul_pd(s, acc[g]), den));
                    }
                }
            }
#endif
            for (; i + 4 <= end; i += 4) {
                const Real *r0 = memory.rowPtr(i + 0);
                const Real *r1 = memory.rowPtr(i + 1);
                const Real *r2 = memory.rowPtr(i + 2);
                const Real *r3 = memory.rowPtr(i + 3);
                Real a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
                for (Index c = 0; c < w; ++c) {
                    const Real kc = pkey[c];
                    a0 += r0[c] * kc;
                    a1 += r1[c] * kc;
                    a2 += r2[c] * kc;
                    a3 += r3[c] * kc;
                }
                ps[i + 0] = strength * a0 / (rowNorms[i + 0] * keyNorm + eps);
                ps[i + 1] = strength * a1 / (rowNorms[i + 1] * keyNorm + eps);
                ps[i + 2] = strength * a2 / (rowNorms[i + 2] * keyNorm + eps);
                ps[i + 3] = strength * a3 / (rowNorms[i + 3] * keyNorm + eps);
            }
            for (; i < end; ++i) {
                const Real *row = memory.rowPtr(i);
                Real acc = 0.0;
                for (Index c = 0; c < w; ++c)
                    acc += row[c] * pkey[c];
                ps[i] = strength * acc / (rowNorms[i] * keyNorm + eps);
            }
        };

        Index skipped = 0;
        if (!cachedRowNorms) {
            scoreRun(0, n);
        } else {
            // Sparse scan: a row whose cached norm is at or below the
            // threshold is scored +0.0 without the dot. At threshold 0
            // that is exactly the dense result — the row is all-zero,
            // its dot accumulates ±0.0 terms to +0.0, and sharpening
            // keeps the sign: strength * +0.0 / eps == +0.0.
            const Real skipT = skipThreshold_;
            Index i = 0;
            while (i < n) {
                if (rowNorms[i] <= skipT) {
                    ps[i] = 0.0;
                    ++skipped;
                    ++i;
                    continue;
                }
                Index runEnd = i + 1;
                while (runEnd < n && rowNorms[runEnd] > skipT)
                    ++runEnd;
                scoreRun(i, runEnd);
                i = runEnd;
            }
        }
        if (profiler) {
            auto &c = profiler->at(Kernel::Similarity);
            c.macOps += n * w;
            c.specialOps += n;          // divides
            c.extMemAccesses += n * w;
            c.stateMemAccesses += w;
            c.skippedRows += skipped;
            c.skippedOps += static_cast<std::uint64_t>(skipped) * w;
        }
    }

    if (approx_)
        approx_->evalInto(scores, out);
    else
        softmaxInto(scores, out);
    if (profiler) {
        auto &c = profiler->at(Kernel::Similarity);
        c.specialOps += n;              // exponentials (exact or PLA)
        c.elementOps += n;              // normalization divides
    }
}

} // namespace hima
