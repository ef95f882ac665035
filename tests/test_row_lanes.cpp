/**
 * @file
 * The memory kernels' row-parallel and multi-head bodies against their
 * one-row scalar references, bit for bit: content scores, the memory
 * write with its norm refresh, and the one-pass multi-head read.
 *
 * The shapes straddle every body boundary: runs shorter than, equal to
 * and longer than a 16-row block, widths that are even (SIMD) and odd
 * (scalar fallback), and skipped rows at every offset inside a block.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dnc/content_addressing.h"
#include "dnc/memory_unit.h"
#include "golden_util.h"

namespace hima {
namespace {

::testing::AssertionResult
sameBits(Real a, Real b)
{
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " != " << b << " (bitwise)";
}

void
expectSameBits(const Vector &got, const Vector &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (Index i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameBits(got[i], want[i])) << what << " [" << i << "]";
}

Matrix
randomMatrix(Index rows, Index cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (Index i = 0; i < m.size(); ++i)
        m.data()[i] = rng.normal();
    return m;
}

/** Serial row norms, as memoryWrite's scalar loop caches them. */
Vector
refRowNorms(const Matrix &m)
{
    Vector norms(m.rows());
    for (Index i = 0; i < m.rows(); ++i) {
        Real acc = 0.0;
        for (Index c = 0; c < m.cols(); ++c)
            acc += m(i, c) * m(i, c);
        norms[i] = std::sqrt(acc);
    }
    return norms;
}

const Index kRowCounts[] = {1, 15, 16, 17, 33, 128, 1021};
const Index kWidths[] = {64, 6, 5};

TEST(RowLanes, ContentScoresMatchScalarReference)
{
    Rng rng(11);
    for (Index n : kRowCounts) {
        for (Index w : kWidths) {
            SCOPED_TRACE(::testing::Message() << "N=" << n << " W=" << w);
            const Matrix base = randomMatrix(n, w, rng);
            const Vector key = rng.normalVector(w);
            const Real strength = 1.0 + rng.uniform(0.0, 8.0);
            const Real keyNorm = key.norm();
            Vector scores, out;

            // No cache: norms recomputed, every row scored.
            const ContentAddressing dense;
            dense.weightingInto(base, key, strength, nullptr, scores, out);
            const Vector norms = refRowNorms(base);
            for (Index i = 0; i < n; ++i)
                EXPECT_TRUE(sameBits(
                    scores[i],
                    golden::refContentScore(base.rowPtr(i), key.data(), w,
                                            strength, norms[i], keyNorm)))
                    << "uncached row " << i;

            // Cached norms: zero-norm rows break the scored runs, at
            // every offset inside a 16-row block.
            for (Index offset = 0; offset < 16; ++offset) {
                Matrix m = base;
                for (Index z : {offset, offset + 19, offset + 50})
                    if (z < n)
                        for (Index c = 0; c < w; ++c)
                            m(z, c) = 0.0;
                const Vector cached = refRowNorms(m);
                const ContentAddressing sparse;
                sparse.weightingInto(m, key, strength, &cached, scores, out);
                for (Index i = 0; i < n; ++i) {
                    const Real want =
                        cached[i] <= 0.0
                            ? 0.0
                            : golden::refContentScore(m.rowPtr(i),
                                                      key.data(), w,
                                                      strength, cached[i],
                                                      keyNorm);
                    EXPECT_TRUE(sameBits(scores[i], want))
                        << "offset " << offset << " row " << i;
                }
            }

            // A positive threshold skims about half the rows at random.
            Vector sorted = norms;
            std::sort(sorted.begin(), sorted.end());
            const Real skim = sorted[n / 2];
            const ContentAddressing skimmed(false, 8, skim);
            skimmed.weightingInto(base, key, strength, &norms, scores, out);
            for (Index i = 0; i < n; ++i) {
                const Real want =
                    norms[i] <= skim
                        ? 0.0
                        : golden::refContentScore(base.rowPtr(i), key.data(),
                                                  w, strength, norms[i],
                                                  keyNorm);
                EXPECT_TRUE(sameBits(scores[i], want)) << "skim row " << i;
            }
        }
    }
}

TEST(RowLanes, MemoryWriteMatchesScalarReference)
{
    Rng rng(12);
    const Index rowCounts[] = {1, 3, 4, 5, 16, 17, 37, 128};
    for (Index n : rowCounts) {
        for (Index w : kWidths) {
            for (bool fixed : {false, true}) {
                for (Real threshold : {0.0, 0.3}) {
                    // skip == 16 writes every row above the threshold.
                    for (Index skip = 0; skip <= 16; ++skip) {
                        SCOPED_TRACE(::testing::Message()
                                     << "N=" << n << " W=" << w
                                     << " fixed=" << fixed << " threshold="
                                     << threshold << " skip=" << skip);
                        Matrix m = randomMatrix(n, w, rng);
                        Vector norms = refRowNorms(m);
                        Vector ww = rng.uniformVector(n, 0.01, 1.0);
                        for (Index z : {skip, skip + 21})
                            if (skip < 16 && z < n)
                                ww[z] = 0.0;
                        const Vector erase =
                            rng.uniformVector(w, 0.05, 0.95);
                        const Vector write = rng.normalVector(w);

                        Matrix wantM = m;
                        Vector wantNorms = norms;
                        for (Index i = 0; i < n; ++i)
                            if (ww[i] > threshold)
                                wantNorms[i] = golden::refWriteRow(
                                    wantM.rowPtr(i), ww[i], erase.data(),
                                    write.data(), w, fixed);

                        memoryWriteRows(m, norms, ww, erase, write,
                                        threshold, fixed);
                        for (Index i = 0; i < m.size(); ++i)
                            ASSERT_TRUE(sameBits(m.data()[i],
                                                 wantM.data()[i]))
                                << "word " << i;
                        expectSameBits(norms, wantNorms, "row norms");
                    }
                }
            }
        }
    }
}

TEST(RowLanes, OnePassHeadsReadMatchesPerHeadReads)
{
    Rng rng(13);
    const Index rowCounts[] = {1, 3, 4, 5, 37, 128, 1021};
    for (Index n : rowCounts) {
        for (Index w : kWidths) {
            for (Index heads : {1, 3, 4}) {
                Matrix m = randomMatrix(n, w, rng);
                // Zero rows (norm 0) at scattered positions: gated out
                // at threshold 0, read by the dense (-inf) gate.
                for (Index i = 0; i < n; ++i)
                    if (rng.uniform() < 0.3)
                        for (Index c = 0; c < w; ++c)
                            m(i, c) = 0.0;
                const Vector gate = refRowNorms(m);
                std::vector<Vector> xs;
                for (Index h = 0; h < heads; ++h)
                    xs.push_back(rng.uniformVector(n, 0.0, 1.0));
                for (Real threshold :
                     {-std::numeric_limits<Real>::infinity(), 0.0,
                      gate[n / 2]}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "N=" << n << " W=" << w << " R="
                                 << heads << " threshold=" << threshold);
                    std::vector<Vector> ys(heads);
                    const Index skipped =
                        matTVecHeadsSparseInto(m, xs, gate, threshold, ys);
                    for (Index h = 0; h < heads; ++h) {
                        Vector want;
                        const Index wantSkipped = matTVecSparseInto(
                            m, xs[h], gate, threshold, want);
                        EXPECT_EQ(skipped, wantSkipped);
                        expectSameBits(ys[h], want, "head read");
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace hima
