/**
 * @file
 * Tests for the temporal linkage state (HR.(1)-(3)): linkage matrix,
 * precedence, forward/backward weightings, and their invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/random.h"
#include "dnc/temporal_linkage.h"

namespace hima {
namespace {

/** A one-hot write weighting. */
Vector
oneHot(Index n, Index where)
{
    Vector v(n);
    v[where] = 1.0;
    return v;
}

TEST(Precedence, TracksLastWrite)
{
    TemporalLinkage tl(8);
    tl.updatePrecedence(oneHot(8, 3));
    EXPECT_DOUBLE_EQ(tl.precedence()[3], 1.0);

    tl.updatePrecedence(oneHot(8, 5));
    EXPECT_DOUBLE_EQ(tl.precedence()[5], 1.0);
    EXPECT_DOUBLE_EQ(tl.precedence()[3], 0.0); // fully overwritten
}

TEST(Precedence, PartialWriteBlends)
{
    TemporalLinkage tl(4);
    Vector w(4);
    w[0] = 0.5;
    tl.updatePrecedence(w);
    EXPECT_DOUBLE_EQ(tl.precedence()[0], 0.5);
    tl.updatePrecedence(w);
    // p = (1 - 0.5) * 0.5 + 0.5 = 0.75.
    EXPECT_DOUBLE_EQ(tl.precedence()[0], 0.75);
}

TEST(Linkage, HardWritesChainInOrder)
{
    TemporalLinkage tl(8);
    // Write slots 2 -> 5 -> 1 in sequence.
    for (Index slot : {2, 5, 1}) {
        tl.updateLinkage(oneHot(8, slot));
        tl.updatePrecedence(oneHot(8, slot));
    }
    // L[to][from]: 5 follows 2, 1 follows 5.
    EXPECT_NEAR(tl.linkage()(5, 2), 1.0, 1e-12);
    EXPECT_NEAR(tl.linkage()(1, 5), 1.0, 1e-12);
    EXPECT_NEAR(tl.linkage()(2, 5), 0.0, 1e-12);
}

TEST(Linkage, DiagonalAlwaysZero)
{
    TemporalLinkage tl(16);
    Rng rng(5);
    for (int step = 0; step < 20; ++step) {
        Vector w = rng.uniformVector(16);
        w = scale(w, 1.0 / w.sum());
        tl.updateLinkage(w);
        tl.updatePrecedence(w);
    }
    for (Index i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(tl.linkage()(i, i), 0.0);
}

TEST(ForwardBackward, FollowTheChain)
{
    TemporalLinkage tl(8);
    for (Index slot : {2, 5, 1}) {
        tl.updateLinkage(oneHot(8, slot));
        tl.updatePrecedence(oneHot(8, slot));
    }
    // Reading slot 2, the forward weighting points to 5.
    const Vector f = tl.forwardWeighting(oneHot(8, 2));
    EXPECT_EQ(f.argmax(), 5u);
    // Reading slot 5, the backward weighting points to 2.
    const Vector b = tl.backwardWeighting(oneHot(8, 5));
    EXPECT_EQ(b.argmax(), 2u);
}

/**
 * Invariant from the DNC paper: rows and columns of L remain
 * sub-stochastic (sums <= 1) for simplex write weightings.
 */
class LinkageInvariant : public ::testing::TestWithParam<int>
{};

TEST_P(LinkageInvariant, RowAndColumnSumsBounded)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
    TemporalLinkage tl(24);
    for (int step = 0; step < 40; ++step) {
        Vector w = rng.uniformVector(24);
        w = scale(w, rng.uniform() / w.sum()); // sum in [0, 1)
        tl.updateLinkage(w);
        tl.updatePrecedence(w);

        const Matrix &link = tl.linkage();
        for (Index i = 0; i < 24; ++i) {
            Real rowSum = 0.0, colSum = 0.0;
            for (Index j = 0; j < 24; ++j) {
                EXPECT_GE(link(i, j), -1e-9);
                rowSum += link(i, j);
                colSum += link(j, i);
            }
            EXPECT_LE(rowSum, 1.0 + 1e-9);
            EXPECT_LE(colSum, 1.0 + 1e-9);
        }
        // Precedence stays a sub-distribution too.
        Real pSum = tl.precedence().sum();
        EXPECT_GE(pSum, -1e-9);
        EXPECT_LE(pSum, 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkageInvariant, ::testing::Range(0, 6));

TEST(ForwardBackward, PreservesSubDistribution)
{
    Rng rng(11);
    TemporalLinkage tl(16);
    for (int step = 0; step < 10; ++step) {
        Vector w = rng.uniformVector(16);
        w = scale(w, 1.0 / w.sum());
        tl.updateLinkage(w);
        tl.updatePrecedence(w);
    }
    Vector r = rng.uniformVector(16);
    r = scale(r, 1.0 / r.sum());
    EXPECT_LE(tl.forwardWeighting(r).sum(), 1.0 + 1e-9);
    EXPECT_LE(tl.backwardWeighting(r).sum(), 1.0 + 1e-9);
}

TEST(Linkage, ResetClearsState)
{
    TemporalLinkage tl(8);
    tl.updateLinkage(oneHot(8, 1));
    tl.updatePrecedence(oneHot(8, 1));
    tl.reset();
    EXPECT_DOUBLE_EQ(tl.precedence().sum(), 0.0);
    for (Index i = 0; i < 8; ++i)
        for (Index j = 0; j < 8; ++j)
            EXPECT_DOUBLE_EQ(tl.linkage()(i, j), 0.0);
}

TEST(Linkage, ProfilerChargesQuadraticWork)
{
    KernelProfiler prof;
    TemporalLinkage tl(32);
    tl.updateLinkage(oneHot(32, 0), &prof);
    tl.forwardWeighting(oneHot(32, 0), &prof);
    EXPECT_EQ(prof.at(Kernel::Linkage).elementOps, 4u * 32 * 32);
    EXPECT_EQ(prof.at(Kernel::ForwardBackward).macOps, 32u * 32);
    EXPECT_GT(prof.at(Kernel::Linkage).stateMemAccesses, 2u * 32 * 32);
}

/**
 * Ground-truth row activity, computed by scanning a (dense-swept)
 * reference matrix rather than trusting the sparse instance's own
 * cache: a row is swept when its absolute mass, or its current write
 * weight, exceeds the threshold.
 */
Index
referenceActiveRows(const Matrix &link, const Vector &w, Real threshold)
{
    const Index n = w.size();
    Index active = 0;
    for (Index i = 0; i < n; ++i) {
        Real mass = 0.0;
        for (Index j = 0; j < n; ++j)
            mass += std::fabs(link(i, j));
        if (mass > threshold || w[i] > threshold)
            ++active;
    }
    return active;
}

/** The linkage matrix as the flat row-major snapshot restoreState() takes. */
Vector
flatLinkage(const TemporalLinkage &tl)
{
    Vector flat(tl.slots() * tl.slots());
    std::copy(tl.linkage().data(), tl.linkage().data() + flat.size(),
              flat.begin());
    return flat;
}

/**
 * A fresh instance restored from `tl`'s linkage, precedence and
 * touched set: its rowMass() is restoreState()'s rebuild of the cache.
 */
TemporalLinkage
restoredCopy(const TemporalLinkage &tl)
{
    TemporalLinkage copy(tl.slots(), tl.skipThreshold());
    copy.restoreState(flatLinkage(tl), tl.precedence(), tl.touchedSlots());
    return copy;
}

/**
 * A sparse write pattern: most steps write 1-3 slots drawn from a pool
 * that grows over time, and some steps write nothing (closed write
 * gate), so a prefix of the slots accumulates linkage mass while the
 * rest stays exactly zero.
 */
Vector
sparseWritePattern(Rng &rng, Index n, int step)
{
    Vector w(n);
    if (step % 5 == 4)
        return w; // closed write gate: no slot written
    const Index pool = std::min<Index>(n, 4 + static_cast<Index>(step));
    const Index k = 1 + rng.uniformInt(3);
    for (Index x = 0; x < k; ++x)
        w[rng.uniformInt(pool)] = rng.uniform(0.05, 0.3);
    return w;
}

/**
 * Property test for the active-row sweep: under random sparse write
 * patterns, the fused updateAndRead() and the standalone forward/
 * backward kernels at threshold 0 are bit-identical to a forced dense
 * sweep, and the profiler's skipped-row counts match the activity
 * predicted from the dense reference matrix at every step.
 */
class SparseLinkage : public ::testing::TestWithParam<int>
{};

TEST_P(SparseLinkage, BitIdenticalToDenseWithPredictedSkips)
{
    const Index n = 48;
    const Index heads = static_cast<Index>(GetParam());
    Rng rng(0xbeef + heads);

    TemporalLinkage sparse(n);           // threshold 0, skipping enabled
    TemporalLinkage dense(n, 0.0, true); // forced dense sweep
    KernelProfiler profSparse;

    std::vector<Vector> prevReads(heads), fS, bS, fD, bD;
    std::uint64_t totalSkipped = 0;
    for (int step = 0; step < 60; ++step) {
        const Vector w = sparseWritePattern(rng, n, step);
        for (auto &pr : prevReads) {
            pr = rng.uniformVector(n);
            pr = scale(pr, 1.0 / pr.sum());
        }

        // Predict this step's activity from the dense matrix *before*
        // the update (the sweep decides from pre-update mass).
        const Index active = referenceActiveRows(dense.linkage(), w, 0.0);
        const std::uint64_t linkBefore =
            profSparse.at(Kernel::Linkage).skippedRows;
        const std::uint64_t fbBefore =
            profSparse.at(Kernel::ForwardBackward).skippedRows;

        sparse.updateAndRead(w, prevReads, fS, bS, &profSparse);
        dense.updateAndRead(w, prevReads, fD, bD, nullptr);

        const std::uint64_t skipped = static_cast<std::uint64_t>(n - active);
        EXPECT_EQ(profSparse.at(Kernel::Linkage).skippedRows - linkBefore,
                  skipped);
        EXPECT_EQ(
            profSparse.at(Kernel::ForwardBackward).skippedRows - fbBefore,
            2 * static_cast<std::uint64_t>(heads) * skipped);
        totalSkipped += skipped;

        // Bit-identical state and readouts (operator== is exact).
        ASSERT_TRUE(sparse.linkage() == dense.linkage()) << "step " << step;
        for (Index h = 0; h < heads; ++h) {
            EXPECT_TRUE(fS[h] == fD[h]) << "forward head " << h;
            EXPECT_TRUE(bS[h] == bD[h]) << "backward head " << h;
        }

        // The standalone kernels skip by cached mass alone; they must
        // agree with the dense reference bit-for-bit too.
        Vector probe = rng.uniformVector(n);
        probe = scale(probe, 1.0 / probe.sum());
        Vector f1, f2, b1, b2;
        sparse.forwardWeightingInto(probe, f1);
        dense.forwardWeightingInto(probe, f2);
        sparse.backwardWeightingInto(probe, b1);
        dense.backwardWeightingInto(probe, b2);
        EXPECT_TRUE(f1 == f2);
        EXPECT_TRUE(b1 == b2);

        // The cache equals, bit for bit, the rebuild of an instance
        // restored from this one's state.
        EXPECT_TRUE(restoredCopy(sparse).rowMass() == sparse.rowMass())
            << "step " << step;

        sparse.updatePrecedence(w, &profSparse);
        dense.updatePrecedence(w);
        EXPECT_TRUE(sparse.precedence() == dense.precedence());
    }
    // The pattern must actually exercise skipping, or this test proves
    // nothing about the sparse path.
    EXPECT_GT(totalSkipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Heads, SparseLinkage, ::testing::Values(1, 2, 4));

TEST(SparseLinkage, SelfLinkOnlyRowStaysInactive)
{
    // Writing only slot 3, every step: the lone precedence support is
    // slot 3 itself, the diagonal zeroing kills the only product, and
    // row 3 stays exactly zero — written, swept, but never gaining
    // mass. The standalone read kernels may then skip all 8 rows.
    const Index n = 8;
    TemporalLinkage tl(n);
    Vector w(n);
    w[3] = 0.5;
    KernelProfiler prof;
    for (int step = 0; step < 4; ++step) {
        const std::uint64_t before = prof.at(Kernel::Linkage).skippedRows;
        tl.updateLinkage(w, &prof);
        tl.updatePrecedence(w, &prof);
        // Only row 3 is active (write weight), the other 7 skip.
        EXPECT_EQ(prof.at(Kernel::Linkage).skippedRows - before, 7u);
    }
    for (Index i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(tl.rowMass()[i], 0.0);
        for (Index j = 0; j < n; ++j)
            EXPECT_DOUBLE_EQ(tl.linkage()(i, j), 0.0);
    }
    EXPECT_EQ(tl.activeRowCount(), 0u);
    Vector f;
    tl.forwardWeightingInto(oneHot(n, 3), f, &prof);
    EXPECT_EQ(prof.at(Kernel::ForwardBackward).skippedRows, 8u);
    EXPECT_DOUBLE_EQ(f.sum(), 0.0);
}

TEST(SparseLinkage, ResetClearsRowMass)
{
    TemporalLinkage tl(8);
    for (Index slot : {2, 5, 1}) {
        tl.updateLinkage(oneHot(8, slot));
        tl.updatePrecedence(oneHot(8, slot));
    }
    EXPECT_GT(tl.activeRowCount(), 0u);
    tl.reset();
    EXPECT_EQ(tl.activeRowCount(), 0u);
    for (Index i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(tl.rowMass()[i], 0.0);
    // Post-reset, a zero write weighting sweeps nothing.
    KernelProfiler prof;
    tl.updateLinkage(Vector(8), &prof);
    EXPECT_EQ(prof.at(Kernel::Linkage).skippedRows, 8u);
}

/**
 * Satellite of the checkpoint/restore path: restoreState() must
 * rebuild the row-mass cache from the restored matrix so that a
 * restored instance makes bit-identical skip decisions to the
 * undisturbed one — at threshold 0 and at a paper-style positive
 * threshold.
 */
TEST(SparseLinkage, RestoreRebuildsActivityBitIdentical)
{
    const Index n = 32;
    const Index heads = 2;
    for (Real threshold : {0.0, 1e-6}) {
        Rng rng(77);
        TemporalLinkage undisturbed(n, threshold);
        TemporalLinkage victim(n, threshold);

        std::vector<Vector> prevReads(heads), fU, bU, fV, bV;
        auto stepBoth = [&](int step) {
            const Vector w = sparseWritePattern(rng, n, step);
            for (auto &pr : prevReads) {
                pr = rng.uniformVector(n);
                pr = scale(pr, 1.0 / pr.sum());
            }
            undisturbed.updateAndRead(w, prevReads, fU, bU, nullptr);
            victim.updateAndRead(w, prevReads, fV, bV, nullptr);
            undisturbed.updatePrecedence(w);
            victim.updatePrecedence(w);
        };
        for (int step = 0; step < 20; ++step)
            stepBoth(step);

        // Snapshot mid-run, then wreck the victim with unrelated
        // traffic so the restore has real work to undo.
        Vector flat(n * n), prec(n);
        std::copy(undisturbed.linkage().data(),
                  undisturbed.linkage().data() + n * n, flat.begin());
        std::copy(undisturbed.precedence().begin(),
                  undisturbed.precedence().end(), prec.begin());
        Rng wrecker(123);
        for (int step = 0; step < 5; ++step) {
            Vector w = wrecker.uniformVector(n);
            w = scale(w, 0.9 / w.sum());
            victim.updateLinkage(w);
            victim.updatePrecedence(w);
        }

        victim.restoreState(flat, prec);
        ASSERT_TRUE(victim.linkage() == undisturbed.linkage());
        ASSERT_TRUE(victim.precedence() == undisturbed.precedence());
        // The rebuilt cache is bit-identical to the incrementally
        // maintained one (same values, same summation order).
        ASSERT_TRUE(victim.rowMass() == undisturbed.rowMass());

        // And the continuation diverges nowhere: same sweeps, same
        // skips, same bits.
        for (int step = 20; step < 40; ++step) {
            stepBoth(step);
            ASSERT_TRUE(victim.linkage() == undisturbed.linkage())
                << "threshold " << threshold << " step " << step;
            ASSERT_TRUE(victim.rowMass() == undisturbed.rowMass());
            for (Index h = 0; h < heads; ++h) {
                EXPECT_TRUE(fV[h] == fU[h]);
                EXPECT_TRUE(bV[h] == bU[h]);
            }
        }
    }
}

/**
 * The row-mass cache is an exact function of the matrix: after every
 * step, rowMass() equals (==, no ULP tolerance) the rebuild of an
 * instance restored from linkage(), precedence() and touchedSlots().
 * That holds only if the sweep's dense refresh, its column-sparse
 * refresh and the restore rebuild all sum in one order. Covered:
 * scattered touched columns, a clustered touched span that does not
 * start on a lane boundary, full columns, and a mid-run restore that
 * must continue in lockstep with the undisturbed run. N = 13 and 1021
 * are not multiples of the reduction's lane count; at N = 1024 the
 * summation order changes the last bits of real rows (asserted, so
 * the exact comparison cannot pass vacuously).
 */
class RowMassOrder
    : public ::testing::TestWithParam<std::tuple<Index, Real>>
{};

TEST_P(RowMassOrder, CacheEqualsRestoreRebuildExactly)
{
    const Index n = std::get<0>(GetParam());
    const Real threshold = std::get<1>(GetParam());
    const Index heads = 4;
    Rng rng(0x3a55 + n);
    TemporalLinkage tl(n, threshold);
    std::vector<Vector> prevReads(heads), f, b;

    auto drawReads = [&] {
        for (auto &pr : prevReads) {
            pr = rng.uniformVector(n);
            pr = scale(pr, 1.0 / pr.sum());
        }
    };
    // Even steps run the fused sweep, odd steps the standalone update:
    // both refresh the cache, through the dense or the sparse helper.
    auto step = [&](TemporalLinkage &x, const Vector &w, int k,
                    std::vector<Vector> &fo, std::vector<Vector> &bo) {
        if (k % 2 == 0)
            x.updateAndRead(w, prevReads, fo, bo, nullptr);
        else
            x.updateLinkage(w);
        x.updatePrecedence(w);
    };
    auto expectCacheExact = [&](const char *phase, int k) {
        EXPECT_TRUE(restoredCopy(tl).rowMass() == tl.rowMass())
            << phase << " step " << k;
    };

    // Partly touched: writes land on odd slots from 3 up only, so every
    // even column and slot 1 stay untouched and the sweeps take the
    // sparse paths.
    const Index offset = 3;
    int k = 0;
    for (; k < 8; ++k) {
        Vector w(n);
        for (int x = 0; x < 3; ++x)
            w[offset + 2 * rng.uniformInt((n - offset) / 2)] =
                rng.uniform(0.05, 0.3);
        drawReads();
        step(tl, w, k, f, b);
        expectCacheExact("partial", k);
    }
    ASSERT_LT(tl.touchedSlots().size(), n);

    // Clustered, then full columns: blocks of up to 64 slots at more
    // than 1e-2 each, starting at slot 3 so the touched span is not
    // lane-aligned (the sweeps sum it with the contiguous pass). Step
    // `blocks` writes slots 0-2, after which every slot is touched at
    // either threshold and the sweeps take the dense paths. Halfway
    // through, restore a wrecked twin from a snapshot and run it in
    // lockstep.
    const Index block = std::min<Index>(n - offset, 64);
    const Index blocks = (n - offset + block - 1) / block;
    const int restoreAt = k + static_cast<int>(blocks) / 2;
    TemporalLinkage twin(n, threshold);
    std::vector<Vector> fT, bT;
    bool twinLive = false;
    for (Index s = 0; s < blocks + 4; ++s, ++k) {
        Vector w(n);
        if (s == blocks) {
            ASSERT_EQ(tl.touchedSlots().size(), n - offset);
            for (Index i = 0; i < offset; ++i)
                w[i] = 0.3;
        } else {
            const Index first = offset + (s % blocks) * block;
            for (Index i = first; i < std::min(n, first + block); ++i)
                w[i] = 0.9 / static_cast<Real>(block);
        }
        if (k == restoreAt) {
            Vector wreck = rng.uniformVector(n);
            wreck = scale(wreck, 0.9 / wreck.sum());
            twin.updateLinkage(wreck);
            twin.updatePrecedence(wreck);
            twin.restoreState(flatLinkage(tl), tl.precedence(),
                              tl.touchedSlots());
            ASSERT_TRUE(twin.rowMass() == tl.rowMass());
            twinLive = true;
        }
        drawReads();
        step(tl, w, k, f, b);
        expectCacheExact("full", k);
        if (twinLive) {
            step(twin, w, k, fT, bT);
            ASSERT_TRUE(twin.linkage() == tl.linkage()) << "step " << k;
            ASSERT_TRUE(twin.rowMass() == tl.rowMass()) << "step " << k;
            if (k % 2 == 0)
                for (Index h = 0; h < heads; ++h) {
                    EXPECT_TRUE(fT[h] == f[h]) << "forward head " << h;
                    EXPECT_TRUE(bT[h] == b[h]) << "backward head " << h;
                }
        }
    }
    ASSERT_TRUE(twinLive);
    ASSERT_EQ(tl.touchedSlots().size(), n);

    if (n == 1024) {
        Index orderSensitive = 0;
        for (Index i = 0; i < n; ++i) {
            Real up = 0.0, down = 0.0;
            for (Index j = 0; j < n; ++j) {
                up += std::fabs(tl.linkage()(i, j));
                down += std::fabs(tl.linkage()(i, n - 1 - j));
            }
            if (up != down)
                ++orderSensitive;
        }
        EXPECT_GT(orderSensitive, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SlotsAndThresholds, RowMassOrder,
    ::testing::Combine(::testing::Values(Index{13}, Index{1021},
                                         Index{1024}),
                       ::testing::Values(0.0, 1e-2)));

/**
 * Threshold 0 skips only rows whose mass is exactly zero, whatever the
 * summation order: a row whose only nonzero entries are the smallest
 * subnormal, spread over three lanes of the mass reduction (one in its
 * scalar tail), still has mass > 0, is swept, and reads out
 * bit-identically to the dense sweep.
 */
TEST(SparseLinkage, SubnormalOnlyRowIsSweptAtThresholdZero)
{
    const Index n = 21; // a 16-column body plus a 5-column tail
    const Index heads = 4;
    const Index r = 6;
    const Real tiny = std::numeric_limits<Real>::denorm_min();
    const std::vector<Index> cols = {1, 10, 19}; // lanes 1, 2 and 3
    Vector flat(n * n), prec(n);
    for (Index j : cols)
        flat[r * n + j] = tiny;

    TemporalLinkage sparse(n);
    TemporalLinkage dense(n, 0.0, true);
    sparse.restoreState(flat, prec, cols);
    dense.restoreState(flat, prec, cols);
    EXPECT_GT(sparse.rowMass()[r], 0.0);
    EXPECT_EQ(sparse.activeRowCount(), 1u);

    // Head 0 reads column 10 (forward[r] == tiny), head 1 reads row r
    // (backward picks up the row), heads 2-3 read spread weightings.
    std::vector<Vector> prevReads = {oneHot(n, 10), oneHot(n, r),
                                     Vector(n, 1.0 / n), oneHot(n, 19)};
    std::vector<Vector> fS, bS, fD, bD;
    KernelProfiler prof;
    const Vector w(n); // closed write gate: activity comes from mass alone
    sparse.updateAndRead(w, prevReads, fS, bS, &prof);
    dense.updateAndRead(w, prevReads, fD, bD, nullptr);
    EXPECT_EQ(prof.at(Kernel::Linkage).skippedRows, n - 1);
    EXPECT_EQ(fS[0][r], tiny);
    EXPECT_EQ(bS[1][10], tiny);
    ASSERT_TRUE(sparse.linkage() == dense.linkage());
    for (Index h = 0; h < heads; ++h) {
        EXPECT_TRUE(fS[h] == fD[h]) << "forward head " << h;
        EXPECT_TRUE(bS[h] == bD[h]) << "backward head " << h;
    }

    Vector f1, f2, b1, b2;
    sparse.forwardWeightingInto(prevReads[0], f1);
    dense.forwardWeightingInto(prevReads[0], f2);
    sparse.backwardWeightingInto(prevReads[1], b1);
    dense.backwardWeightingInto(prevReads[1], b2);
    EXPECT_EQ(f1[r], tiny);
    EXPECT_TRUE(f1 == f2);
    EXPECT_TRUE(b1 == b2);
}

} // namespace
} // namespace hima
