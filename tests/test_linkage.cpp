/**
 * @file
 * Tests for the temporal linkage state (HR.(1)-(3)): linkage matrix,
 * precedence, forward/backward weightings, and their invariants. The
 * fused sweep is checked against the dense kernels of
 * tests/dense_reference.h.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/random.h"
#include "dense_reference.h"
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

/**
 * One timestep's history write: the fused sweep's HR.(1) update (its
 * single read head reads an all-zero weighting) followed by HR.(2).
 */
void
historyWrite(TemporalLinkage &tl, const Vector &w,
             KernelProfiler *prof = nullptr)
{
    const std::vector<Vector> reads(1, Vector(tl.slots()));
    std::vector<Vector> f, b;
    tl.updateAndRead(w, reads, f, b, prof);
    tl.updatePrecedence(w, prof);
}

/** Forward and backward weightings of `reads` over tl's current L. */
struct Reads
{
    std::vector<Vector> forward;
    std::vector<Vector> backward;
};

/**
 * HR.(3) without a write: a copy of `tl` runs the fused sweep with a
 * zero write weighting, whose update leaves every entry of L as it was
 * ((1 - 0 - 0) * L[i][j] + 0 * p[j] == L[i][j]).
 */
Reads
historyRead(TemporalLinkage tl, const std::vector<Vector> &reads)
{
    Reads out;
    tl.updateAndRead(Vector(tl.slots()), reads, out.forward, out.backward);
    return out;
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
    for (Index slot : {2, 5, 1})
        historyWrite(tl, oneHot(8, slot));
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
        historyWrite(tl, w);
    }
    for (Index i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(tl.linkage()(i, i), 0.0);
}

TEST(ForwardBackward, FollowTheChain)
{
    TemporalLinkage tl(8);
    for (Index slot : {2, 5, 1})
        historyWrite(tl, oneHot(8, slot));
    const Reads r = historyRead(tl, {oneHot(8, 2), oneHot(8, 5)});
    // Reading slot 2, the forward weighting points to 5.
    EXPECT_EQ(r.forward[0].argmax(), 5u);
    // Reading slot 5, the backward weighting points to 2.
    EXPECT_EQ(r.backward[1].argmax(), 2u);
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
        historyWrite(tl, w);

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
        historyWrite(tl, w);
    }
    Vector x = rng.uniformVector(16);
    x = scale(x, 1.0 / x.sum());
    const Reads r = historyRead(tl, {x});
    EXPECT_LE(r.forward[0].sum(), 1.0 + 1e-9);
    EXPECT_LE(r.backward[0].sum(), 1.0 + 1e-9);
}

TEST(Linkage, ResetClearsState)
{
    TemporalLinkage tl(8);
    historyWrite(tl, oneHot(8, 1));
    tl.reset();
    EXPECT_DOUBLE_EQ(tl.precedence().sum(), 0.0);
    for (Index i = 0; i < 8; ++i)
        for (Index j = 0; j < 8; ++j)
            EXPECT_DOUBLE_EQ(tl.linkage()(i, j), 0.0);
}

TEST(Linkage, ProfilerChargesQuadraticWork)
{
    // The hardware kernels' cost, whatever the sweep skipped: one
    // linkage update and, per head, one forward and one backward read.
    KernelProfiler prof;
    TemporalLinkage tl(32);
    std::vector<Vector> f, b;
    tl.updateAndRead(oneHot(32, 0), {oneHot(32, 0)}, f, b, &prof);
    EXPECT_EQ(prof.at(Kernel::Linkage).invocations, 1u);
    EXPECT_EQ(prof.at(Kernel::Linkage).elementOps, 4u * 32 * 32);
    EXPECT_EQ(prof.at(Kernel::ForwardBackward).invocations, 2u);
    EXPECT_EQ(prof.at(Kernel::ForwardBackward).macOps, 2u * 32 * 32);
    EXPECT_GT(prof.at(Kernel::Linkage).stateMemAccesses, 2u * 32 * 32);
}

/**
 * Ground-truth row activity, computed by scanning the dense reference
 * matrix rather than trusting the sparse instance's own cache: a row is swept when its absolute mass, or its current write
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
 * patterns and then soft writes over every slot, the fused
 * updateAndRead() at threshold 0 is bit-identical to the dense
 * reference kernels (update, L w over ascending columns, L^T w over
 * ascending rows), and the profiler's skipped-row counts match the
 * activity predicted from the reference matrix at every step.
 */
class SparseLinkage : public ::testing::TestWithParam<int>
{};

TEST_P(SparseLinkage, BitIdenticalToDenseWithPredictedSkips)
{
    const Index n = 48;
    const Index heads = static_cast<Index>(GetParam());
    Rng rng(0xbeef + heads);

    TemporalLinkage sparse(n); // threshold 0, skipping enabled
    Matrix refLinkage(n, n);
    Vector refPrecedence(n);
    KernelProfiler profSparse;

    std::vector<Vector> prevReads(heads), fS, bS;
    std::uint64_t totalSkipped = 0;
    // 60 sparse steps (the column-sparse bodies), then 20 soft writes
    // over every slot (every column touched: the dense bodies).
    for (int step = 0; step < 80; ++step) {
        Vector w = sparseWritePattern(rng, n, step);
        if (step >= 60) {
            w = rng.uniformVector(n);
            w = scale(w, 0.9 / w.sum());
        }
        for (auto &pr : prevReads) {
            pr = rng.uniformVector(n);
            pr = scale(pr, 1.0 / pr.sum());
        }

        // Predict this step's activity from the reference matrix
        // *before* the update (the sweep decides from pre-update mass).
        const Index active = referenceActiveRows(refLinkage, w, 0.0);
        const std::uint64_t linkBefore =
            profSparse.at(Kernel::Linkage).skippedRows;
        const std::uint64_t fbBefore =
            profSparse.at(Kernel::ForwardBackward).skippedRows;

        sparse.updateAndRead(w, prevReads, fS, bS, &profSparse);
        dense::linkageUpdate(refLinkage, w, refPrecedence);

        const std::uint64_t skipped = static_cast<std::uint64_t>(n - active);
        EXPECT_EQ(profSparse.at(Kernel::Linkage).skippedRows - linkBefore,
                  skipped);
        EXPECT_EQ(
            profSparse.at(Kernel::ForwardBackward).skippedRows - fbBefore,
            2 * static_cast<std::uint64_t>(heads) * skipped);
        totalSkipped += skipped;

        // Bit-identical state and readouts (operator== is exact).
        ASSERT_TRUE(sparse.linkage() == refLinkage) << "step " << step;
        for (Index h = 0; h < heads; ++h) {
            EXPECT_TRUE(fS[h] == dense::matVec(refLinkage, prevReads[h]))
                << "forward head " << h;
            EXPECT_TRUE(bS[h] == dense::matTVec(refLinkage, prevReads[h]))
                << "backward head " << h;
        }

        // The cache equals, bit for bit, the rebuild of an instance
        // restored from this one's state.
        EXPECT_TRUE(restoredCopy(sparse).rowMass() == sparse.rowMass())
            << "step " << step;

        sparse.updatePrecedence(w, &profSparse);
        dense::precedenceUpdate(refPrecedence, w);
        EXPECT_TRUE(sparse.precedence() == refPrecedence);
    }
    // The pattern must actually exercise skipping, or this test proves
    // nothing about the sparse path, and end on full columns.
    EXPECT_GT(totalSkipped, 0u);
    EXPECT_EQ(sparse.touchedSlots().size(), n);
}

INSTANTIATE_TEST_SUITE_P(Heads, SparseLinkage, ::testing::Values(1, 2, 4));

TEST(SparseLinkage, SelfLinkOnlyRowStaysInactive)
{
    // Writing only slot 3, every step: the lone precedence support is
    // slot 3 itself, the diagonal zeroing kills the only product, and
    // row 3 stays exactly zero — written, swept, but never gaining
    // mass. A sweep without a write may then skip all 8 rows.
    const Index n = 8;
    TemporalLinkage tl(n);
    Vector w(n);
    w[3] = 0.5;
    KernelProfiler prof;
    for (int step = 0; step < 4; ++step) {
        const std::uint64_t before = prof.at(Kernel::Linkage).skippedRows;
        historyWrite(tl, w, &prof);
        // Only row 3 is active (write weight), the other 7 skip.
        EXPECT_EQ(prof.at(Kernel::Linkage).skippedRows - before, 7u);
    }
    for (Index i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(tl.rowMass()[i], 0.0);
        for (Index j = 0; j < n; ++j)
            EXPECT_DOUBLE_EQ(tl.linkage()(i, j), 0.0);
    }
    EXPECT_EQ(tl.activeRowCount(), 0u);
    std::vector<Vector> f, b;
    const std::uint64_t before =
        prof.at(Kernel::ForwardBackward).skippedRows;
    tl.updateAndRead(Vector(n), {oneHot(n, 3)}, f, b, &prof);
    // 8 skipped rows, charged to the forward and the backward read.
    EXPECT_EQ(prof.at(Kernel::ForwardBackward).skippedRows - before, 16u);
    EXPECT_DOUBLE_EQ(f[0].sum(), 0.0);
    EXPECT_DOUBLE_EQ(b[0].sum(), 0.0);
}

TEST(SparseLinkage, ResetClearsRowMass)
{
    TemporalLinkage tl(8);
    for (Index slot : {2, 5, 1})
        historyWrite(tl, oneHot(8, slot));
    EXPECT_GT(tl.activeRowCount(), 0u);
    tl.reset();
    EXPECT_EQ(tl.activeRowCount(), 0u);
    for (Index i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(tl.rowMass()[i], 0.0);
    // Post-reset, a zero write weighting sweeps nothing.
    KernelProfiler prof;
    historyWrite(tl, Vector(8), &prof);
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
        const Vector flat = flatLinkage(undisturbed);
        const Vector prec = undisturbed.precedence();
        const std::vector<Index> touched = undisturbed.touchedSlots();
        Rng wrecker(123);
        for (int step = 0; step < 5; ++step) {
            Vector w = wrecker.uniformVector(n);
            w = scale(w, 0.9 / w.sum());
            historyWrite(victim, w);
        }

        victim.restoreState(flat, prec, touched);
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
    // Each step refreshes the cache through the sweep's dense or its
    // column-sparse helper.
    auto step = [&](TemporalLinkage &x, const Vector &w,
                    std::vector<Vector> &fo, std::vector<Vector> &bo) {
        x.updateAndRead(w, prevReads, fo, bo, nullptr);
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
        step(tl, w, f, b);
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
            historyWrite(twin, wreck);
            twin.restoreState(flatLinkage(tl), tl.precedence(),
                              tl.touchedSlots());
            ASSERT_TRUE(twin.rowMass() == tl.rowMass());
            twinLive = true;
        }
        drawReads();
        step(tl, w, f, b);
        expectCacheExact("full", k);
        if (twinLive) {
            step(twin, w, fT, bT);
            ASSERT_TRUE(twin.linkage() == tl.linkage()) << "step " << k;
            ASSERT_TRUE(twin.rowMass() == tl.rowMass()) << "step " << k;
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
 * bit-identically to the dense reference.
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
    sparse.restoreState(flat, prec, cols);
    EXPECT_GT(sparse.rowMass()[r], 0.0);
    EXPECT_EQ(sparse.activeRowCount(), 1u);

    // Head 0 reads column 10 (forward[r] == tiny), head 1 reads row r
    // (backward picks up the row), heads 2-3 read spread weightings.
    std::vector<Vector> prevReads = {oneHot(n, 10), oneHot(n, r),
                                     Vector(n, 1.0 / n), oneHot(n, 19)};
    std::vector<Vector> fS, bS;
    KernelProfiler prof;
    const Vector w(n); // closed write gate: activity comes from mass alone
    sparse.updateAndRead(w, prevReads, fS, bS, &prof);
    Matrix refLinkage(n, n);
    std::copy(flat.begin(), flat.end(), refLinkage.data());
    dense::linkageUpdate(refLinkage, w, prec);
    EXPECT_EQ(prof.at(Kernel::Linkage).skippedRows, n - 1);
    EXPECT_EQ(fS[0][r], tiny);
    EXPECT_EQ(bS[1][10], tiny);
    ASSERT_TRUE(sparse.linkage() == refLinkage);
    for (Index h = 0; h < heads; ++h) {
        EXPECT_TRUE(fS[h] == dense::matVec(refLinkage, prevReads[h]))
            << "forward head " << h;
        EXPECT_TRUE(bS[h] == dense::matTVec(refLinkage, prevReads[h]))
            << "backward head " << h;
    }
}

} // namespace
} // namespace hima
