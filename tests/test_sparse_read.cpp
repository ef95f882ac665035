/**
 * @file
 * End-to-end active-set sparsity suite: the sparse read stage
 * (norm-cache similarity skip + sparse memory read), the column-sparse
 * linkage sweeps, skip-count accounting against the profiler, the
 * one-pass restore-rebuild contract, and the new config validations.
 */

#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "dnc/memory_unit.h"
#include "dnc/temporal_linkage.h"
#include "dense_reference.h"
#include "golden_util.h"

namespace hima {
namespace {

DncConfig
sparseCfg(Index rows = 48)
{
    DncConfig cfg;
    cfg.memoryRows = rows;
    cfg.memoryWidth = 16;
    cfg.readHeads = 2;
    return cfg;
}

/**
 * Allocation-gated write: while zero-usage slots remain, the allocation
 * weighting is exactly one-hot and the content blend is multiplied by
 * (1 - allocationGate) == +0.0, so each step touches exactly one fresh
 * slot and every untouched row stays bitwise zero.
 */
InterfaceVector
allocationIface(const DncConfig &cfg, Rng &rng)
{
    InterfaceVector iface = golden::randomIface(cfg, rng);
    iface.allocationGate = 1.0;
    iface.writeGate = 1.0;
    return iface;
}

Index
countZeroNorms(const MemoryUnit &mu)
{
    Index zeros = 0;
    for (Index i = 0; i < mu.rowNorms().size(); ++i)
        if (mu.rowNorms()[i] == 0.0)
            ++zeros;
    return zeros;
}

void
expectUnitsIdentical(const MemoryUnit &a, const MemoryUnit &b, int step)
{
    SCOPED_TRACE(::testing::Message() << "step " << step);
    EXPECT_TRUE(a.memory() == b.memory()) << "memory diverged";
    EXPECT_TRUE(a.rowNorms() == b.rowNorms()) << "row norms diverged";
    EXPECT_TRUE(a.usage() == b.usage()) << "usage diverged";
    EXPECT_TRUE(a.writeWeighting() == b.writeWeighting())
        << "write weighting diverged";
    EXPECT_TRUE(a.linkage().linkage() == b.linkage().linkage())
        << "linkage diverged";
    EXPECT_TRUE(a.linkage().precedence() == b.linkage().precedence())
        << "precedence diverged";
    for (Index h = 0; h < a.readWeightings().size(); ++h)
        EXPECT_TRUE(a.readWeightings()[h] == b.readWeightings()[h])
            << "read weighting head " << h << " diverged";
}

} // namespace

// ------------------------------------------------------------- validate

TEST(SparseConfigDeathTest, RejectsNegativeLinkageSkipThreshold)
{
    DncConfig cfg = sparseCfg();
    cfg.linkageSkipThreshold = -1e-6;
    EXPECT_DEATH(cfg.validate(), "linkage skip threshold");
}

TEST(SparseConfigDeathTest, RejectsNanLinkageSkipThreshold)
{
    DncConfig cfg = sparseCfg();
    cfg.linkageSkipThreshold = std::numeric_limits<Real>::quiet_NaN();
    EXPECT_DEATH(cfg.validate(), "linkage skip threshold");
}

TEST(SparseConfigDeathTest, RejectsBadReadSkipThreshold)
{
    DncConfig cfg = sparseCfg();
    cfg.readSkipThreshold = -0.5;
    EXPECT_DEATH(cfg.validate(), "read skip threshold");
    cfg.readSkipThreshold = 1.0;
    EXPECT_DEATH(cfg.validate(), "read skip threshold");
    cfg.readSkipThreshold = std::numeric_limits<Real>::quiet_NaN();
    EXPECT_DEATH(cfg.validate(), "read skip threshold");
}

// ------------------------------------------------------ sparse == dense

/**
 * The standing contract: at threshold 0 the sparse read stage, sparse
 * memory read and column-sparse linkage sweeps are bit-identical to the
 * dense reference model (tests/dense_reference.h), across
 * allocation-gated one-hot traffic, mixed soft traffic and episode
 * resets, at every state the reference keeps. The shapes reach the
 * fused sweep's readQuad4 blocks (R=4), its compile-time readRow<R>
 * (R=1, 2) and its runtime-R fallback (R=3), and the content scores'
 * even-width AVX2 blocks and odd-width scalar rows (W=7).
 */
TEST(SparseReadStage, ChurnLockstepBitIdenticalToDense)
{
    struct Shape
    {
        Index n, w, r;
    };
    for (const Shape shape : {Shape{48, 16, 2}, Shape{37, 6, 3},
                              Shape{64, 7, 1}, Shape{128, 64, 4}}) {
        SCOPED_TRACE(::testing::Message() << "N=" << shape.n
                                          << " W=" << shape.w
                                          << " R=" << shape.r);
        DncConfig cfg = sparseCfg(shape.n);
        cfg.memoryWidth = shape.w;
        cfg.readHeads = shape.r;
        MemoryUnit unit(cfg);
        dense::MemoryUnitSim ref(cfg);
        MemoryReadout out;
        Rng rng(0x5eadULL + shape.n);
        for (int step = 0; step < 160; ++step) {
            if (step > 0 && step % 40 == 0) {
                unit.reset();
                ref.reset();
            }
            const InterfaceVector iface =
                (step % 40 < 12) ? allocationIface(cfg, rng)
                                 : golden::randomIface(cfg, rng);
            unit.stepInto(iface, out);
            const MemoryReadout refOut = ref.step(iface);
            ASSERT_STREQ(dense::firstMismatch(ref, refOut, unit, out),
                         nullptr)
                << "step " << step;
        }
    }
}

/**
 * Predicted skip counts match the profiler. Per step the write content
 * weighting scores once against the pre-write norms and each of the R
 * read weightings against the post-write norms; the sparse memory read
 * skips the zero-norm rows once per head.
 */
TEST(SparseReadStage, SkipCountersMatchZeroNormPrediction)
{
    const DncConfig cfg = sparseCfg(32);
    MemoryUnit mu(cfg);
    MemoryReadout out;
    Rng rng(77);
    const std::uint64_t heads = cfg.readHeads;
    for (int step = 0; step < 24; ++step) {
        if (step == 16)
            mu.reset(); // resets re-zero rows: skips must resume
        const std::uint64_t zerosBefore = countZeroNorms(mu);
        const std::uint64_t simBefore =
            mu.profiler().at(Kernel::Similarity).skippedRows;
        const std::uint64_t mrBefore =
            mu.profiler().at(Kernel::MemoryRead).skippedRows;
        const InterfaceVector iface = allocationIface(cfg, rng);
        mu.stepInto(iface, out);
        const std::uint64_t zerosAfter = countZeroNorms(mu);
        EXPECT_EQ(mu.profiler().at(Kernel::Similarity).skippedRows - simBefore,
                  zerosBefore + heads * zerosAfter)
            << "step " << step;
        EXPECT_EQ(mu.profiler().at(Kernel::MemoryRead).skippedRows - mrBefore,
                  heads * zerosAfter)
            << "step " << step;
    }
}

/**
 * Rows skipped by the read stage contribute exactly-zero read weight:
 * after allocation-gated one-hot writes, every slot outside the touched
 * set holds +0.0 in the forward and backward weightings (the
 * column-sparse backward scatter never writes them) and the touched set
 * is exactly the union of write supports.
 */
TEST(SparseReadStage, UntouchedSlotsCarryExactlyZeroReadWeight)
{
    const DncConfig cfg = sparseCfg(24);
    MemoryUnit mu(cfg);
    MemoryReadout out;
    Rng rng(11);
    std::set<Index> written;
    for (int step = 0; step < 6; ++step) {
        mu.stepInto(allocationIface(cfg, rng), out);
        for (Index i = 0; i < cfg.memoryRows; ++i)
            if (out.writeWeighting[i] != 0.0)
                written.insert(i);
    }
    ASSERT_EQ(written.size(), 6u) << "one-hot allocation writes expected";
    const std::vector<Index> expected(written.begin(), written.end());
    EXPECT_EQ(mu.linkage().touchedSlots(), expected);

    Vector prev(cfg.memoryRows, 0.0);
    for (Index s : written)
        prev[s] = 1.0 / static_cast<Real>(written.size());
    // Read through a copy of the linkage with a zero write weighting,
    // whose update leaves L exactly as it is.
    TemporalLinkage probe = mu.linkage();
    std::vector<Vector> f, b;
    probe.updateAndRead(Vector(cfg.memoryRows), {prev}, f, b);
    for (Index j = 0; j < cfg.memoryRows; ++j) {
        if (written.count(j))
            continue;
        EXPECT_EQ(f[0][j], 0.0) << "forward weight at untouched slot " << j;
        EXPECT_FALSE(std::signbit(f[0][j])) << "-0.0 at slot " << j;
        EXPECT_EQ(b[0][j], 0.0) << "backward weight at untouched slot " << j;
        EXPECT_FALSE(std::signbit(b[0][j])) << "-0.0 at slot " << j;
    }
}

// -------------------------------------------------------------- restore

/**
 * The one-pass fused restore rebuilds the norm cache from the restored
 * memory rows and never trusts the snapshot's copy (sparse checkpoint
 * frames do not even carry one). Fixed-point config keeps the quantized
 * values flowing through the same accumulation order.
 */
TEST(SparseRestore, FixedPointRestoreRebuildsNormsBitExactly)
{
    DncConfig cfg = sparseCfg();
    cfg.fixedPoint = true;
    MemoryUnit live(cfg);
    MemoryReadout out;
    Rng rng(123);
    for (int step = 0; step < 30; ++step)
        live.stepInto(step < 8 ? allocationIface(cfg, rng)
                               : golden::randomIface(cfg, rng),
                      out);

    MemoryTileState snap;
    live.captureState(snap);
    const Vector originalNorms = snap.rowNorms;
    snap.rowNorms.fill(777.0); // a trusted copy would poison the cache

    MemoryUnit restored(cfg);
    restored.restoreState(snap);
    EXPECT_TRUE(restored.rowNorms() == originalNorms);
    EXPECT_TRUE(restored.rowNorms() == live.rowNorms());

    MemoryReadout ra, rb;
    for (int step = 0; step < 12; ++step) {
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        live.stepInto(iface, ra);
        restored.stepInto(iface, rb);
        for (Index h = 0; h < cfg.readHeads; ++h)
            EXPECT_TRUE(ra.readVectors[h] == rb.readVectors[h])
                << "head " << h << " step " << step;
        expectUnitsIdentical(live, restored, step);
    }
}

/**
 * At positive skip thresholds the touched set is not derivable from the
 * snapshot matrices, so restoreState carries it explicitly; a restored
 * run's skip decisions must match the undisturbed run bit-for-bit.
 */
TEST(SparseRestore, PositiveThresholdRestoreMatchesUndisturbedRun)
{
    DncConfig cfg = sparseCfg();
    cfg.linkageSkipThreshold = 1e-2;
    cfg.readSkipThreshold = 1e-2;
    MemoryUnit live(cfg);
    MemoryReadout out;
    Rng rng(31);
    for (int step = 0; step < 25; ++step)
        live.stepInto(step % 5 == 0 ? allocationIface(cfg, rng)
                                    : golden::randomIface(cfg, rng),
                      out);

    MemoryTileState snap;
    live.captureState(snap);
    MemoryUnit restored(cfg);
    restored.restoreState(snap);

    MemoryReadout ra, rb;
    for (int step = 0; step < 20; ++step) {
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        live.stepInto(iface, ra);
        restored.stepInto(iface, rb);
        for (Index h = 0; h < cfg.readHeads; ++h)
            EXPECT_TRUE(ra.readVectors[h] == rb.readVectors[h])
                << "head " << h << " step " << step;
        expectUnitsIdentical(live, restored, step);
    }
    MemoryTileState a, b;
    live.captureState(a);
    restored.captureState(b);
    EXPECT_EQ(a.touchedSlots, b.touchedSlots);
}

TEST(SparseRestoreDeathTest, LinkageRestoreRejectsUnsortedTouchedSlots)
{
    TemporalLinkage tl(8);
    const Vector flat(64, 0.0);
    const Vector prec(8, 0.0);
    EXPECT_DEATH(tl.restoreState(flat, prec, {3, 1}), "out of order");
}

// -------------------------------------------------------------- batched

/**
 * Per-lane active sets stay independent through batched stepping: a
 * batched engine with positive skip thresholds matches per-lane
 * reference runs bit-for-bit (golden_util asserts full per-lane state,
 * including the linkage row-mass cache, every step).
 */
TEST(SparseReadStage, BatchedLanesKeepIndependentActiveSets)
{
    DncConfig cfg;
    cfg.memoryRows = 24;
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    cfg.controllerSize = 24;
    cfg.inputSize = 10;
    cfg.outputSize = 8;
    cfg.linkageSkipThreshold = 1e-2;
    cfg.readSkipThreshold = 1e-2;
    golden::runLockstep(cfg, /*batch=*/3, /*threads=*/2, /*steps=*/10,
                        /*weightSeed=*/21, /*inputSeed=*/91);
}

} // namespace hima
