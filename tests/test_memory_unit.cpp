/**
 * @file
 * Integration tests of the full memory unit: write-then-read round trips,
 * weighting invariants across steps, sorter-backend equivalence, erase
 * semantics and instrumentation.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "common/random.h"
#include "dnc/memory_unit.h"
#include "golden_util.h"
#include "sort/two_stage_sort.h"

namespace hima {
namespace {

DncConfig
smallConfig()
{
    DncConfig cfg;
    cfg.memoryRows = 32;
    cfg.memoryWidth = 16;
    cfg.readHeads = 2;
    return cfg;
}

/** An interface that writes `pattern` via allocation with full erase. */
InterfaceVector
writeIface(const DncConfig &cfg, const Vector &pattern)
{
    InterfaceVector iface;
    iface.readKeys.assign(cfg.readHeads, Vector(cfg.memoryWidth));
    iface.readStrengths.assign(cfg.readHeads, 1.0);
    iface.writeKey = Vector(cfg.memoryWidth);
    iface.writeStrength = 1.0;
    iface.eraseVector = Vector(cfg.memoryWidth, 1.0);
    iface.writeVector = pattern;
    iface.freeGates.assign(cfg.readHeads, 0.0);
    iface.allocationGate = 1.0;
    iface.writeGate = 1.0;
    iface.readModes.assign(cfg.readHeads, ReadMode{0.0, 1.0, 0.0});
    return iface;
}

/** A content-read interface for `key` (write gate closed). */
InterfaceVector
readIface(const DncConfig &cfg, const Vector &key, Real strength = 20.0)
{
    InterfaceVector iface = writeIface(cfg, Vector(cfg.memoryWidth));
    iface.writeGate = 0.0;
    iface.allocationGate = 0.0;
    iface.eraseVector = Vector(cfg.memoryWidth, 0.0);
    for (Index h = 0; h < cfg.readHeads; ++h) {
        iface.readKeys[h] = key;
        iface.readStrengths[h] = strength;
    }
    return iface;
}

TEST(MemoryUnit, WriteThenContentReadRoundTrip)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(1);

    Vector pattern = rng.normalVector(cfg.memoryWidth);
    pattern = scale(pattern, 1.0 / pattern.norm());

    mu.step(writeIface(cfg, pattern));
    const MemoryReadout out = mu.step(readIface(cfg, pattern));

    // The read vector must reproduce the stored pattern.
    EXPECT_GT(cosineSimilarity(out.readVectors[0], pattern), 0.98);
}

TEST(MemoryUnit, DistinctWritesLandInDistinctSlots)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(2);

    std::vector<Index> slots;
    for (int i = 0; i < 6; ++i) {
        Vector p = rng.normalVector(cfg.memoryWidth);
        const MemoryReadout out = mu.step(writeIface(cfg, p));
        slots.push_back(out.writeWeighting.argmax());
    }
    std::sort(slots.begin(), slots.end());
    EXPECT_EQ(std::unique(slots.begin(), slots.end()), slots.end())
        << "allocation reused a slot while free slots remained";
}

TEST(MemoryUnit, WriteWeightingIsSubDistribution)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        Vector p = rng.normalVector(cfg.memoryWidth);
        const MemoryReadout out = mu.step(writeIface(cfg, p));
        Real sum = 0.0;
        for (Index s = 0; s < cfg.memoryRows; ++s) {
            EXPECT_GE(out.writeWeighting[s], -1e-12);
            sum += out.writeWeighting[s];
        }
        EXPECT_LE(sum, 1.0 + 1e-9);
    }
}

TEST(MemoryUnit, ReadWeightingsAreSubDistributions)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(4);
    mu.step(writeIface(cfg, rng.normalVector(cfg.memoryWidth)));
    const MemoryReadout out =
        mu.step(readIface(cfg, rng.normalVector(cfg.memoryWidth)));
    for (const Vector &w : out.readWeightings) {
        Real sum = 0.0;
        for (Index i = 0; i < w.size(); ++i) {
            EXPECT_GE(w[i], -1e-12);
            sum += w[i];
        }
        EXPECT_LE(sum, 1.0 + 1e-9);
    }
}

TEST(MemoryUnit, FreeGateReleasesUsage)
{
    // DNC timing: usage registers a write one step later (it folds in
    // the *previous* write weighting), and the free gates act on the
    // *previous* step's read weightings. So: write, locate, free.
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(5);

    Vector p1 = rng.normalVector(cfg.memoryWidth);
    const MemoryReadout w1 = mu.step(writeIface(cfg, p1));
    const Index slot = w1.writeWeighting.argmax();

    mu.step(readIface(cfg, p1)); // locate: read weighting pins the slot
    EXPECT_GT(mu.usage()[slot], 0.9) << "write registered in usage";

    InterfaceVector freeIt = readIface(cfg, p1);
    for (Index h = 0; h < cfg.readHeads; ++h)
        freeIt.freeGates[h] = 1.0;
    mu.step(freeIt);
    EXPECT_LT(mu.usage()[slot], 0.1) << "free gate released the slot";
}

TEST(MemoryUnit, FreedSlotIsReusedUnderFullMemory)
{
    // Fill every slot, free one, and verify the next allocation lands on
    // exactly the freed slot with the new contents.
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(5);

    std::vector<Vector> patterns;
    for (Index i = 0; i < cfg.memoryRows; ++i) {
        patterns.push_back(rng.normalVector(cfg.memoryWidth));
        mu.step(writeIface(cfg, patterns.back()));
    }

    const Index victim = 13;
    // Locate first (read weighting moves onto the victim), then raise
    // the free gates so retention releases it.
    mu.step(readIface(cfg, patterns[victim]));
    InterfaceVector freeIt = readIface(cfg, patterns[victim]);
    for (Index h = 0; h < cfg.readHeads; ++h)
        freeIt.freeGates[h] = 1.0;
    mu.step(freeIt);

    Vector fresh = rng.normalVector(cfg.memoryWidth);
    const MemoryReadout w = mu.step(writeIface(cfg, fresh));
    const Index reused = w.writeWeighting.argmax();
    EXPECT_GT(cosineSimilarity(mu.memory().row(reused), fresh), 0.9);
    EXPECT_LT(std::fabs(cosineSimilarity(mu.memory().row(reused),
                                         patterns[victim])),
              0.5);
}

TEST(MemoryUnit, HardwareSorterBackendIsBitExact)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit ref(cfg);
    MemoryUnit hw(cfg);
    TwoStageSorter sorter(cfg.memoryRows, 4);
    hw.setUsageSorter([&sorter](const std::vector<SortRecord> &recs,
                                SortOrder order) {
        return sorter.sort(recs, order);
    });

    Rng rng(6);
    for (int i = 0; i < 10; ++i) {
        Vector p = rng.normalVector(cfg.memoryWidth);
        const MemoryReadout a = ref.step(writeIface(cfg, p));
        const MemoryReadout b = hw.step(writeIface(cfg, p));
        for (Index s = 0; s < cfg.memoryRows; ++s)
            EXPECT_NEAR(a.writeWeighting[s], b.writeWeighting[s], 1e-12);
    }
}

TEST(MemoryUnit, UsageResortMatchesReferenceSortAcrossResetAndRestore)
{
    // The default unit re-sorts last step's usage order; the other runs
    // the pluggable reference sort from scratch every step. Outputs must
    // agree bit for bit through an episode reset and a mid-episode
    // restore, which hand the re-sort a stale or foreign order.
    DncConfig cfg = smallConfig();
    MemoryUnit adaptive(cfg);
    MemoryUnit reference(cfg);
    reference.setUsageSorter(referenceUsageSort);
    Rng rng(31);
    std::vector<InterfaceVector> ifaces;
    for (int s = 0; s < 60; ++s)
        ifaces.push_back(golden::randomIface(cfg, rng));

    MemoryTileState snapshot;
    MemoryReadout a, b;
    for (int s = 0; s < 60; ++s) {
        SCOPED_TRACE(::testing::Message() << "step " << s);
        if (s == 20) {
            adaptive.reset();
            reference.reset();
        }
        if (s == 30)
            adaptive.captureState(snapshot);
        if (s == 45) {
            // Both units jump back to step 30's state.
            adaptive.restoreState(snapshot);
            reference.restoreState(snapshot);
        }
        adaptive.stepInto(ifaces[s], a);
        reference.stepInto(ifaces[s], b);
        ASSERT_TRUE(a.writeWeighting == b.writeWeighting);
        ASSERT_TRUE(adaptive.usage() == reference.usage());
        for (Index h = 0; h < cfg.readHeads; ++h) {
            ASSERT_TRUE(a.readVectors[h] == b.readVectors[h]);
            ASSERT_TRUE(a.readWeightings[h] == b.readWeightings[h]);
        }
    }
}

TEST(MemoryUnit, ResetRestoresVirginState)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(7);
    mu.step(writeIface(cfg, rng.normalVector(cfg.memoryWidth)));
    mu.reset();
    EXPECT_DOUBLE_EQ(mu.usage().sum(), 0.0);
    EXPECT_DOUBLE_EQ(mu.writeWeighting().sum(), 0.0);
    Real memSum = 0.0;
    for (Index i = 0; i < mu.memory().size(); ++i)
        memSum += std::fabs(mu.memory().data()[i]);
    EXPECT_DOUBLE_EQ(memSum, 0.0);
}

TEST(MemoryUnit, ProfilerCoversEveryMemoryKernel)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(8);
    mu.step(writeIface(cfg, rng.normalVector(cfg.memoryWidth)));

    for (Kernel k : {Kernel::Normalize, Kernel::Similarity,
                     Kernel::MemoryWrite, Kernel::MemoryRead,
                     Kernel::Retention, Kernel::Usage, Kernel::UsageSort,
                     Kernel::Allocation, Kernel::WriteMerge,
                     Kernel::Linkage, Kernel::Precedence,
                     Kernel::ForwardBackward, Kernel::ReadMerge}) {
        EXPECT_GT(mu.profiler().at(k).invocations, 0u)
            << "kernel " << kernelName(k) << " never ran";
    }
}

TEST(MemoryUnit, FixedPointModeStaysClose)
{
    DncConfig cfg = smallConfig();
    MemoryUnit real(cfg);
    cfg.fixedPoint = true;
    MemoryUnit fixed(cfg);

    Rng rng(9);
    Vector p = rng.normalVector(cfg.memoryWidth);
    real.step(writeIface(cfg, p));
    fixed.step(writeIface(cfg, p));
    const MemoryReadout a = real.step(readIface(cfg, p));
    const MemoryReadout b = fixed.step(readIface(cfg, p));
    EXPECT_GT(cosineSimilarity(a.readVectors[0], b.readVectors[0]), 0.999);
}

TEST(MemoryUnit, TemporalChainReadableViaForwardMode)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(10);

    Vector p1 = rng.normalVector(cfg.memoryWidth);
    Vector p2 = rng.normalVector(cfg.memoryWidth);
    mu.step(writeIface(cfg, p1));
    mu.step(writeIface(cfg, p2));

    // Locate p1 by content, then switch to forward mode: expect p2.
    mu.step(readIface(cfg, p1));
    InterfaceVector fwd = readIface(cfg, Vector(cfg.memoryWidth));
    for (Index h = 0; h < cfg.readHeads; ++h)
        fwd.readModes[h] = ReadMode{0.0, 0.0, 1.0};
    const MemoryReadout out = mu.step(fwd);
    EXPECT_GT(cosineSimilarity(out.readVectors[0], p2), 0.9);
}

TEST(MemoryUnit, LinkageSkipChurnAcrossEpisodeResets)
{
    // Allocation-gated writes are exactly one-hot, so each step of an
    // episode activates at most one new linkage row: the sparse sweep
    // must skip nearly everything early in every episode, rows never
    // written since the reset must stay bit-zero, and reset() must
    // return the active set to empty each cycle.
    const DncConfig cfg = smallConfig();
    const Index n = cfg.memoryRows;
    MemoryUnit mu(cfg);
    Rng rng(9);

    for (int episode = 0; episode < 3; ++episode) {
        ASSERT_EQ(mu.linkage().activeRowCount(), 0u);

        std::vector<bool> written(n, false);
        const int steps = 6;
        for (int t = 0; t < steps; ++t) {
            const std::uint64_t before =
                mu.profiler().at(Kernel::Linkage).skippedRows;
            const MemoryReadout out =
                mu.step(writeIface(cfg, rng.normalVector(cfg.memoryWidth)));
            written[out.writeWeighting.argmax()] = true;
            // At most t rows carried mass and one more is written, so
            // the fused sweep skips at least n - t - 1 rows this step.
            EXPECT_GE(mu.profiler().at(Kernel::Linkage).skippedRows - before,
                      static_cast<std::uint64_t>(n - t - 1));
        }

        EXPECT_LE(mu.linkage().activeRowCount(),
                  static_cast<Index>(steps));
        const Matrix &link = mu.linkage().linkage();
        for (Index i = 0; i < n; ++i) {
            if (written[i])
                continue;
            // Never written this episode: row and column i are exactly
            // zero and the row carries no cached mass.
            EXPECT_DOUBLE_EQ(mu.linkage().rowMass()[i], 0.0);
            for (Index j = 0; j < n; ++j) {
                EXPECT_DOUBLE_EQ(link(i, j), 0.0);
                EXPECT_DOUBLE_EQ(link(j, i), 0.0);
            }
        }

        mu.reset();
        EXPECT_EQ(mu.linkage().activeRowCount(), 0u);
    }
}

} // namespace
} // namespace hima
