/**
 * @file
 * Bit-exactness proof for the batched serving engine: every lane of a
 * BatchedDnc must match an independent reference Dnc run — outputs and
 * complete per-lane state, compared with exact double equality — for
 * every combination of batch size, thread count and datapath mode, plus
 * the feature knobs that change the memory-unit fast path
 * (writeSkipThreshold, usage skimming, approximate softmax). Below the
 * engine, the shared BatchedController is checked sweep by sweep against
 * per-lane Controllers over every sweep width, lane stride and first
 * column the engines use, including the columns a sweep must not touch.
 */

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "golden_util.h"

namespace hima {
namespace {

DncConfig
tinyConfig()
{
    DncConfig cfg;
    cfg.memoryRows = 40;
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    cfg.controllerSize = 24;
    cfg.inputSize = 10;
    cfg.outputSize = 8;
    return cfg;
}

// --------------------------------------------------------------------
// The B x threads x datapath sweep from the issue:
// B in {1,2,7,16} x threads in {1,4} x {float, fixed-point}.
// --------------------------------------------------------------------

class BatchedDncBitExact
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{};

TEST_P(BatchedDncBitExact, LanesMatchSequentialReference)
{
    const auto [batch, threads, fixedPoint] = GetParam();
    DncConfig cfg = tinyConfig();
    cfg.fixedPoint = fixedPoint;
    golden::runLockstep(cfg, static_cast<Index>(batch),
                        static_cast<Index>(threads), 8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchedDncBitExact,
    ::testing::Combine(::testing::Values(1, 2, 7, 16),
                       ::testing::Values(1, 4), ::testing::Bool()),
    [](const auto &info) {
        return "B" + std::to_string(std::get<0>(info.param)) + "T" +
               std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "Fixed" : "Float");
    });

// --------------------------------------------------------------------
// Feature knobs that alter the memory-unit hot path.
// --------------------------------------------------------------------

TEST(BatchedDnc, WriteSkipThresholdStaysBitIdentical)
{
    DncConfig cfg = tinyConfig();
    cfg.writeSkipThreshold = 1e-6;
    golden::runLockstep(cfg, 5, 4, 8, /*weightSeed=*/3, /*inputSeed=*/31);
}

TEST(BatchedDnc, UsageSkimmingStaysBitIdentical)
{
    DncConfig cfg = tinyConfig();
    cfg.skimRate = 0.25;
    golden::runLockstep(cfg, 3, 2, 8, /*weightSeed=*/5, /*inputSeed=*/51);
}

TEST(BatchedDnc, ApproximateSoftmaxStaysBitIdentical)
{
    DncConfig cfg = tinyConfig();
    cfg.approximateSoftmax = true;
    golden::runLockstep(cfg, 4, 1, 6, /*weightSeed=*/7, /*inputSeed=*/71);
}

TEST(BatchedDnc, LinkageSkipThresholdStaysBitIdentical)
{
    DncConfig cfg = tinyConfig();
    cfg.linkageSkipThreshold = 1e-6;
    golden::runLockstep(cfg, 5, 4, 8, /*weightSeed=*/9, /*inputSeed=*/41);
}

TEST(BatchedDnc, LinkageSkipChurnStaysBitIdentical)
{
    // Admit/release churn with the linkage approximation on: every
    // admit's episode reset must clear the lane's active-row set, and
    // the row-mass compare inside expectLaneStateIdentical pins each
    // lane's skip decisions to its sequential reference every step.
    DncConfig cfg = tinyConfig();
    cfg.linkageSkipThreshold = 1e-6;
    golden::runChurnLockstep(cfg, /*capacity=*/5, /*threads=*/2, 14,
                             /*weightSeed=*/21, /*churnSeed=*/9,
                             /*inputSeed=*/61);
}

TEST(BatchedDnc, BeyondOneLaneChunkStaysBitIdentical)
{
    // B=70 crosses the kBatchLaneChunk=64 boundary of the SoA sweeps:
    // lanes 64..69 run through the second accumulator chunk (b0 > 0),
    // which no B <= 64 case ever touches.
    static_assert(kBatchLaneChunk == 64, "revisit the batch size below");
    DncConfig cfg = tinyConfig();
    cfg.memoryRows = 16;
    cfg.controllerSize = 12;
    golden::runLockstep(cfg, 70, 2, 3, /*weightSeed=*/19, /*inputSeed=*/23,
                        /*stateEvery=*/0); // outputs every step, state last
}

TEST(BatchedDnc, LargerShapesSpotCheck)
{
    DncConfig cfg;
    cfg.memoryRows = 128;
    cfg.memoryWidth = 32;
    cfg.readHeads = 4;
    cfg.controllerSize = 64;
    cfg.inputSize = 32;
    cfg.outputSize = 32;
    golden::runLockstep(cfg, 4, 4, 4, /*weightSeed=*/11, /*inputSeed=*/13,
                        /*stateEvery=*/0); // outputs every step, state last
}

// --------------------------------------------------------------------
// The shared controller kernel against per-lane Controller references:
// every sweep width 1-9 over lane strides {1, 4, 8, 16}, the window
// centred so that it starts at a nonzero column and leaves columns on
// both sides whenever the tile has room. Widths of four and more run
// the AVX2 body (Release builds), the rest of each sweep its portable
// tail; sanitizer builds run the portable loop only.
// --------------------------------------------------------------------

/** One controller step over columns [first, first + n), checked against
 *  the per-column references; reads[c] plays the memory's role. */
void
stepColumnsAgainstRefs(BatchedController &batched,
                       std::vector<std::unique_ptr<Controller>> &refs,
                       std::vector<std::vector<Vector>> &reads,
                       const DncConfig &cfg, Index first, Index n, Rng &rng)
{
    std::vector<Vector> inputs(batched.capacity(), Vector(cfg.inputSize));
    for (Index c = first; c < first + n; ++c)
        inputs[batched.slotAt(c)] = rng.normalVector(cfg.inputSize);
    batched.loadFeed(inputs, first, n);
    batched.lstmRows(0, cfg.controllerSize, first, n);
    batched.interfaceRows(0, cfg.interfaceSize(), first, n);
    for (Index c = first; c < first + n; ++c) {
        const Index slot = batched.slotAt(c);
        SCOPED_TRACE(::testing::Message() << "column " << c << " slot "
                                          << slot);
        golden::expectIfaceEqual(
            refs[slot]->stepInto(inputs[slot], reads[slot]),
            batched.decode(c));
        for (Vector &rv : reads[slot])
            rv = rng.normalVector(cfg.memoryWidth);
        batched.setReads(c, reads[slot]);
    }
    batched.outputSweep(first, n);
    Vector want;
    Vector got;
    for (Index c = first; c < first + n; ++c) {
        const Index slot = batched.slotAt(c);
        refs[slot]->outputInto(reads[slot], want);
        batched.outputInto(c, got);
        EXPECT_TRUE(want == got) << "output diverged, slot " << slot;
        EXPECT_TRUE(refs[slot]->lstm().hidden() == batched.laneHidden(slot))
            << "hidden state diverged, slot " << slot;
        EXPECT_TRUE(refs[slot]->lstm().cell() == batched.laneCell(slot))
            << "cell state diverged, slot " << slot;
    }
}

/** Every column's bits a sweep must not touch outside its range. */
struct ColumnSnapshot
{
    Vector hidden;
    Vector cell;
    Vector output;
};

ColumnSnapshot
snapshotColumn(const BatchedController &batched, Index column)
{
    ColumnSnapshot snap;
    snap.hidden = batched.laneHidden(batched.slotAt(column));
    snap.cell = batched.laneCell(batched.slotAt(column));
    batched.outputInto(column, snap.output);
    return snap;
}

void
expectColumnUntouched(const BatchedController &batched, Index column,
                      const ColumnSnapshot &before)
{
    const ColumnSnapshot now = snapshotColumn(batched, column);
    EXPECT_TRUE(now.hidden == before.hidden) << "column " << column;
    EXPECT_TRUE(now.cell == before.cell) << "column " << column;
    EXPECT_TRUE(now.output == before.output) << "column " << column;
}

DncConfig
kernelConfig(Index stride)
{
    DncConfig cfg = tinyConfig();
    cfg.controllerSize = 13; // interface rows 73 and output rows 7: both
    cfg.outputSize = 7;      // heads leave rows beyond the groups of four
    cfg.batchSize = stride;
    return cfg;
}

std::vector<std::unique_ptr<Controller>>
referenceControllers(const DncConfig &cfg, std::uint64_t seed)
{
    std::vector<std::unique_ptr<Controller>> refs;
    for (Index slot = 0; slot < cfg.batchSize; ++slot) {
        Rng rng(seed);
        refs.push_back(std::make_unique<Controller>(cfg, rng));
    }
    return refs;
}

class BatchedControllerKernel : public ::testing::TestWithParam<int>
{};

TEST_P(BatchedControllerKernel, EverySweepWidthMatchesPerLaneControllers)
{
    const Index stride = static_cast<Index>(GetParam());
    const DncConfig cfg = kernelConfig(stride);
    constexpr std::uint64_t kSeed = 5;
    Rng rng(97 + stride);
    for (Index count = 1; count <= std::min<Index>(9, stride); ++count) {
        SCOPED_TRACE(::testing::Message() << "sweep width " << count);
        // Centre the window: columns on both sides whenever there is room.
        const Index col0 = (stride - count + 1) / 2;
        const Index end = col0 + count;
        BatchedController batched(cfg, kSeed);
        auto refs = referenceControllers(cfg, kSeed);
        std::vector<std::vector<Vector>> reads(
            stride,
            std::vector<Vector>(cfg.readHeads, Vector(cfg.memoryWidth)));

        // Give every column its own history, then sweep only the window:
        // the columns outside it must keep every bit.
        stepColumnsAgainstRefs(batched, refs, reads, cfg, 0, stride, rng);
        for (int step = 0; step < 3; ++step) {
            std::vector<ColumnSnapshot> before(stride);
            for (Index c = 0; c < stride; ++c)
                before[c] = snapshotColumn(batched, c);
            stepColumnsAgainstRefs(batched, refs, reads, cfg, col0, count,
                                   rng);
            for (Index c = 0; c < stride; ++c)
                if (c < col0 || c >= end)
                    expectColumnUntouched(batched, c, before[c]);
        }
        // The skipped columns (previous reads included) resume their
        // reference streams exactly.
        stepColumnsAgainstRefs(batched, refs, reads, cfg, 0, stride, rng);
        if (::testing::Test::HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Strides, BatchedControllerKernel,
                         ::testing::Values(1, 4, 8, 16),
                         [](const auto &info) {
                             return "S" + std::to_string(info.param);
                         });

TEST(BatchedControllerKernel, DrainingColumnsStayUntouched)
{
    const DncConfig cfg = kernelConfig(8);
    constexpr std::uint64_t kSeed = 5;
    Rng rng(131);
    BatchedController batched(cfg, kSeed);
    auto refs = referenceControllers(cfg, kSeed);
    std::vector<std::vector<Vector>> reads(
        cfg.batchSize,
        std::vector<Vector>(cfg.readHeads, Vector(cfg.memoryWidth)));

    stepColumnsAgainstRefs(batched, refs, reads, cfg, 0, cfg.batchSize, rng);
    batched.markDraining(2);
    batched.markDraining(5);
    ASSERT_EQ(batched.activeLanes(), 6u);
    ASSERT_EQ(batched.drainingLanes(), 2u);
    const ColumnSnapshot drained2 =
        snapshotColumn(batched, batched.column(2));
    const ColumnSnapshot drained5 =
        snapshotColumn(batched, batched.column(5));
    for (int step = 0; step < 3; ++step)
        stepColumnsAgainstRefs(batched, refs, reads, cfg, 0,
                               batched.activeLanes(), rng);
    expectColumnUntouched(batched, batched.column(2), drained2);
    expectColumnUntouched(batched, batched.column(5), drained5);

    // Recycling slot 5 moves slot 2's Draining column out of the way
    // with its state intact, and the fresh episode keeps its reference
    // stream.
    batched.release(5);
    ASSERT_EQ(batched.admit(), 5u);
    refs[5]->reset();
    for (Vector &rv : reads[5])
        rv.fill(0.0);
    EXPECT_TRUE(batched.laneHidden(2) == drained2.hidden);
    EXPECT_TRUE(batched.laneCell(2) == drained2.cell);
    for (int step = 0; step < 2; ++step)
        stepColumnsAgainstRefs(batched, refs, reads, cfg, 0,
                               batched.activeLanes(), rng);
}

// --------------------------------------------------------------------
// Behavioral checks that don't need the reference model.
// --------------------------------------------------------------------

TEST(BatchedDnc, ResetRestartsEveryLane)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 3;
    BatchedDnc engine(cfg, 17);
    Rng rng(23);

    // Record a trajectory from fresh state, reset, replay: identical.
    const std::vector<Vector> inputs =
        golden::randomBatchInputs(cfg, cfg.batchSize, rng);
    const std::vector<Vector> first = engine.step(inputs);
    engine.step(golden::randomBatchInputs(cfg, cfg.batchSize, rng));
    engine.reset();
    const std::vector<Vector> replay = engine.step(inputs);
    for (Index b = 0; b < cfg.batchSize; ++b)
        EXPECT_TRUE(first[b] == replay[b]) << "lane " << b;
}

TEST(BatchedDnc, AdmitResetClearsLinkageActivity)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 2;
    cfg.numThreads = 1;
    BatchedDnc engine(cfg, 17);
    Rng rng(5);

    // Fresh lanes start with no active linkage rows.
    EXPECT_EQ(engine.laneMemory(0).linkage().activeRowCount(), 0u);

    std::vector<Vector> outputs;
    for (int step = 0; step < 6; ++step)
        engine.stepInto(golden::randomBatchInputs(cfg, cfg.batchSize, rng),
                        outputs);
    // Full-DNC traffic (softmax content weighting) activates rows.
    EXPECT_GT(engine.laneMemory(0).linkage().activeRowCount(), 0u);

    // Release + re-admit: the in-place episode reset must leave the
    // lane indistinguishable from a fresh one — no active rows, no
    // cached mass, a bit-zero matrix.
    engine.release(0);
    const Index slot = engine.admit();
    ASSERT_EQ(slot, 0u);
    const TemporalLinkage &tl = engine.laneMemory(slot).linkage();
    EXPECT_EQ(tl.activeRowCount(), 0u);
    EXPECT_DOUBLE_EQ(tl.rowMass().sum(), 0.0);
    const Matrix zeros(cfg.memoryRows, cfg.memoryRows);
    EXPECT_TRUE(tl.linkage() == zeros);
}

TEST(BatchedDnc, LanesAreIndependent)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 2;
    BatchedDnc engine(cfg, 29);
    Rng rng(37);

    // Distinct inputs must produce distinct per-lane trajectories (the
    // lanes share weights, not state).
    std::vector<Vector> outputs;
    for (int step = 0; step < 3; ++step)
        outputs =
            engine.step(golden::randomBatchInputs(cfg, cfg.batchSize, rng));
    EXPECT_FALSE(outputs[0] == outputs[1]);

    // Identical inputs on every lane must produce identical lanes.
    BatchedDnc uniform(cfg, 29);
    const Vector token = rng.normalVector(cfg.inputSize);
    std::vector<Vector> same(cfg.batchSize, token);
    for (int step = 0; step < 3; ++step)
        outputs = uniform.step(same);
    EXPECT_TRUE(outputs[0] == outputs[1]);
}

TEST(BatchedDnc, BatchSizeOneMatchesDncExactly)
{
    // The degenerate batch: a one-lane engine is a drop-in Dnc.
    golden::runLockstep(tinyConfig(), 1, 1, 10, /*weightSeed=*/41,
                        /*inputSeed=*/43);
}

} // namespace
} // namespace hima
