/**
 * @file
 * Pins Table 1's per-kernel counters at the paper's evaluation point
 * (N x W = 1024 x 64, R = 4).
 *
 * The counters are the hardware cost model: every simulator speed-up
 * (row-parallel SIMD bodies, sparse sweeps, the one-pass multi-head
 * read, the adaptive usage re-sort) must leave them exactly where they
 * are. The expected values below were recorded from the implementation
 * before those kernels were vectorized; any one-op drift in any counter
 * of any kernel fails this test.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "dnc/memory_unit.h"
#include "golden_util.h"

namespace hima {
namespace {

/** The pinned subset of KernelCounters (wall-clock time is not pinned). */
struct PinnedCounters
{
    std::uint64_t invocations;
    std::uint64_t totalOps;
    std::uint64_t extMem;
    std::uint64_t stateMem;
    std::uint64_t skippedRows;
    std::uint64_t skippedOps;
};

constexpr int kKernels = static_cast<int>(Kernel::NumKernels);

void
expectPinned(const KernelProfiler &prof,
             const PinnedCounters (&expected)[kKernels])
{
    for (int k = 0; k < kKernels; ++k) {
        const KernelCounters &c = prof.at(static_cast<Kernel>(k));
        const PinnedCounters &e = expected[k];
        SCOPED_TRACE(kernelName(static_cast<Kernel>(k)));
        EXPECT_EQ(c.invocations, e.invocations);
        EXPECT_EQ(c.totalOps(), e.totalOps);
        EXPECT_EQ(c.extMemAccesses, e.extMem);
        EXPECT_EQ(c.stateMemAccesses, e.stateMem);
        EXPECT_EQ(c.skippedRows, e.skippedRows);
        EXPECT_EQ(c.skippedOps, e.skippedOps);
    }
}

// Rows in Kernel enum order: invocations, total ops, ext-mem, state-mem,
// skipped rows, skipped ops.

// Step 1 from a fresh unit, allocation gate 1: exactly one row is
// written, so the read stage and the linkage sweep skip 1023 rows.
constexpr PinnedCounters kAfterStep1[kKernels] = {
    {5, 333125, 327680, 320, 0, 0},                 // Normalize
    {5, 343040, 327680, 320, 5116, 327424},         // Similarity
    {1, 262144, 131072, 1024, 0, 0},                // Memory Write
    {4, 262144, 262144, 4096, 4092, 261888},        // Memory Read
    {1, 8192, 0, 4096, 0, 0},                       // Retention
    {1, 4096, 0, 3072, 0, 0},                       // Usage
    {1, 0, 0, 2048, 0, 0},                          // Usage Sort
    {1, 2048, 0, 2048, 0, 0},                       // Allocation
    {1, 3072, 0, 3072, 0, 0},                       // Wr. Weight Merge
    {1, 4194304, 0, 2099200, 1023, 4194300},        // Linkage
    {1, 3072, 0, 3072, 0, 0},                       // Precedence
    {8, 8388608, 0, 8404992, 8184, 8388600},        // Forward-Backward
    {4, 12288, 0, 16384, 0, 0},                     // Rd. Weight Merge
    {0, 0, 0, 0, 0, 0},                             // NN (LSTM)
};

// Cumulative after a second, fully mixed step: every row is written.
constexpr PinnedCounters kAfterStep2[kKernels] = {
    {10, 666250, 655360, 640, 0, 0},                // Normalize
    {10, 686080, 655360, 640, 6139, 392896},        // Similarity
    {2, 524288, 262144, 2048, 0, 0},                // Memory Write
    {8, 524288, 524288, 8192, 4092, 261888},        // Memory Read
    {2, 16384, 0, 8192, 0, 0},                      // Retention
    {2, 8192, 0, 6144, 0, 0},                       // Usage
    {2, 0, 0, 4096, 0, 0},                          // Usage Sort
    {2, 4096, 0, 4096, 0, 0},                       // Allocation
    {2, 6144, 0, 6144, 0, 0},                       // Wr. Weight Merge
    {2, 8388608, 0, 4198400, 1023, 4194300},        // Linkage
    {2, 6144, 0, 6144, 0, 0},                       // Precedence
    {16, 16777216, 0, 16809984, 8184, 8388600},     // Forward-Backward
    {8, 24576, 0, 32768, 0, 0},                     // Rd. Weight Merge
    {0, 0, 0, 0, 0, 0},                             // NN (LSTM)
};

TEST(Table1Counters, PaperPointStepMatchesPinnedValues)
{
    const DncConfig cfg; // the paper point: 1024 x 64, R = 4
    ASSERT_EQ(cfg.memoryRows, 1024u);
    ASSERT_EQ(cfg.memoryWidth, 64u);
    ASSERT_EQ(cfg.readHeads, 4u);
    MemoryUnit mu(cfg);
    Rng rng(2024);
    MemoryReadout out;

    InterfaceVector first = golden::randomIface(cfg, rng);
    first.allocationGate = 1.0;
    mu.stepInto(first, out);
    {
        SCOPED_TRACE("after step 1");
        expectPinned(mu.profiler(), kAfterStep1);
    }

    mu.stepInto(golden::randomIface(cfg, rng), out);
    {
        SCOPED_TRACE("after step 2");
        expectPinned(mu.profiler(), kAfterStep2);
    }
}

} // namespace
} // namespace hima
