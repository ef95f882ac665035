/**
 * @file
 * Tests for the allocation weighting (HW.(3)) and its sorter backends.
 */

#include <algorithm>
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dnc/allocation.h"
#include "sort/two_stage_sort.h"

namespace hima {
namespace {

TEST(Allocation, LeastUsedSlotWins)
{
    Vector u{0.9, 0.1, 0.8, 0.5};
    const Vector wa = allocationWeighting(u);
    EXPECT_EQ(wa.argmax(), 1u);
    EXPECT_NEAR(wa[1], 0.9, 1e-12); // (1 - 0.1) * empty product
}

TEST(Allocation, KnownClosedForm)
{
    // Sorted ascending: u = [0.1, 0.5, 0.8, 0.9] at indices [1,3,2,0].
    Vector u{0.9, 0.1, 0.8, 0.5};
    const Vector wa = allocationWeighting(u);
    EXPECT_NEAR(wa[1], (1 - 0.1), 1e-12);
    EXPECT_NEAR(wa[3], (1 - 0.5) * 0.1, 1e-12);
    EXPECT_NEAR(wa[2], (1 - 0.8) * 0.1 * 0.5, 1e-12);
    EXPECT_NEAR(wa[0], (1 - 0.9) * 0.1 * 0.5 * 0.8, 1e-12);
}

TEST(Allocation, AllFreeGivesOneHotAtFirst)
{
    const Vector u(8, 0.0);
    const Vector wa = allocationWeighting(u);
    EXPECT_NEAR(wa[0], 1.0, 1e-12);
    for (Index i = 1; i < 8; ++i)
        EXPECT_NEAR(wa[i], 0.0, 1e-12);
}

TEST(Allocation, AllUsedGivesNearZero)
{
    const Vector u(8, 1.0);
    const Vector wa = allocationWeighting(u);
    for (Index i = 0; i < 8; ++i)
        EXPECT_NEAR(wa[i], 0.0, 1e-12);
}

/** Invariant: allocation weights are a sub-distribution. */
class AllocationInvariant : public ::testing::TestWithParam<int>
{};

TEST_P(AllocationInvariant, SubDistribution)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 50);
    const Vector u = rng.uniformVector(64);
    const Vector wa = allocationWeighting(u);
    Real sum = 0.0;
    for (Index i = 0; i < wa.size(); ++i) {
        EXPECT_GE(wa[i], 0.0);
        EXPECT_LE(wa[i], 1.0);
        sum += wa[i];
    }
    EXPECT_LE(sum, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationInvariant,
                         ::testing::Range(0, 10));

TEST(Allocation, HardwareSorterMatchesReference)
{
    Rng rng(77);
    const Vector u = rng.uniformVector(256);

    const Vector ref = allocationWeighting(u, referenceUsageSort);

    TwoStageSorter hw(256, 4);
    UsageSortFn hwSort = [&hw](const std::vector<SortRecord> &recs,
                               SortOrder order) {
        return hw.sort(recs, order);
    };
    const Vector viaHw = allocationWeighting(u, hwSort);

    for (Index i = 0; i < u.size(); ++i)
        EXPECT_NEAR(ref[i], viaHw[i], 1e-12);
}

/**
 * One call of the in-place reference path with a persistent scratch,
 * checked against a fresh std::sort of (usage, index) records: the same
 * permutation in the scratch and the same allocation bits.
 */
void
expectResortMatchesStdSort(const Vector &u,
                           std::vector<SortRecord> &scratch)
{
    std::vector<SortRecord> want;
    for (Index i = 0; i < u.size(); ++i)
        want.push_back({u[i], i});
    std::sort(want.begin(), want.end(),
              [](const SortRecord &a, const SortRecord &b) {
                  return recordLess(a, b, SortOrder::Ascending);
              });
    Vector wa;
    allocationWeightingInto(u, nullptr, 0, scratch, wa);
    ASSERT_EQ(scratch.size(), want.size());
    for (Index k = 0; k < want.size(); ++k) {
        EXPECT_EQ(scratch[k].idx, want[k].idx) << "rank " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scratch[k].key),
                  std::bit_cast<std::uint64_t>(want[k].key))
            << "rank " << k;
    }
    const Vector ref = allocationWeighting(u, referenceUsageSort);
    for (Index i = 0; i < u.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(wa[i]),
                  std::bit_cast<std::uint64_t>(ref[i]))
            << "slot " << i;
}

TEST(Allocation, AdaptiveResortMatchesStdSort)
{
    constexpr Index n = 64;
    Rng rng(21);
    std::vector<SortRecord> scratch;

    // From an empty scratch (index order), all-zero usage.
    expectResortMatchesStdSort(Vector(n, 0.0), scratch);

    // Random usage, then small drifts of it: the re-keyed order of the
    // previous call is nearly sorted.
    Vector u = rng.uniformVector(n);
    expectResortMatchesStdSort(u, scratch);
    for (int step = 0; step < 20; ++step) {
        for (Index i = 0; i < n; ++i)
            u[i] = std::clamp(u[i] + rng.uniform(-0.02, 0.02), 0.0, 1.0);
        expectResortMatchesStdSort(u, scratch);
    }

    // Heavy ties, including +0.0 against -0.0: the index breaks them.
    const Real levels[] = {0.0, -0.0, 0.25, 0.5, 1.0};
    for (int step = 0; step < 5; ++step) {
        for (Index i = 0; i < n; ++i)
            u[i] = levels[static_cast<Index>(rng.uniform() * 5.0) % 5];
        expectResortMatchesStdSort(u, scratch);
    }
}

TEST(Allocation, AdaptiveResortFallsBackOnReversedOrder)
{
    constexpr Index n = 256;
    Vector up(n), down(n);
    for (Index i = 0; i < n; ++i) {
        up[i] = static_cast<Real>(i) / n;
        down[i] = static_cast<Real>(n - i) / n;
    }
    // Re-keying the ascending order with `down` reverses it completely:
    // n(n-1)/2 shifts, far past the n * bit_width(n) budget, so the
    // insertion sort gives up part way and std::sort finishes.
    static_assert(n * (n - 1) / 2 > n * std::bit_width(n));
    std::vector<SortRecord> scratch;
    expectResortMatchesStdSort(up, scratch);
    expectResortMatchesStdSort(down, scratch);
    expectResortMatchesStdSort(up, scratch);
}

TEST(Allocation, SkimmingZerosDroppedSlots)
{
    Vector u{0.0, 0.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
    // Skim the 2 smallest (indices 0, 1): allocation must go to idx 2.
    const Vector wa = allocationWeighting(u, referenceUsageSort, 2);
    EXPECT_EQ(wa[0], 0.0);
    EXPECT_EQ(wa[1], 0.0);
    EXPECT_EQ(wa.argmax(), 2u);
}

TEST(Allocation, SkimmingIsHarmlessWhenManySlotsFree)
{
    // Many zero-usage slots: skimming a few still leaves a free slot as
    // the winner — the paper's "little effect" regime.
    Vector u(32, 0.0);
    u[0] = 0.9;
    const Vector noSkim = allocationWeighting(u);
    const Vector skim = allocationWeighting(u, referenceUsageSort, 4);
    EXPECT_NEAR(skim.max(), noSkim.max(), 1e-9);
    // Winner is still a zero-usage slot.
    EXPECT_EQ(u[skim.argmax()], 0.0);
}

TEST(Allocation, SkimmingForcesOverwriteUnderPressure)
{
    // All slots lightly used except one nearly-free: skimming it forces
    // allocation onto a more-used slot (the accuracy cost of Fig. 10).
    Vector u(8, 0.5);
    u[4] = 0.01;
    const Vector skim = allocationWeighting(u, referenceUsageSort, 1);
    EXPECT_EQ(skim[4], 0.0);
    EXPECT_NE(skim.argmax(), 4u);
}

TEST(Allocation, ProfilerChargesSortAndAllocation)
{
    KernelProfiler prof;
    Rng rng(9);
    const Vector u = rng.uniformVector(64);
    TwoStageSorter hw(64, 4);
    UsageSortFn hwSort = [&hw](const std::vector<SortRecord> &recs,
                               SortOrder order) {
        return hw.sort(recs, order);
    };
    allocationWeighting(u, hwSort, 0, &prof);
    EXPECT_EQ(prof.at(Kernel::UsageSort).invocations, 1u);
    EXPECT_GT(prof.at(Kernel::UsageSort).compareOps, 0u);
    EXPECT_EQ(prof.at(Kernel::Allocation).elementOps, 2u * 64);
}

} // namespace
} // namespace hima
