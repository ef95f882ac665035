#include "dnc/allocation.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "approx/usage_skimming.h"
#include "common/tensor.h"

namespace hima {

namespace {

inline bool
ascending(const SortRecord &a, const SortRecord &b)
{
    return recordLess(a, b, SortOrder::Ascending);
}

/**
 * Insertion-sorts `records` ascending unless that takes more than
 * `budget` shifts. Returns false once the budget is spent; the records
 * are then a permutation of the input (nothing is lost) but not sorted.
 */
bool
insertionSortWithin(std::vector<SortRecord> &records, Index budget)
{
    Index shifts = 0;
    for (Index i = 1; i < records.size(); ++i) {
        const SortRecord rec = records[i];
        Index j = i;
        while (j > 0 && ascending(rec, records[j - 1])) {
            records[j] = records[j - 1];
            --j;
            if (++shifts > budget) {
                records[j] = rec;
                return false;
            }
        }
        records[j] = rec;
    }
    return true;
}

} // namespace

SortResult
referenceUsageSort(const std::vector<SortRecord> &records, SortOrder order)
{
    SortResult result;
    result.records = records;
    std::stable_sort(result.records.begin(), result.records.end(),
                     [order](const SortRecord &a, const SortRecord &b) {
                         return recordLess(a, b, order);
                     });
    result.cycles = 0;
    result.comparisons = 0;
    return result;
}

Vector
allocationWeighting(const Vector &usage, const UsageSortFn &sorter,
                    Index skimK, KernelProfiler *profiler)
{
    std::vector<SortRecord> scratch;
    Vector wa;
    allocationWeightingInto(usage, &sorter, skimK, scratch, wa, profiler);
    return wa;
}

void
allocationWeightingInto(const Vector &usage, const UsageSortFn *sorter,
                        Index skimK,
                        std::vector<SortRecord> &recordScratch, Vector &wa,
                        KernelProfiler *profiler)
{
    const Index n = usage.size();
    HIMA_ASSERT(n > 0, "allocation over empty usage");
    HIMA_ASSERT(skimK < n, "cannot skim %zu of %zu", skimK, n);

    // The reference path without skimming sorts adaptively (below).
    // When the scratch still holds the previous call's n records, that
    // order is re-keyed from `usage` instead of rebuilt: usage moves
    // little between steps, so last step's order is nearly sorted.
    const bool adaptive = sorter == nullptr && skimK == 0;

    // --- Skim: drop the K smallest usage entries (Sec. 5.2). ---
    if (adaptive && recordScratch.size() == n) {
        const Real *pu = usage.data();
        for (SortRecord &rec : recordScratch)
            rec.key = pu[rec.idx];
    } else if (skimK == 0) {
        recordScratch.clear();
        const Real *pu = usage.data();
        for (Index i = 0; i < n; ++i)
            recordScratch.push_back({pu[i], i});
    } else {
        recordScratch.clear();
        const SkimmedUsage skimmed = skimUsage(usage, skimK);
        for (Index i = 0; i < skimmed.values.size(); ++i)
            recordScratch.push_back({skimmed.values[i], skimmed.indices[i]});
    }

    // --- HW.(2) Usage sort (ascending = free list order). ---
    std::uint64_t comparisons = 0;
    {
        std::optional<KernelScope> scope;
        if (profiler)
            scope.emplace(*profiler, Kernel::UsageSort);
        if (sorter) {
            SortResult sorted =
                (*sorter)(recordScratch, SortOrder::Ascending);
            comparisons = sorted.comparisons;
            recordScratch.swap(sorted.records);
        } else {
            // Reference backend, in place: recordLess is a strict total
            // order, so any correct sort realizes the stable-sort
            // permutation, whatever order it starts from. The adaptive
            // path insertion-sorts first. Past a budget of about
            // n log2 n shifts (what std::sort spends on comparisons)
            // std::sort finishes the job, so the worst case stays
            // O(n log n).
            if (!adaptive ||
                !insertionSortWithin(recordScratch, n * std::bit_width(n)))
                std::sort(recordScratch.begin(), recordScratch.end(),
                          ascending);
        }
        if (profiler) {
            auto &c = profiler->at(Kernel::UsageSort);
            c.compareOps += comparisons;
            c.stateMemAccesses += 2 * recordScratch.size(); // read + write
        }
    }
    HIMA_ASSERT(isSorted(recordScratch, SortOrder::Ascending),
                "usage sort backend returned unsorted output");

    // --- HW.(3) Allocation: accumulate products along the free list. ---
    std::optional<KernelScope> scope;
    if (profiler)
        scope.emplace(*profiler, Kernel::Allocation);

    wa.resize(n);
    wa.fill(0.0);
    Real *pw = wa.data();
    Real runningProduct = 1.0;
    for (const SortRecord &rec : recordScratch) {
        pw[rec.idx] = (1.0 - rec.key) * runningProduct;
        runningProduct *= rec.key;
    }

    if (profiler) {
        auto &c = profiler->at(Kernel::Allocation);
        c.elementOps += 2 * recordScratch.size(); // (1-u)*prod and prod*=
        c.stateMemAccesses += 2 * recordScratch.size();
    }
}

} // namespace hima
