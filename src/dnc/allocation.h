/**
 * @file
 * Allocation weighting (HW.(2)-(3) in Fig. 2): sort the usage vector
 * ascending to obtain the free list, then accumulate products of sorted
 * usage so the least-used slot receives (almost) all the write allocation.
 *
 * The sorter is pluggable — centralized merge sort, HiMA's two-stage sort,
 * or a plain std::sort reference — because the sorting *result* must be
 * identical across them (tested) while the cycle cost differs. Usage
 * skimming (Sec. 5.2) optionally drops the entries least relevant to the
 * allocation before sorting.
 */

#ifndef HIMA_DNC_ALLOCATION_H
#define HIMA_DNC_ALLOCATION_H

#include <functional>

#include "dnc/kernel_profiler.h"
#include "sort/sort_types.h"

namespace hima {

/** Pluggable sorting backend for the usage sort. */
using UsageSortFn =
    std::function<SortResult(const std::vector<SortRecord> &, SortOrder)>;

/** Reference backend: std::stable_sort, zero modeled cycles. */
SortResult referenceUsageSort(const std::vector<SortRecord> &records,
                              SortOrder order);

/**
 * Compute the allocation weighting.
 *
 * wa[phi[j]] = (1 - u[phi[j]]) * prod_{i<j} u[phi[i]] with phi the
 * ascending usage order.
 *
 * Usage skimming (Sec. 5.2): discard the K *smallest* usage entries
 * before the sort, shrinking the sort and product chain by K. Skimmed
 * entries receive zero allocation weight, so writes land on the
 * (K+1)-th least-used slot onward. While plenty of near-free slots
 * remain this is harmless (the paper's "least significant usage entries
 * have little effect"); as memory pressure grows it forces overwrites of
 * live slots — the accuracy/efficiency trade Fig. 10 quantifies.
 *
 * @param usage    length-N usage vector, entries in [0, 1]
 * @param sorter   sorting backend (defaults to the reference sort)
 * @param skimK    entries to skim (0 disables)
 * @param profiler optional instrumentation sink
 */
Vector allocationWeighting(const Vector &usage,
                           const UsageSortFn &sorter = referenceUsageSort,
                           Index skimK = 0,
                           KernelProfiler *profiler = nullptr);

/**
 * Destination-passing allocation weighting.
 *
 * With a null `sorter`, the reference backend (zero modeled cycles) sorts
 * `recordScratch` in place, so a steady-state call with skimK == 0
 * performs no heap allocation. Without skimming it is adaptive: when the
 * scratch already holds n records (the previous call's sorted order),
 * their keys are refreshed from `usage` and the nearly sorted result is
 * insertion-sorted, with std::sort taking over past a shift budget of
 * about n log2 n. The permutation is identical to referenceUsageSort's
 * stable sort from any starting order because recordLess is a strict
 * total order. A non-null sorter goes through the pluggable
 * std::function exactly as the value-returning API does.
 *
 * @param recordScratch reusable (key, index) buffer, grown on first
 *                      use; between calls with the same usage length
 *                      it must hold the previous call's records (or be
 *                      cleared)
 * @param wa            result weighting (resized and overwritten)
 */
void allocationWeightingInto(const Vector &usage, const UsageSortFn *sorter,
                             Index skimK,
                             std::vector<SortRecord> &recordScratch,
                             Vector &wa,
                             KernelProfiler *profiler = nullptr);

} // namespace hima

#endif // HIMA_DNC_ALLOCATION_H
