/**
 * @file
 * Per-kernel instrumentation matching Table 1 of the paper.
 *
 * Every DNC kernel (normalize, similarity, retention, usage sort, linkage,
 * forward-backward, ...) reports its primitive-operation counts, external
 * and state memory accesses, and wall-clock runtime through this profiler.
 * Table 1 (`bench_table1_kernels`) and the Fig. 4 / Fig. 11(b) runtime
 * breakdowns are generated from these measurements rather than from
 * hand-written formulas.
 */

#ifndef HIMA_DNC_KERNEL_PROFILER_H
#define HIMA_DNC_KERNEL_PROFILER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace hima {

/** DNC kernels, one per row of Table 1 plus the NN (LSTM) itself. */
enum class Kernel
{
    Normalize,
    Similarity,
    MemoryWrite,
    MemoryRead,
    Retention,
    Usage,
    UsageSort,
    Allocation,
    WriteMerge,
    Linkage,
    Precedence,
    ForwardBackward,
    ReadMerge,
    Lstm,
    NumKernels,
};

/** Kernel groups used in the paper's runtime/power breakdowns (Fig. 4). */
enum class KernelCategory
{
    ContentWeighting,  ///< normalize + similarity (write and read)
    MemoryAccess,      ///< external memory write/read
    HistoryWrite,      ///< retention, usage, usage sort, allocation, merge
    HistoryRead,       ///< linkage, precedence, forward-backward, merge
    Nn,                ///< the LSTM controller
    NumCategories,
};

/** Human-readable kernel name ("Usage Sort"). */
const char *kernelName(Kernel k);

/** Category a kernel belongs to. */
KernelCategory kernelCategory(Kernel k);

/** Human-readable category name ("History-based Wr. Weighting"). */
const char *categoryName(KernelCategory c);

/** Counters accumulated for one kernel. */
struct KernelCounters
{
    std::uint64_t invocations = 0;
    std::uint64_t macOps = 0;        ///< multiply-accumulate
    std::uint64_t elementOps = 0;    ///< element-wise add/sub/mult
    std::uint64_t specialOps = 0;    ///< exp / div / sqrt (SFU traffic)
    std::uint64_t compareOps = 0;    ///< sorter comparator activations
    std::uint64_t extMemAccesses = 0;   ///< external memory words touched
    std::uint64_t stateMemAccesses = 0; ///< state memory words touched
    std::uint64_t nanoseconds = 0;   ///< wall-clock time inside the kernel

    /**
     * Software sparse-sweep savings. Op counters above always charge
     * the full hardware cost model (a Table 1 invariant); these two
     * record what the simulator actually avoided, so the active-row
     * linkage sweep's saving is observable without perturbing the
     * hardware numbers. `skippedRows` counts rows left untouched per
     * logical kernel invocation; `skippedOps` the ops those rows would
     * have cost.
     */
    std::uint64_t skippedRows = 0;
    std::uint64_t skippedOps = 0;

    std::uint64_t
    totalOps() const
    {
        return macOps + elementOps + specialOps + compareOps;
    }

    void merge(const KernelCounters &other);
};

/** Accumulates KernelCounters for every kernel of one model instance. */
class KernelProfiler
{
  public:
    KernelCounters &at(Kernel k);
    const KernelCounters &at(Kernel k) const;

    /** Sum of counters over all kernels in a category. */
    KernelCounters categoryTotal(KernelCategory c) const;

    /** Sum over every kernel. */
    KernelCounters grandTotal() const;

    /** Merge another profiler's counts into this one. */
    void merge(const KernelProfiler &other);

    void reset();

  private:
    std::array<KernelCounters, static_cast<int>(Kernel::NumKernels)>
        counters_{};
};

/**
 * RAII wall-clock scope: charges elapsed nanoseconds and `invocations`
 * logical invocations (one by default) to the kernel on destruction. A
 * fused pass that does the work of several kernel calls passes their
 * count, so Table 1's invocation counts stay per logical call.
 */
class KernelScope
{
  public:
    KernelScope(KernelProfiler &profiler, Kernel kernel,
                std::uint64_t invocations = 1)
        : profiler_(profiler), kernel_(kernel), invocations_(invocations),
          start_(std::chrono::steady_clock::now())
    {}

    ~KernelScope()
    {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        auto &c = profiler_.at(kernel_);
        c.invocations += invocations_;
        c.nanoseconds += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count());
    }

    KernelScope(const KernelScope &) = delete;
    KernelScope &operator=(const KernelScope &) = delete;

  private:
    KernelProfiler &profiler_;
    Kernel kernel_;
    std::uint64_t invocations_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace hima

#endif // HIMA_DNC_KERNEL_PROFILER_H
