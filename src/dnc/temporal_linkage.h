/**
 * @file
 * Temporal linkage (HR.(1)-(3) in Fig. 2): the N x N linkage matrix that
 * records the order in which slots were written, the precedence vector
 * feeding it, and the forward/backward read weightings derived from it.
 *
 * This is the state memory that dominates HiMA's on-tile storage (262 KB
 * of 2.07 mm^2 PT memory in Fig. 11(e)) and the kernel with the worst NoC
 * footprint (O(Nt * N^2), Table 1).
 */

#ifndef HIMA_DNC_TEMPORAL_LINKAGE_H
#define HIMA_DNC_TEMPORAL_LINKAGE_H

#include <cstdint>
#include <vector>

#include "dnc/kernel_profiler.h"
#include "common/tensor.h"

namespace hima {

/**
 * Linkage matrix + precedence vector with their update rules.
 *
 * The kernels exploit the matrix's structural sparsity: row and column
 * i of L are exactly zero until slot i has ever received write mass,
 * and the row's total mass is tracked in a per-row cache (`rowMass()`,
 * the sum of absolute entries, refreshed in the same pass that writes
 * the row). A row is *active* — swept by the update and read kernels —
 * only while its cached mass, or its current write weight, exceeds
 * `skipThreshold`; inactive rows are left untouched and contribute
 * nothing to the forward/backward weightings, so every kernel costs
 * O(A*N) instead of O(N^2), with A = active rows.
 *
 * The sweeps are additionally *column*-sparse: the class tracks the
 * monotone set of slots ever written since the last reset (`touched`
 * slots — w[j] exceeded the threshold at some step). An untouched slot
 * j has p[j] == +0.0 and L[i][j] == +0.0 for every i (the update only
 * ever adds w[i]*p[j] into column j), so the linkage update, the mass
 * refresh, the forward dots and the backward accumulations all iterate
 * the touched columns only, making the fused sweep O(A * T) with T =
 * touched slots instead of O(A * N).
 *
 * At threshold 0 (default) only exactly-zero rows/columns are skipped
 * and the sweep is bit-identical to the dense O(N^2) kernels of the
 * reference model in tests/dense_reference.h (a skipped row
 * or column would have computed to all zeros and contributed +0.0
 * everywhere). A positive threshold additionally freezes rows whose
 * mass has decayed below it and drops the sub-threshold precedence
 * mass of untouched columns — the paper-style approximation,
 * quantified by `linkage_skip_sweep` in bench_hot_path. Row activity
 * is a pure function of (L, w) and is rebuilt on restore; the touched
 * set is *not* derivable from (L, p) at positive thresholds, so
 * checkpoints carry it explicitly (restoreState takes it back) — that
 * is what keeps a mid-episode restore's skip behavior indistinguishable
 * from an undisturbed run at any threshold.
 */
class TemporalLinkage
{
  public:
    /**
     * Construct zeroed state for an N-slot memory.
     *
     * @param skipThreshold active-row threshold (see class comment)
     */
    explicit TemporalLinkage(Index slots, Real skipThreshold = 0.0);

    /**
     * HR.(2) Precedence update: p <- (1 - sum(w)) p + w.
     */
    void updatePrecedence(const Vector &writeWeighting,
                          KernelProfiler *profiler = nullptr);

    /**
     * Fused update + read sweep, in one blocked traversal of L:
     *
     *   HR.(1) L <- {(E - w 1^T - 1 w^T) .* L + w p^T} .* (E - I), with w
     *          the current write weighting and p the *previous*
     *          precedence;
     *   HR.(3) forward[h] = L w_prev[h] and backward[h] = L^T w_prev[h]
     *          for every head, over the updated L.
     *
     * Bit-identical to the dense kernels run one after the other —
     * forward dots accumulate over ascending columns and backward sums
     * over ascending rows — but the N x N linkage matrix moves through
     * DRAM once per step instead of once per kernel (2 + 2R passes),
     * which is what the O(N^2) kernels are bound by at large N. While
     * one block of rows is read, the next block's rows are prefetched
     * into L2, so a matrix that has left the cache does not stall every
     * block. The profiler is charged as the hardware runs the kernels:
     * one Linkage invocation and 2R ForwardBackward invocations. One
     * clock pair times the whole sweep, and the time is split between
     * Linkage and ForwardBackward in proportion to their op counts for
     * the call (4 : 2R); both are History-based Read in Fig. 4.
     *
     * Does not touch the precedence vector: call updatePrecedence()
     * afterwards.
     */
    void updateAndRead(const Vector &writeWeighting,
                       const std::vector<Vector> &prevReadWeightings,
                       std::vector<Vector> &forward,
                       std::vector<Vector> &backward,
                       KernelProfiler *profiler = nullptr);

    const Matrix &linkage() const { return linkage_; }
    const Vector &precedence() const { return precedence_; }
    Index slots() const { return slots_; }
    Real skipThreshold() const { return skipThreshold_; }

    /**
     * Per-row mass cache: rowMass()[i] == sum_j |L[i][j]|, refreshed in
     * the same pass that last wrote row i. Every refresh and
     * restoreState()'s rebuild sum in one fixed lane order (column j
     * into lane j % 8, lanes folded in a fixed tree), so the cache is
     * bit-identical to a fresh rebuild of the same matrix — a restored
     * run makes the same skip decisions as an undisturbed one at any
     * threshold. At threshold 0 the order cannot matter: a sum of
     * nonnegative terms is > 0 exactly when some term is. Rows skipped
     * by the sweep keep their previous (still valid) mass.
     */
    const Vector &rowMass() const { return rowMass_; }

    /** Rows the next sweep would visit given a zero write weighting. */
    Index
    activeRowCount() const
    {
        Index active = 0;
        for (Index i = 0; i < slots_; ++i)
            if (rowMass_[i] > skipThreshold_)
                ++active;
        return active;
    }

    /**
     * The monotone touched-slot set: slots whose write weight exceeded
     * the skip threshold at some step since the last reset, ascending. This is the column set
     * every sweep iterates, and the set checkpoints must carry for a
     * restore to reproduce an undisturbed run at positive thresholds.
     */
    const std::vector<Index> &touchedSlots() const;

    /** Reset all state to zero (episode boundary). */
    void reset();

    /**
     * Overwrite linkage + precedence from a flat row-major snapshot
     * (checkpoint restore; fatal on size mismatch). Rebuilds the
     * active-row mass cache from the restored matrix — the recompute
     * uses the same per-row summation order as the sweep's refresh, so
     * a restored run's skip decisions are bit-identical to an
     * undisturbed one at any threshold.
     *
     * `touchedSlots` is the snapshotted touched set (strictly
     * ascending; fatal otherwise). Columns holding nonzero restored
     * mass are unioned in defensively, so a faithful snapshot restores
     * exactly and a hand-edited one stays safe.
     */
    void restoreState(const Vector &linkageFlat, const Vector &precedence,
                      const std::vector<Index> &touchedSlots);

  private:
    /** updateAndRead() body specialized on the head count R. */
    template <Index R>
    void updateAndReadImpl(const Vector &writeWeighting,
                           std::vector<Vector> &forward,
                           std::vector<Vector> &backward,
                           KernelProfiler *profiler);

    /**
     * Collect the rows `writeWeighting` makes active into activeRows_,
     * fold newly written slots into the touched set, and rebuild
     * touchedList_ — one O(N) pass per step.
     */
    void gatherActiveRows(const Real *writeWeighting);

    /**
     * Rebuild rowMass_ from the full matrix (restoreState's recompute,
     * the same fixed-lane-order reduction as the sweeps' refresh) and
     * mark every column holding a nonzero entry as touched.
     */
    void rebuildMassAndMarkTouched();

    Index slots_;
    Real skipThreshold_;
    Matrix linkage_;
    Vector precedence_;
    Vector rowMass_; ///< per-row sum of |L[i][j]| (see rowMass())

    // Active-row scratch for the sweeps, reserved at construction so
    // steady-state steps stay allocation-free.
    std::vector<Index> activeRows_;

    // Monotone touched-slot flags (cleared on reset) and their ascending
    // index list. The list is rebuilt lazily — checkpoint capture reads
    // it through a const tile, so it is mutable and revalidated on
    // demand; capacity is reserved at construction, keeping steady state
    // allocation-free.
    std::vector<std::uint8_t> touched_;
    mutable std::vector<Index> touchedList_;
    mutable bool touchedListValid_ = false;

    // Head-interleaved scratch for the fused sweep (slots x R each,
    // grown on first use): lane h of word j holds head h's value for
    // slot j, which lets the per-head accumulation chains run as one
    // SIMD lane group while keeping every chain's order intact.
    std::vector<Real> interleavedReads_;
    std::vector<Real> interleavedBackward_;
};

} // namespace hima

#endif // HIMA_DNC_TEMPORAL_LINKAGE_H
