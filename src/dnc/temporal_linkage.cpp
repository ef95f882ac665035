#include "dnc/temporal_linkage.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace hima {

namespace {

/**
 * Lane count of the row-mass reduction. Column j always accumulates
 * into lane j % kMassLanes, in ascending j within its lane, and the
 * lanes fold in one fixed tree (foldMassLanes). Eight independent add
 * chains keep the reduction off the floating-point add latency that a
 * single serial chain waits on, and vectorize without reassociation.
 */
constexpr Index kMassLanes = 8;

/** Fixed pairwise fold of the lane partial sums. */
inline Real
foldMassLanes(const Real (&lane)[kMassLanes])
{
    static_assert(kMassLanes == 8, "fold tree is written for 8 lanes");
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
           ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/**
 * Adds |row[j]| for every j in [begin, end) into lane j % kMassLanes,
 * in ascending j. `begin` must be a multiple of kMassLanes.
 */
inline void
addMassRange(const Real *row, Index begin, Index end,
             Real (&lane)[kMassLanes])
{
    const Index body = end - (end - begin) % kMassLanes;
#if defined(__AVX2__)
    // Lanes 0-3 and 4-7 as two 256-bit chains: the same per-lane adds
    // as the scalar loop below, with two independent dependency chains
    // and no 512-bit instructions.
    const __m256d sign = _mm256_set1_pd(-0.0);
    __m256d lo = _mm256_loadu_pd(lane);
    __m256d hi = _mm256_loadu_pd(lane + 4);
    for (Index j = begin; j < body; j += kMassLanes) {
        const __m256d a = _mm256_andnot_pd(sign, _mm256_loadu_pd(row + j));
        const __m256d b = _mm256_andnot_pd(sign, _mm256_loadu_pd(row + j + 4));
        lo = _mm256_add_pd(lo, a);
        hi = _mm256_add_pd(hi, b);
    }
    _mm256_storeu_pd(lane, lo);
    _mm256_storeu_pd(lane + 4, hi);
#else
    for (Index j = begin; j < body; j += kMassLanes)
        for (Index l = 0; l < kMassLanes; ++l)
            lane[l] += std::fabs(row[j + l]);
#endif
    for (Index j = body; j < end; ++j)
        lane[j % kMassLanes] += std::fabs(row[j]);
}

/**
 * Absolute mass of one linkage row in the fixed lane order above. The
 * sweep's in-pass refresh and restoreState()'s rebuild both call this
 * (or rowMassOfTouched, which yields the same bits), so an undisturbed
 * run and a checkpoint-restored one cache bit-identical masses and
 * make identical skip decisions at any threshold.
 *
 * The order is not the ascending-j order of a plain loop, so the value
 * can differ from one in the last bits. Nothing depends on that: the
 * mass feeds only the skip test `mass > threshold`, and at threshold 0
 * that test asks only whether some |L[i][j]| is > 0, which a sum of
 * nonnegative doubles answers the same way in every order.
 */
inline Real
rowMassOf(const Real *row, Index n)
{
    Real lane[kMassLanes] = {};
    addMassRange(row, 0, n, lane);
    return foldMassLanes(lane);
}

/**
 * Mass of a row whose unlisted columns are exactly zero (the
 * touched-set invariant), given the ascending touched-column list.
 * Every column still goes to lane j % kMassLanes in ascending j, so
 * the result is bit-identical to rowMassOf: the skipped terms are
 * fabs(+0.0) == +0.0 and every lane accumulator is nonnegative, so
 * adding them never changes a bit of any lane, hence of the fold.
 *
 * When the listed columns fill at least 1/kMassLanes of their span
 * (clustered allocation-order writes, or every column), the
 * contiguous vector pass over the span is the cheaper one; otherwise
 * the listed columns are added one by one.
 */
inline Real
rowMassOfTouched(const Real *row, const Index *cols, Index count)
{
    Real lane[kMassLanes] = {};
    if (count != 0) {
        const Index begin = cols[0] - cols[0] % kMassLanes;
        const Index end = cols[count - 1] + 1;
        if (end - begin <= count * kMassLanes) {
            addMassRange(row, begin, end, lane);
            return foldMassLanes(lane);
        }
    }
    for (Index k = 0; k < count; ++k) {
        const Index j = cols[k];
        lane[j % kMassLanes] += std::fabs(row[j]);
    }
    return foldMassLanes(lane);
}

/** Bring the 64-byte line holding `p` into L2 (a hint: never faults). */
inline void
prefetchLine(const Real *p)
{
#if defined(__AVX2__)
    _mm_prefetch(reinterpret_cast<const char *>(p), _MM_HINT_T1);
#else
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/2);
#endif
}

/**
 * Prefetches the fused sweep's next active row block while the read
 * stage sweeps the current one.
 *
 * The read stage streams the interleaved read and backward buffers
 * beside the block's rows, which breaks the hardware prefetcher's run
 * along L: left alone, every block starts on cold misses. A read body
 * calls next() `trips` times, and the calls walk the next block's rows
 * (only the columns [colBegin, colEnd) of each, one contiguous span when
 * that is every column) at an even stride, so the rows reach L2 one
 * block ahead while the current block computes. Between two full
 * four-row blocks with every column touched, the stride is one 64-byte
 * line per call. Every address lies inside the rows given, so no
 * pointer past the matrix is ever formed, and a prefetch changes no
 * value. next() costs an add, a rarely taken branch and the prefetch
 * itself.
 */
class NextBlockPrefetch
{
  public:
    /**
     * Rows [firstRow, firstRow + rows) of the row-major n x n matrix at
     * L. With rows == 0 (no next block) every call re-hints L's first
     * line, which stays cached: the bodies call next() unconditionally.
     */
    NextBlockPrefetch(const Real *L, Index n, Index firstRow, Index rows,
                      Index colBegin, Index colEnd, Index trips)
        : base_(reinterpret_cast<const char *>(L))
    {
        Index spanBytes = (colEnd - colBegin) * sizeof(Real);
        strideBytes_ = n * sizeof(Real);
        if (rows == 0 || spanBytes == 0) {
            rowEnd_ = ~Index{0};
            return;
        }
        if (colBegin == 0 && colEnd == n) { // consecutive rows: one span
            spanBytes *= rows;
            rows = 1;
        }
        off_ = firstRow * strideBytes_ + colBegin * sizeof(Real);
        spanBytes_ = spanBytes;
        rowEnd_ = off_ + spanBytes;
        rowsLeft_ = rows;
        const Index calls = trips == 0 ? 1 : trips;
        step_ = (rows * spanBytes + calls - 1) / calls;
    }

    /** One read-stage call: hint the current line, then advance. */
    void
    next()
    {
        prefetchLine(reinterpret_cast<const Real *>(base_ + off_));
        off_ += step_;
        if (off_ >= rowEnd_) [[unlikely]]
            nextRow();
    }

  private:
    void
    nextRow()
    {
        if (--rowsLeft_ != 0) {
            off_ = rowEnd_ - spanBytes_ + strideBytes_;
            rowEnd_ = off_ + spanBytes_;
        } else { // done: park on the span's last word
            off_ = rowEnd_ - sizeof(Real);
            step_ = 0;
            rowEnd_ = ~Index{0};
        }
    }

    const char *base_;
    Index off_ = 0;         ///< byte offset of the next hint from base_
    Index step_ = 0;        ///< bytes advanced per call
    Index rowEnd_ = 0;      ///< end of the current row's span
    Index spanBytes_ = 0;   ///< bytes hinted per row
    Index strideBytes_ = 0; ///< bytes from one row to the next
    Index rowsLeft_ = 0;    ///< rows left, the current one included
};

/**
 * Read-stage body for one updated row of L: accumulates the row's
 * contribution to every head's forward dot (chain order: j ascending)
 * and to the interleaved backward lanes (chain order: i ascending at
 * the caller). R is the compile-time head count; each head owns one
 * lane, multiplies and adds round separately.
 */
template <Index R>
inline void
readRow(const Real *row, Index n, const Real *wInt, Real *bwInt,
        const Real *wv, Real *accOut, NextBlockPrefetch &pf)
{
    Real acc[R] = {};
    for (Index j = 0; j < n; ++j) {
        pf.next();
        const Real lij = row[j];
        const Real *wj = wInt + j * R;
        Real *bj = bwInt + j * R;
        for (Index h = 0; h < R; ++h) {
            acc[h] += lij * wj[h];
            bj[h] += lij * wv[h];
        }
    }
    for (Index h = 0; h < R; ++h)
        accOut[h] = acc[h];
}

/**
 * Column-sparse readRow: iterates the ascending touched-column list
 * instead of all N columns. An unlisted column j has row[j] == +0.0
 * (never written since reset), so its forward terms are +0.0 and its
 * backward lanes receive += +0.0 — dropping both leaves every
 * accumulation chain bit-identical to the dense kernel (L entries are
 * never -0.0 and the weightings are nonnegative, so no chain can sit
 * at -0.0 when a dropped +0.0 would have flushed it to +0.0).
 */
template <Index R>
inline void
readRowSparse(const Real *row, const Index *cols, Index count,
              const Real *wInt, Real *bwInt, const Real *wv, Real *accOut,
              NextBlockPrefetch &pf)
{
    Real acc[R] = {};
    for (Index k = 0; k < count; ++k) {
        pf.next();
        const Index j = cols[k];
        const Real lij = row[j];
        const Real *wj = wInt + j * R;
        Real *bj = bwInt + j * R;
        for (Index h = 0; h < R; ++h) {
            acc[h] += lij * wj[h];
            bj[h] += lij * wv[h];
        }
    }
    for (Index h = 0; h < R; ++h)
        accOut[h] = acc[h];
}

/** Whether the four-row readQuad4 bodies below are compiled in. */
#if defined(__AVX2__)
constexpr bool kHasQuad4 = true;
#else
constexpr bool kHasQuad4 = false;
#endif

#if defined(__AVX2__)
/**
 * Four-head specialization: the four lanes live in one 256-bit vector.
 * Explicit mul-then-add (no FMA contraction) keeps every lane's
 * arithmetic bit-identical to the scalar chains; the auto-vectorizer
 * misses this pattern, and the scalar version is latency-bound.
 */
template <>
inline void
readRow<4>(const Real *row, Index n, const Real *wInt, Real *bwInt,
           const Real *wv, Real *accOut, NextBlockPrefetch &pf)
{
    __m256d acc = _mm256_setzero_pd();
    const __m256d wvv = _mm256_loadu_pd(wv);
    for (Index j = 0; j < n; ++j) {
        pf.next();
        const __m256d lij = _mm256_set1_pd(row[j]);
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(lij, _mm256_loadu_pd(wInt + 4 * j)));
        _mm256_storeu_pd(
            bwInt + 4 * j,
            _mm256_add_pd(_mm256_loadu_pd(bwInt + 4 * j),
                          _mm256_mul_pd(lij, wvv)));
    }
    _mm256_storeu_pd(accOut, acc);
}

/**
 * Four heads x four rows: amortizes the wInt/bwInt stream over four
 * rows and keeps eight independent multiply-add chains in flight. The
 * backward lanes absorb the four rows' contributions in ascending row
 * order (four separate adds per j), and each forward accumulator keeps
 * its own j-ascending chain — still bit-identical to the dense
 * kernels. The loop runs column pairs, one next-block prefetch per pair
 * (pf expects (n + 1) / 2 calls); the pair runs its two columns in
 * order, so the chains are the one-column loop's.
 */
inline void
readQuad4(const Real *r0, Index n, const Real *wInt, Real *bwInt,
          const Real *wv0, Real accOut[4][4], NextBlockPrefetch &pf)
{
    const Real *r1 = r0 + n;
    const Real *r2 = r1 + n;
    const Real *r3 = r2 + n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const __m256d v0 = _mm256_loadu_pd(wv0);
    const __m256d v1 = _mm256_loadu_pd(wv0 + 4);
    const __m256d v2 = _mm256_loadu_pd(wv0 + 8);
    const __m256d v3 = _mm256_loadu_pd(wv0 + 12);
    const auto column = [&](Index j) {
        const __m256d wj = _mm256_loadu_pd(wInt + 4 * j);
        const __m256d l0 = _mm256_set1_pd(r0[j]);
        const __m256d l1 = _mm256_set1_pd(r1[j]);
        const __m256d l2 = _mm256_set1_pd(r2[j]);
        const __m256d l3 = _mm256_set1_pd(r3[j]);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(l0, wj));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(l1, wj));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(l2, wj));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(l3, wj));
        __m256d b = _mm256_loadu_pd(bwInt + 4 * j);
        b = _mm256_add_pd(b, _mm256_mul_pd(l0, v0));
        b = _mm256_add_pd(b, _mm256_mul_pd(l1, v1));
        b = _mm256_add_pd(b, _mm256_mul_pd(l2, v2));
        b = _mm256_add_pd(b, _mm256_mul_pd(l3, v3));
        _mm256_storeu_pd(bwInt + 4 * j, b);
    };
    Index j = 0;
    for (; j + 1 < n; j += 2) {
        pf.next();
        column(j);
        column(j + 1);
    }
    if (j < n) {
        pf.next();
        column(j);
    }
    _mm256_storeu_pd(accOut[0], a0);
    _mm256_storeu_pd(accOut[1], a1);
    _mm256_storeu_pd(accOut[2], a2);
    _mm256_storeu_pd(accOut[3], a3);
}

/**
 * Column-sparse four-head specialization: same lanes and rounding as
 * readRow<4>, with j drawn from the touched-column list. The per-column
 * loads were already gathered (wInt + 4j), so the indirection adds no
 * extra memory traffic per visited column.
 */
template <>
inline void
readRowSparse<4>(const Real *row, const Index *cols, Index count,
                 const Real *wInt, Real *bwInt, const Real *wv,
                 Real *accOut, NextBlockPrefetch &pf)
{
    __m256d acc = _mm256_setzero_pd();
    const __m256d wvv = _mm256_loadu_pd(wv);
    for (Index k = 0; k < count; ++k) {
        pf.next();
        const Index j = cols[k];
        const __m256d lij = _mm256_set1_pd(row[j]);
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(lij, _mm256_loadu_pd(wInt + 4 * j)));
        _mm256_storeu_pd(
            bwInt + 4 * j,
            _mm256_add_pd(_mm256_loadu_pd(bwInt + 4 * j),
                          _mm256_mul_pd(lij, wvv)));
    }
    _mm256_storeu_pd(accOut, acc);
}

/**
 * Column-sparse four-head x four-row kernel: readQuad4 walking the
 * touched-column list. Chain structure and rounding match readQuad4
 * column for column, so visiting only the (all other columns are
 * +0.0) touched set is bit-identical.
 */
inline void
readQuad4Sparse(const Real *r0, Index n, const Index *cols, Index count,
                const Real *wInt, Real *bwInt, const Real *wv0,
                Real accOut[4][4], NextBlockPrefetch &pf)
{
    const Real *r1 = r0 + n;
    const Real *r2 = r1 + n;
    const Real *r3 = r2 + n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const __m256d v0 = _mm256_loadu_pd(wv0);
    const __m256d v1 = _mm256_loadu_pd(wv0 + 4);
    const __m256d v2 = _mm256_loadu_pd(wv0 + 8);
    const __m256d v3 = _mm256_loadu_pd(wv0 + 12);
    for (Index k = 0; k < count; ++k) {
        pf.next();
        const Index j = cols[k];
        const __m256d wj = _mm256_loadu_pd(wInt + 4 * j);
        const __m256d l0 = _mm256_set1_pd(r0[j]);
        const __m256d l1 = _mm256_set1_pd(r1[j]);
        const __m256d l2 = _mm256_set1_pd(r2[j]);
        const __m256d l3 = _mm256_set1_pd(r3[j]);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(l0, wj));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(l1, wj));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(l2, wj));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(l3, wj));
        __m256d b = _mm256_loadu_pd(bwInt + 4 * j);
        b = _mm256_add_pd(b, _mm256_mul_pd(l0, v0));
        b = _mm256_add_pd(b, _mm256_mul_pd(l1, v1));
        b = _mm256_add_pd(b, _mm256_mul_pd(l2, v2));
        b = _mm256_add_pd(b, _mm256_mul_pd(l3, v3));
        _mm256_storeu_pd(bwInt + 4 * j, b);
    }
    _mm256_storeu_pd(accOut[0], a0);
    _mm256_storeu_pd(accOut[1], a1);
    _mm256_storeu_pd(accOut[2], a2);
    _mm256_storeu_pd(accOut[3], a3);
}
#endif

} // namespace

TemporalLinkage::TemporalLinkage(Index slots, Real skipThreshold)
    : slots_(slots), skipThreshold_(skipThreshold), linkage_(slots, slots),
      precedence_(slots), rowMass_(slots)
{
    HIMA_ASSERT(slots_ > 0, "linkage needs at least one slot");
    HIMA_ASSERT(skipThreshold_ >= 0.0, "negative linkage skip threshold");
    activeRows_.reserve(slots_);
    touched_.assign(slots_, 0);
    touchedList_.reserve(slots_);
}

void
TemporalLinkage::gatherActiveRows(const Real *writeWeighting)
{
    activeRows_.clear();  // keeps the reserved capacity — no alloc
    touchedList_.clear(); // likewise
    const Real t = skipThreshold_;
    const Real *mass = rowMass_.data();
    for (Index i = 0; i < slots_; ++i) {
        const bool writing = writeWeighting[i] > t;
        if (writing)
            touched_[i] = 1;
        if (touched_[i])
            touchedList_.push_back(i);
        if (mass[i] > t || writing)
            activeRows_.push_back(i);
    }
    touchedListValid_ = true;
}

const std::vector<Index> &
TemporalLinkage::touchedSlots() const
{
    if (!touchedListValid_) {
        touchedList_.clear();
        for (Index i = 0; i < slots_; ++i)
            if (touched_[i])
                touchedList_.push_back(i);
        touchedListValid_ = true;
    }
    return touchedList_;
}

void
TemporalLinkage::updatePrecedence(const Vector &writeWeighting,
                                  KernelProfiler *profiler)
{
    HIMA_ASSERT(writeWeighting.size() == slots_, "write weighting length");

    std::optional<KernelScope> scope;
    if (profiler)
        scope.emplace(*profiler, Kernel::Precedence);

    const Real writeSum = writeWeighting.sum();
    const Real keep = 1.0 - writeSum;
    const Real *w = writeWeighting.data();
    Real *p = precedence_.data();
    for (Index i = 0; i < slots_; ++i)
        p[i] = keep * p[i] + w[i];

    if (profiler) {
        auto &c = profiler->at(Kernel::Precedence);
        c.elementOps += 3 * slots_; // acc-sum + scale + add
        c.stateMemAccesses += 3 * slots_;
    }
}

void
TemporalLinkage::updateAndRead(const Vector &writeWeighting,
                               const std::vector<Vector> &prevReadWeightings,
                               std::vector<Vector> &forward,
                               std::vector<Vector> &backward,
                               KernelProfiler *profiler)
{
    HIMA_ASSERT(writeWeighting.size() == slots_, "write weighting length");
    const Index heads = prevReadWeightings.size();
    HIMA_ASSERT(heads > 0, "need at least one read head");
    if (forward.size() != heads)
        forward.resize(heads);
    if (backward.size() != heads)
        backward.resize(heads);
    for (Index h = 0; h < heads; ++h) {
        HIMA_ASSERT(prevReadWeightings[h].size() == slots_,
                    "read weighting length");
        forward[h].resize(slots_);
        backward[h].resize(slots_);
    }

    // Interleave the previous read weightings (lane h of word j =
    // head h, slot j) and zero the interleaved backward accumulators.
    // O(RN) — negligible next to the O(A*N) sweep it enables.
    interleavedReads_.resize(slots_ * heads);
    interleavedBackward_.assign(slots_ * heads, 0.0);
    for (Index h = 0; h < heads; ++h) {
        const Real *wr = prevReadWeightings[h].data();
        for (Index j = 0; j < slots_; ++j)
            interleavedReads_[j * heads + h] = wr[j];
    }

    // Activity is decided once per step, before the sweep, from the
    // cached row masses and the *current* write weighting — a row
    // receiving its first mass this step is swept this step.
    gatherActiveRows(writeWeighting.data());

    switch (heads) {
      case 1:
        updateAndReadImpl<1>(writeWeighting, forward, backward, profiler);
        break;
      case 2:
        updateAndReadImpl<2>(writeWeighting, forward, backward, profiler);
        break;
      case 4:
        updateAndReadImpl<4>(writeWeighting, forward, backward, profiler);
        break;
      case 8:
        updateAndReadImpl<8>(writeWeighting, forward, backward, profiler);
        break;
      default:
        updateAndReadImpl<0>(writeWeighting, forward, backward, profiler);
        break;
    }
}

/**
 * The fused sweep body. R is the compile-time head count (0 = runtime
 * fallback): a constant trip count lets the compiler unroll the per-head
 * lane loops and fuse them into SIMD over the interleaved buffers. Each
 * head's accumulation chain keeps its own lane and its own order, and
 * multiplies/adds round separately (FMA contraction is off), so the
 * results are bit-identical to the dense kernels at any R.
 */
template <Index R>
void
TemporalLinkage::updateAndReadImpl(const Vector &writeWeighting,
                                   std::vector<Vector> &forward,
                                   std::vector<Vector> &backward,
                                   KernelProfiler *profiler)
{
    const Index heads = R == 0 ? forward.size() : R;
    const Real *w = writeWeighting.data();
    const Real *p = precedence_.data();
    const Real *wInt = interleavedReads_.data();
    Real *bwInt = interleavedBackward_.data();
    Real *L = linkage_.data();
    const Index numActive = static_cast<Index>(activeRows_.size());

    // Column-sparse traversal: every inner loop walks the touched
    // columns (rebuilt by gatherActiveRows just before this call)
    // instead of all N. When every slot is touched the loops fall back
    // to the contiguous dense kernels — same order, same bits, no
    // index indirection.
    const Index *cols = touchedList_.data();
    const Index tcount = static_cast<Index>(touchedList_.size());
    const bool fullCols = tcount == slots_;

    // Rows the sweep skips are exactly zero at threshold 0 (treated as
    // zero above it): their forward dots are +0.0 and they contribute
    // nothing to the interleaved backward lanes, so zero-fill the
    // forward outputs once and let the sweep overwrite only the rows it
    // visits. O(RN), like the de-interleave below.
    for (Index h = 0; h < heads; ++h)
        forward[h].fill(0.0);

    // Row-blocked so the read stage re-traverses freshly-updated rows
    // while they are still cached; L streams through DRAM once per step
    // instead of once per kernel invocation. The read stage does not fit
    // L1, though: at N=1024, R=4 it sweeps 96 KB (four 8 KB rows plus
    // the interleaved read and backward buffers, 32 KB each), and that
    // second stream breaks the hardware prefetcher's run along L, so
    // each next block would start on cold misses. The read stage
    // therefore prefetches the next block's rows into L2
    // (NextBlockPrefetch), one block ahead. That hides the miss latency
    // the next update would wait on whenever L has left the cache, as
    // it does when a server steps several N=1024 lanes in turn (8 MB of
    // linkage each).
    // Blocks are runs of *consecutive* active rows (up to kBlock long),
    // so an all-active matrix runs in plain four-row blocks and a
    // sparse one pays only for the rows it visits.
    //
    // One clock pair times the whole sweep; the profiler splits it
    // between Linkage and ForwardBackward by their op counts for the
    // call (below). A clock read costs tens of nanoseconds, a sizable
    // share of a 4-row block at small N, so blocks are not timed.
    constexpr Index kBlock = 4;
    using Clock = std::chrono::steady_clock;
    const auto sweepStart =
        profiler ? Clock::now() : Clock::time_point{};

    // Length of the run of consecutive active rows that starts at
    // activeRows_[k], capped at kBlock.
    const auto blockLenAt = [&](Index k) {
        Index len = 1;
        while (len < kBlock && k + len < numActive &&
               activeRows_[k + len] == activeRows_[k] + len)
            ++len;
        return len;
    };
    // The column span the read bodies visit; the prefetch fetches only
    // this span of each next-block row.
    const Index colBegin = fullCols || tcount == 0 ? 0 : cols[0];
    const Index colEnd =
        fullCols ? slots_ : (tcount == 0 ? 0 : cols[tcount - 1] + 1);
    const Index colTrips = fullCols ? slots_ : tcount;

    Index cursor = 0;
    Index blockLen = numActive == 0 ? 0 : blockLenAt(0);
    while (cursor < numActive) {
        const Index blockStart = activeRows_[cursor];
        const Index blockEnd = blockStart + blockLen;
        cursor += blockLen;
        const Index nextLen = cursor < numActive ? blockLenAt(cursor) : 0;

        // HR.(1): update rows [blockStart, blockEnd) of L,
        // L[i][j] <- (1 - w[i] - w[j]) L[i][j] + w[i] p[j] with the
        // diagonal zeroed, refreshing each row's mass cache from
        // the finished row (the fixed lane order restoreState() uses).
        // Untouched columns hold +0.0 in row, p and w's touched test,
        // so iterating only the touched columns is bit-identical.
        for (Index i = blockStart; i < blockEnd; ++i) {
            const Real wi = w[i];
            Real *row = L + i * slots_;
            if (fullCols) {
                for (Index j = 0; j < slots_; ++j)
                    row[j] = (1.0 - wi - w[j]) * row[j] + wi * p[j];
            } else {
                for (Index k = 0; k < tcount; ++k) {
                    const Index j = cols[k];
                    row[j] = (1.0 - wi - w[j]) * row[j] + wi * p[j];
                }
            }
            row[i] = 0.0;
            rowMass_[i] = rowMassOfTouched(row, cols, tcount);
        }

        // Prefetch the next block's rows during this block's read
        // stage. `trips` is the number of next() calls the chosen body
        // makes: one per column it visits in each row, except readQuad4,
        // which makes one per column pair.
        const bool quad = R == 4 && kHasQuad4 && blockLen == 4;
        const Index trips = quad ? (fullCols ? (slots_ + 1) / 2 : tcount)
                                 : colTrips * blockLen;
        NextBlockPrefetch pf(L, slots_, nextLen ? activeRows_[cursor] : 0,
                             nextLen, colBegin, colEnd, trips);
        blockLen = nextLen;

        // HR.(3): fold the freshly-updated rows into every head's
        // forward and backward weightings. forward[h][i] accumulates
        // over j in ascending order (matVec's order) and the
        // interleaved backward lanes accumulate row contributions in
        // ascending i (matTVec's order).
#if defined(__AVX2__)
        if constexpr (R == 4) {
            if (quad) {
                Real acc[4][4];
                if (fullCols)
                    readQuad4(L + blockStart * slots_, slots_, wInt, bwInt,
                              wInt + blockStart * 4, acc, pf);
                else
                    readQuad4Sparse(L + blockStart * slots_, slots_, cols,
                                    tcount, wInt, bwInt,
                                    wInt + blockStart * 4, acc, pf);
                for (Index k = 0; k < 4; ++k)
                    for (Index h = 0; h < 4; ++h)
                        forward[h][blockStart + k] = acc[k][h];
                continue;
            }
        }
#endif
        for (Index i = blockStart; i < blockEnd; ++i) {
            const Real *row = L + i * slots_;
            if (R != 0) {
                Real acc[R == 0 ? 1 : R];
                if (fullCols)
                    readRow<R == 0 ? 1 : R>(row, slots_, wInt, bwInt,
                                            wInt + i * heads, acc, pf);
                else
                    readRowSparse<R == 0 ? 1 : R>(row, cols, tcount, wInt,
                                                  bwInt, wInt + i * heads,
                                                  acc, pf);
                for (Index h = 0; h < heads; ++h)
                    forward[h][i] = acc[h];
            } else {
                // Runtime-R fallback: same math, lane loop unbounded.
                // Only the first head's pass over the row prefetches.
                for (Index h = 0; h < heads; ++h) {
                    const Real hv = wInt[i * heads + h];
                    Real a = 0.0;
                    if (fullCols) {
                        for (Index j = 0; j < slots_; ++j) {
                            if (h == 0)
                                pf.next();
                            a += row[j] * wInt[j * heads + h];
                            bwInt[j * heads + h] += row[j] * hv;
                        }
                    } else {
                        for (Index k = 0; k < tcount; ++k) {
                            if (h == 0)
                                pf.next();
                            const Index j = cols[k];
                            a += row[j] * wInt[j * heads + h];
                            bwInt[j * heads + h] += row[j] * hv;
                        }
                    }
                    forward[h][i] = a;
                }
            }
        }
    }

    // De-interleave the backward lanes.
    for (Index h = 0; h < heads; ++h) {
        Real *bw = backward[h].data();
        for (Index j = 0; j < slots_; ++j)
            bw[j] = bwInt[j * heads + h];
    }

    if (profiler) {
        const std::uint64_t sweepNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - sweepStart).count());
        // Linkage is charged 4 element ops per entry and the 2R
        // forward/backward reads one MAC each: split the sweep's time
        // 4 : 2R. Both kernels are History-based Read, so the Fig. 4
        // category total is the measured time exactly.
        const std::uint64_t updateNs = sweepNs * 4 / (4 + 2 * heads);
        const std::uint64_t readNs = sweepNs - updateNs;
        const std::uint64_t n2 = static_cast<std::uint64_t>(slots_) * slots_;
        const std::uint64_t skipped = slots_ - numActive;
        auto &link = profiler->at(Kernel::Linkage);
        link.invocations += 1;
        link.nanoseconds += updateNs;
        link.elementOps += 4 * n2;
        link.stateMemAccesses += 2 * n2 + 2 * slots_;
        link.skippedRows += skipped;
        link.skippedOps += skipped * 4 * static_cast<std::uint64_t>(slots_);
        link.skippedOps += static_cast<std::uint64_t>(numActive) * 4 *
                           (slots_ - tcount);
        auto &fb = profiler->at(Kernel::ForwardBackward);
        fb.invocations += 2 * heads; // the hardware's 2R read kernels
        fb.nanoseconds += readNs;
        fb.macOps += 2 * heads * n2;
        fb.stateMemAccesses += 2 * heads * (n2 + 2 * slots_);
        fb.skippedRows += 2 * heads * skipped;
        fb.skippedOps +=
            2 * heads * skipped * static_cast<std::uint64_t>(slots_);
        fb.skippedOps += 2 * heads * static_cast<std::uint64_t>(numActive) *
                         (slots_ - tcount);
    }
}

void
TemporalLinkage::reset()
{
    linkage_.fill(0.0);
    precedence_.fill(0.0);
    // Every row is massless again: rows never written after this reset
    // stay exactly zero and are skipped by every sweep. The touched set
    // empties with them — it only ever grows within an episode.
    rowMass_.fill(0.0);
    std::fill(touched_.begin(), touched_.end(), 0);
    touchedListValid_ = false;
}

void
TemporalLinkage::rebuildMassAndMarkTouched()
{
    // The mass rebuild calls the sweep's own fixed-lane-order
    // reduction, so a mid-episode restore caches bit-identical masses
    // and makes the same skip decisions as the undisturbed run it
    // snapshots. Marking every column that holds a nonzero entry keeps
    // the sweeps' "untouched columns are exactly zero" invariant even
    // for hand-edited snapshots; it is a separate pass over the
    // (cache-resident) row so the reduction stays branch-free.
    for (Index i = 0; i < slots_; ++i) {
        const Real *row = linkage_.data() + i * slots_;
        rowMass_[i] = rowMassOf(row, slots_);
        for (Index j = 0; j < slots_; ++j)
            if (row[j] != 0.0)
                touched_[j] = 1;
    }
    touchedListValid_ = false;
}

void
TemporalLinkage::restoreState(const Vector &linkageFlat,
                              const Vector &precedence,
                              const std::vector<Index> &touchedSlots)
{
    HIMA_ASSERT(linkageFlat.size() == slots_ * slots_,
                "linkage restore: %zu reals for %zu slots",
                linkageFlat.size(), slots_);
    HIMA_ASSERT(precedence.size() == slots_,
                "precedence restore: %zu reals for %zu slots",
                precedence.size(), slots_);
    std::copy(linkageFlat.begin(), linkageFlat.end(), linkage_.data());
    std::copy(precedence.begin(), precedence.end(), precedence_.begin());
    std::fill(touched_.begin(), touched_.end(), 0);
    Index prev = 0;
    for (Index k = 0; k < touchedSlots.size(); ++k) {
        const Index s = touchedSlots[k];
        HIMA_ASSERT(s < slots_ && (k == 0 || s > prev),
                    "touched-slot restore: index %zu out of order or out "
                    "of range for %zu slots", s, slots_);
        touched_[s] = 1;
        prev = s;
    }
    rebuildMassAndMarkTouched();
}

} // namespace hima
