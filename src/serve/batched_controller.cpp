#include "serve/batched_controller.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/math_util.h"

namespace hima {

namespace {

/** Register-resident c-ascending dot product (the matVecInto chain). */
inline Real
dotContiguous(const Real *w, const Real *x, Index n)
{
    Real acc = 0.0;
    for (Index k = 0; k < n; ++k)
        acc += w[k] * x[k];
    return acc;
}

/**
 * The portable chunk chain: acc[b] = sum_k w[k] * x[k * stride + b] for
 * the nb lanes at x, k ascending from 0.0.
 */
inline void
laneDots(const Real *w, const Real *x, Index stride, Index n, Index nb,
         Real *acc)
{
    for (Index b = 0; b < nb; ++b)
        acc[b] = 0.0;
    for (Index k = 0; k < n; ++k) {
        const Real wv = w[k];
        const Real *xl = x + k * stride;
        for (Index b = 0; b < nb; ++b)
            acc[b] += wv * xl[b];
    }
}

#if defined(__AVX2__)
/**
 * The AVX2 body: Rows weight rows against the four lanes at x, one
 * __m256d accumulator per row. Each k is a multiply and then an add per
 * lane — the laneDots chain, four lanes per instruction.
 */
template <int Rows>
inline void
laneDotsAvx(const Real *const *w, const Real *x, Index stride, Index n,
            __m256d *acc)
{
    for (int r = 0; r < Rows; ++r)
        acc[r] = _mm256_setzero_pd();
    for (Index k = 0; k < n; ++k) {
        const __m256d xv = _mm256_loadu_pd(x + k * stride);
        for (int r = 0; r < Rows; ++r)
            acc[r] = _mm256_add_pd(
                acc[r], _mm256_mul_pd(_mm256_set1_pd(w[r][k]), xv));
    }
}
#endif

/** LstmCell::step's cell/hidden update, scalar for scalar, nb lanes. */
inline void
cellUpdate(const Real *gi, const Real *gf, const Real *gc, const Real *go,
           Index nb, Real *cl, Real *hl)
{
    for (Index b = 0; b < nb; ++b) {
        const Real i = sigmoid(gi[b]);
        const Real f = sigmoid(gf[b]);
        const Real cand = std::tanh(gc[b]);
        const Real o = sigmoid(go[b]);
        cl[b] = f * cl[b] + i * cand;
        hl[b] = o * std::tanh(cl[b]);
    }
}

/**
 * y = M x (or y += M x) for rows [row0, row1) over columns
 * [col0, col0 + count) of stride-`stride` SoA operands. Each lane's row
 * sum completes in a private accumulator before the single store/+=,
 * the matVecInto / matVecAccumulate chain.
 */
template <bool Accumulate>
void
headSweep(const Matrix &m, const Real *x, Index stride, Real *y, Index row0,
          Index row1, Index col0, Index count)
{
    const Index cols = m.cols();
    auto put = [](Real &dst, Real acc) {
        if (Accumulate)
            dst += acc;
        else
            dst = acc;
    };

    // Single-column tiles degenerate to contiguous dot products.
    if (stride == 1) {
        for (Index q = row0; q < row1; ++q)
            put(y[q], dotContiguous(m.rowPtr(q), x, cols));
        return;
    }

    const Index end = col0 + count;
    Index tail = col0; // first lane of the portable chunk loop
#if defined(__AVX2__)
    tail = col0 + 4 * (count / 4);
    auto putAvx = [](Real *dst, __m256d acc) {
        if (Accumulate)
            acc = _mm256_add_pd(_mm256_loadu_pd(dst), acc);
        _mm256_storeu_pd(dst, acc);
    };
    const Index rowGroupsEnd = row0 + 4 * ((row1 - row0) / 4);
    for (Index q = row0; q < rowGroupsEnd; q += 4) {
        const Real *w[4] = {m.rowPtr(q), m.rowPtr(q + 1), m.rowPtr(q + 2),
                            m.rowPtr(q + 3)};
        for (Index b0 = col0; b0 < tail; b0 += 4) {
            __m256d acc[4];
            laneDotsAvx<4>(w, x + b0, stride, cols, acc);
            for (int r = 0; r < 4; ++r)
                putAvx(y + (q + r) * stride + b0, acc[r]);
        }
    }
    for (Index q = rowGroupsEnd; q < row1; ++q) {
        const Real *w[1] = {m.rowPtr(q)};
        for (Index b0 = col0; b0 < tail; b0 += 4) {
            __m256d acc[1];
            laneDotsAvx<1>(w, x + b0, stride, cols, acc);
            putAvx(y + q * stride + b0, acc[0]);
        }
    }
#endif

    Real acc[kBatchLaneChunk];
    for (Index b0 = tail; b0 < end; b0 += kBatchLaneChunk) {
        const Index nb = std::min(kBatchLaneChunk, end - b0);
        for (Index q = row0; q < row1; ++q) {
            laneDots(m.rowPtr(q), x + b0, stride, cols, nb, acc);
            Real *yl = y + q * stride + b0;
            for (Index b = 0; b < nb; ++b)
                put(yl[b], acc[b]);
        }
    }
}

} // namespace

BatchedController::BatchedController(const DncConfig &config,
                                     std::uint64_t seed)
    : config_(config), capacity_(config.batchSize),
      feedWidth_(config.inputSize + config.readHeads * config.memoryWidth),
      readWidth_(config.readHeads * config.memoryWidth), rng_(seed),
      proto_(config_, rng_)
{
    HIMA_ASSERT(capacity_ >= 1, "BatchedController: zero lanes");
    const Index h = config_.controllerSize;
    const Index ifaceSize = config_.interfaceSize();

    slots_.resize(capacity_);
    colToSlot_.resize(capacity_);
    freeSlots_.reserve(capacity_);
    feed_.resize(feedWidth_ * capacity_);
    hidden_.resize(h * capacity_);
    hiddenPrev_.resize(h * capacity_);
    cell_.resize(h * capacity_);
    rawIface_.resize(ifaceSize * capacity_);
    readsFlat_.resize(readWidth_ * capacity_);
    outSoA_.resize(config_.outputSize * capacity_);

    // Decode storage is sized up front (a zero emission decodes to
    // full-width fields), so a column's first step allocates nothing.
    rawColumn_.assign(capacity_, Vector(ifaceSize));
    ifaces_.assign(capacity_, decodeInterface(Vector(ifaceSize), config_));
    reset();
}

// ---------------------------------------------------------------------
// Lane lifecycle. The compaction invariant — Active columns form the
// prefix [0, active_), Draining columns sit in [active_, occupied_) — is
// kept by swapping/moving single columns on each transition, so a
// transition costs O(H + R*W) strided copies and never allocates.
// ---------------------------------------------------------------------

void
BatchedController::swapColumns(Index a, Index b)
{
    if (a == b)
        return;
    const Index s = capacity_;
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < config_.controllerSize; ++j) {
        std::swap(ph[j * s + a], ph[j * s + b]);
        std::swap(pc[j * s + a], pc[j * s + b]);
    }
    for (Index k = 0; k < readWidth_; ++k)
        std::swap(pr[k * s + a], pr[k * s + b]);
    std::swap(colToSlot_[a], colToSlot_[b]);
    slots_[colToSlot_[a]].column = a;
    slots_[colToSlot_[b]].column = b;
}

void
BatchedController::moveColumn(Index from, Index to)
{
    if (from == to)
        return;
    const Index s = capacity_;
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < config_.controllerSize; ++j) {
        ph[j * s + to] = ph[j * s + from];
        pc[j * s + to] = pc[j * s + from];
    }
    for (Index k = 0; k < readWidth_; ++k)
        pr[k * s + to] = pr[k * s + from];
    colToSlot_[to] = colToSlot_[from];
    slots_[colToSlot_[to]].column = to;
}

void
BatchedController::zeroColumn(Index column)
{
    const Index s = capacity_;
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < config_.controllerSize; ++j) {
        ph[j * s + column] = 0.0;
        pc[j * s + column] = 0.0;
    }
    for (Index k = 0; k < readWidth_; ++k)
        pr[k * s + column] = 0.0;
}

Index
BatchedController::admit()
{
    HIMA_ASSERT(!freeSlots_.empty(), "admit: no free lanes (capacity %zu)",
                capacity_);

    // The new Active column goes at active_, which may currently back a
    // Draining lane — relocate that lane to the end of the occupied
    // region first.
    if (occupied_ > active_)
        moveColumn(active_, occupied_);

    const Index slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot] = LaneSlot{LaneState::Active, active_};
    colToSlot_[active_] = slot;
    zeroColumn(active_);
    ++active_;
    ++occupied_;
    return slot;
}

void
BatchedController::markDraining(Index slot)
{
    HIMA_ASSERT(slot < capacity_, "markDraining: slot %zu >= %zu", slot,
                capacity_);
    HIMA_ASSERT(slots_[slot].state == LaneState::Active,
                "markDraining: slot %zu is not Active", slot);
    // Swap the lane to the end of the active prefix; the column there
    // belongs to another Active lane whose state must survive the swap.
    swapColumns(slots_[slot].column, active_ - 1);
    slots_[slot].state = LaneState::Draining;
    --active_;
}

void
BatchedController::release(Index slot)
{
    HIMA_ASSERT(slot < capacity_, "release: slot %zu >= %zu", slot,
                capacity_);
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "release: slot %zu is already Free", slot);
    if (slots_[slot].state == LaneState::Active)
        markDraining(slot);
    // Swap the lane to the end of the occupied region and drop it.
    swapColumns(slots_[slot].column, occupied_ - 1);
    slots_[slot].state = LaneState::Free;
    --occupied_;
    freeSlots_.push_back(slot);
}

void
BatchedController::reset()
{
    hidden_.fill(0.0);
    cell_.fill(0.0);
    readsFlat_.fill(0.0);
    for (Index b = 0; b < capacity_; ++b) {
        slots_[b] = LaneSlot{LaneState::Active, b};
        colToSlot_[b] = b;
    }
    freeSlots_.clear();
    active_ = capacity_;
    occupied_ = capacity_;
}

// ---------------------------------------------------------------------
// The step sweeps.
// ---------------------------------------------------------------------

void
BatchedController::loadFeed(const std::vector<Vector> &inputs, Index col0,
                            Index count)
{
    HIMA_ASSERT(count >= 1 && col0 + count <= capacity_,
                "loadFeed: columns [%zu, %zu) outside [0, %zu)", col0,
                col0 + count, capacity_);
    const Index s = capacity_;
    const Index end = col0 + count;
    Real *pf = feed_.data();
    for (Index c = col0; c < end; ++c) {
        const Index slot = colToSlot_[c];
        HIMA_ASSERT(inputs[slot].size() == config_.inputSize,
                    "slot %zu input width %zu != %zu", slot,
                    inputs[slot].size(), config_.inputSize);
        const Real *pi = inputs[slot].data();
        for (Index k = 0; k < config_.inputSize; ++k)
            pf[k * s + c] = pi[k];
    }
    // The feed's reads block has readsFlat_'s layout (row r*W+i, column
    // b), and setReads left last step's reads there.
    const Real *prf = readsFlat_.data();
    Real *pfr = pf + config_.inputSize * s;
    for (Index k = 0; k < readWidth_; ++k)
        std::copy(prf + k * s + col0, prf + k * s + end, pfr + k * s + col0);

    // The recurrence reads the pre-step hidden state while lstmRows
    // writes hidden_ in place.
    const Real *ph = hidden_.data();
    Real *php = hiddenPrev_.data();
    for (Index j = 0; j < config_.controllerSize; ++j)
        std::copy(ph + j * s + col0, ph + j * s + end, php + j * s + col0);
}

void
BatchedController::lstmRows(Index row0, Index row1, Index col0, Index count)
{
    const Index s = capacity_;
    const Index h = config_.controllerSize;
    const LstmCell &lstm = proto_.lstm();
    const Real *pf = feed_.data();
    const Real *php = hiddenPrev_.data();
    Real *ph = hidden_.data();
    Real *pc = cell_.data();

    if (s == 1) {
        for (Index j = row0; j < row1; ++j) {
            Real gp[4];
            for (int g = 0; g < 4; ++g) {
                const Real accx = dotContiguous(
                    lstm.inputWeights(g).rowPtr(j), pf, feedWidth_);
                const Real acch = dotContiguous(
                    lstm.recurrentWeights(g).rowPtr(j), php, h);
                gp[g] = (accx + acch) + lstm.gateBias(g)[j];
            }
            cellUpdate(&gp[0], &gp[1], &gp[2], &gp[3], 1, pc + j, ph + j);
        }
        return;
    }

    const Index end = col0 + count;
    Index tail = col0;
#if defined(__AVX2__)
    tail = col0 + 4 * (count / 4);
#endif
    Real accx[kBatchLaneChunk];
    Real acch[kBatchLaneChunk];
    Real gp[4][kBatchLaneChunk];
    for (Index j = row0; j < row1; ++j) {
        const Real *wx[4];
        const Real *wh[4];
        Real bias[4];
        for (int g = 0; g < 4; ++g) {
            wx[g] = lstm.inputWeights(g).rowPtr(j);
            wh[g] = lstm.recurrentWeights(g).rowPtr(j);
            bias[g] = lstm.gateBias(g)[j];
        }
#if defined(__AVX2__)
        // The four gate rows of hidden row j in flight, per lane:
        // (Wx x complete + Wh h complete) + bias, the LstmCell::step
        // chain.
        for (Index b0 = col0; b0 < tail; b0 += 4) {
            __m256d ax[4];
            __m256d ah[4];
            laneDotsAvx<4>(wx, pf + b0, s, feedWidth_, ax);
            laneDotsAvx<4>(wh, php + b0, s, h, ah);
            for (int g = 0; g < 4; ++g)
                _mm256_storeu_pd(
                    gp[g], _mm256_add_pd(_mm256_add_pd(ax[g], ah[g]),
                                         _mm256_set1_pd(bias[g])));
            cellUpdate(gp[0], gp[1], gp[2], gp[3], 4, pc + j * s + b0,
                       ph + j * s + b0);
        }
#endif
        for (Index b0 = tail; b0 < end; b0 += kBatchLaneChunk) {
            const Index nb = std::min(kBatchLaneChunk, end - b0);
            for (int g = 0; g < 4; ++g) {
                laneDots(wx[g], pf + b0, s, feedWidth_, nb, accx);
                laneDots(wh[g], php + b0, s, h, nb, acch);
                for (Index b = 0; b < nb; ++b)
                    gp[g][b] = (accx[b] + acch[b]) + bias[g];
            }
            cellUpdate(gp[0], gp[1], gp[2], gp[3], nb, pc + j * s + b0,
                       ph + j * s + b0);
        }
    }
}

void
BatchedController::interfaceRows(Index row0, Index row1, Index col0,
                                 Index count)
{
    headSweep<false>(proto_.interfaceHead(), hidden_.data(), capacity_,
                     rawIface_.data(), row0, row1, col0, count);
}

const InterfaceVector &
BatchedController::decode(Index column)
{
    laneGatherInto(rawIface_, capacity_, column, config_.interfaceSize(),
                   rawColumn_[column]);
    decodeInterfaceInto(rawColumn_[column], config_, ifaces_[column]);
    return ifaces_[column];
}

void
BatchedController::setReads(Index column, const std::vector<Vector> &reads)
{
    HIMA_ASSERT(reads.size() == config_.readHeads,
                "setReads: %zu read vectors != %zu heads", reads.size(),
                config_.readHeads);
    for (Index head = 0; head < config_.readHeads; ++head)
        laneScatterInto(reads[head], capacity_, column, readsFlat_,
                        head * config_.memoryWidth);
}

void
BatchedController::outputSweep(Index col0, Index count)
{
    // y = (W_y h) + (W_r reads), the Controller::outputInto chain: each
    // lane's two row sums are completed before the single +=.
    const Index rows = config_.outputSize;
    headSweep<false>(proto_.outputHead(), hidden_.data(), capacity_,
                     outSoA_.data(), 0, rows, col0, count);
    headSweep<true>(proto_.readHead(), readsFlat_.data(), capacity_,
                    outSoA_.data(), 0, rows, col0, count);
}

void
BatchedController::outputInto(Index column, Vector &y) const
{
    laneGatherInto(outSoA_, capacity_, column, config_.outputSize, y);
}

Vector
BatchedController::laneHidden(Index slot) const
{
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "laneHidden: slot %zu is Free", slot);
    Vector v;
    laneGatherInto(hidden_, capacity_, slots_[slot].column,
                   config_.controllerSize, v);
    return v;
}

Vector
BatchedController::laneCell(Index slot) const
{
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "laneCell: slot %zu is Free", slot);
    Vector v;
    laneGatherInto(cell_, capacity_, slots_[slot].column,
                   config_.controllerSize, v);
    return v;
}

} // namespace hima
