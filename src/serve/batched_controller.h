/**
 * @file
 * BatchedController: one shared-weight DNC controller that steps a batch
 * of lanes at once — the controller half of every batched serving engine.
 *
 * Every lane of a serving deployment runs the same trained model, so the
 * LSTM and the three projection heads exist here exactly once; only the
 * recurrent state is per lane. That state is lane-interleaved
 * (struct-of-arrays): element j of the lane in column b lives at
 * buf[j * capacity() + b], so one pass over a weight row serves every
 * column of a sweep and per-lane weight traffic falls by the sweep width.
 * BatchedDnc (serve/batched_dnc.h) sweeps its whole active prefix, from
 * pool tasks that own row blocks; PipelinedShardedLaneEngine
 * (shard/sharded_dnc.h) sweeps one lanesPerBatch batch of columns at a
 * time, so a batch's controller overlaps the previous batch's tile round
 * trip.
 *
 * Slots and columns. Slot ids are the engines' stable lane handles; the
 * columns backing them stay compacted — Active lanes in
 * [0, activeLanes()), Draining lanes right after — so a sweep of the
 * active prefix pays no padding flops:
 *
 *     Free ──admit()──▶ Active ──markDraining()──▶ Draining
 *       ▲                  │                          │
 *       └────────────── release() ◀───────────────────┘
 *
 * A transition moves at most one column of persistent state (h, c,
 * previous reads) and never allocates. admit() zeroes the new column, so
 * an admitted lane is indistinguishable from a fresh Controller.
 *
 * One step over columns [col0, col0 + count):
 *
 *     loadFeed -> lstmRows -> interfaceRows -> decode (per column)
 *       -> [memory] -> setReads (per column) -> outputSweep -> outputInto
 *
 * The row sweeps take a row range so pool tasks can own row blocks; a
 * sweep touches only its own columns, so Draining columns and other
 * batches' columns are left bit-for-bit alone.
 *
 * Bit-exactness (tests/test_batched_dnc.cpp). Each lane keeps its own
 * c-ascending accumulators in Controller's order — Wx x complete, then
 * + Wh h complete, then + bias; every head row starts from 0.0, and the
 * output is (W_y h) + (W_r reads) — so a lane matches a Controller fed
 * the same stream bit for bit, whatever its column, the sweep width or
 * its co-tenants. The AVX2 body holds four lanes in one __m256d with
 * four weight rows in flight, each step a multiply and then an add: the
 * same per-lane chain. That needs this file compiled with
 * -ffp-contract=off (the CMakeLists hot list), since a fused multiply-add
 * rounds once instead of twice. Builds without AVX2 (the sanitizer
 * builds, other hosts) run the portable chunk loop, which also takes
 * the lanes left over after the last group of four.
 */

#ifndef HIMA_SERVE_BATCHED_CONTROLLER_H
#define HIMA_SERVE_BATCHED_CONTROLLER_H

#include <vector>

#include "dnc/controller.h"
#include "serve/engine.h"

namespace hima {

/**
 * Lanes per stack-resident accumulator chunk in the portable sweeps (the
 * chunk boundary tests/test_batched_dnc.cpp crosses at B = 70).
 */
inline constexpr Index kBatchLaneChunk = 64;

/**
 * One serving lane slot: lifecycle state plus the SoA column currently
 * backing it. The slot id (its index) is the stable external handle;
 * `column` is engine-internal and moves as the active prefix compacts.
 */
struct LaneSlot
{
    LaneState state = LaneState::Active;
    Index column = 0;
};

/** capacity() controller lanes over one shared weight set. */
class BatchedController
{
  public:
    /**
     * @param config shapes; config.batchSize slots (and columns)
     * @param seed   weight seed — the draw of Controller(config, rng)
     *               with Rng rng(seed), i.e. Dnc(config, seed)'s
     *               controller
     *
     * All slots start Active in their home columns (slot i in column i)
     * with zeroed state.
     */
    BatchedController(const DncConfig &config, std::uint64_t seed);

    // --- lane lifecycle --------------------------------------------------

    /** Bind a Free slot in column activeLanes() with zeroed state. */
    Index admit();

    /** Move an Active lane behind the active prefix; state stays. */
    void markDraining(Index slot);

    /** Return an Active or Draining slot to the free pool. */
    void release(Index slot);

    /** Every slot Active in its home column, all state zeroed. */
    void reset();

    LaneState laneState(Index slot) const { return slots_[slot].state; }
    Index column(Index slot) const { return slots_[slot].column; }
    Index slotAt(Index column) const { return colToSlot_[column]; }
    Index activeLanes() const { return active_; }
    Index drainingLanes() const { return occupied_ - active_; }
    Index freeLanes() const { return capacity_ - occupied_; }
    Index capacity() const { return capacity_; }

    // --- one step over columns [col0, col0 + count) ----------------------

    /**
     * Stage the step: each column's feed becomes [inputs[slot]; its
     * previous reads] and its hidden state is snapshotted as the
     * recurrence input. `inputs` is slot-indexed.
     */
    void loadFeed(const std::vector<Vector> &inputs, Index col0,
                  Index count);

    /** LSTM gates and cell/hidden update for hidden rows [row0, row1). */
    void lstmRows(Index row0, Index row1, Index col0, Index count);

    /** Interface-head emission rows [row0, row1) (after lstmRows). */
    void interfaceRows(Index row0, Index row1, Index col0, Index count);

    /**
     * Decode one column's interface emission. The result lives in
     * per-column storage, valid until that column's next decode.
     */
    const InterfaceVector &decode(Index column);

    /** Store one column's read vectors: this step's output-head operand
     *  and the next step's feed. */
    void setReads(Index column, const std::vector<Vector> &reads);

    /** Output head y = (W_y h) + (W_r reads) (after setReads). */
    void outputSweep(Index col0, Index count);

    /** One column's model output from the last outputSweep. */
    void outputInto(Index column, Vector &y) const;

    // --- inspection ------------------------------------------------------

    /** Slot s's LSTM hidden state, gathered out of the SoA tile. */
    Vector laneHidden(Index slot) const;

    /** Slot s's LSTM cell state, gathered out of the SoA tile. */
    Vector laneCell(Index slot) const;

  private:
    /** Swap two columns' persistent state and their slot bindings. */
    void swapColumns(Index a, Index b);

    /** Copy column `from`'s state+binding onto `to` (`from` goes stale). */
    void moveColumn(Index from, Index to);

    /** Zero a column's persistent state (in-place episode reset). */
    void zeroColumn(Index column);

    DncConfig config_;
    Index capacity_;  ///< slots == columns == the SoA lane stride
    Index feedWidth_; ///< inputSize + R * W
    Index readWidth_; ///< R * W
    Rng rng_;          ///< weight-init stream, identical to Dnc's
    Controller proto_; ///< the one weight set (its own h/c are unused)

    // Lifecycle: columns [0, active_) are Active, [active_, occupied_)
    // Draining, the rest stale; colToSlot_ maps occupied columns back.
    std::vector<LaneSlot> slots_;
    std::vector<Index> colToSlot_;
    std::vector<Index> freeSlots_; ///< stack of Free slot ids (reserved)
    Index active_ = 0;
    Index occupied_ = 0;

    // SoA activations. hidden_/cell_/readsFlat_ persist across steps
    // (and move with their lane); the rest are recomputed every step.
    Vector feed_;       ///< [input; prev reads], feedWidth x capacity
    Vector hidden_;     ///< LSTM hidden state, H x capacity
    Vector hiddenPrev_; ///< pre-step hidden snapshot (recurrence input)
    Vector cell_;       ///< LSTM cell state, H x capacity
    Vector rawIface_;   ///< interface emission, interfaceSize x capacity
    Vector readsFlat_;  ///< concatenated read vectors, (R*W) x capacity
    Vector outSoA_;     ///< model outputs, outputSize x capacity

    std::vector<Vector> rawColumn_;       ///< per-column decode gather
    std::vector<InterfaceVector> ifaces_; ///< per-column decoded interface
};

} // namespace hima

#endif // HIMA_SERVE_BATCHED_CONTROLLER_H
