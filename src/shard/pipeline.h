/**
 * @file
 * The shard coordinator: the client side of multi-process DNC-D.
 *
 * ShardLaneGroup drives `lanes` independent tile sets on a fleet of
 * workers. Per step it scatters interface vectors (scored-head masks
 * included, so workers only compute the confidence logits the merge
 * will use), gathers every tile's read vectors + logits, and performs
 * the exact confidence-softmax merge through the *same* ConfidenceGate
 * and mergeTileReadouts code DncD runs — so each lane is bit-identical
 * per step to the in-process model by construction, proven in
 * tests/test_shard.cpp across transports x tiles x threads x datapath.
 *
 * Serving throughput comes from two overlap tricks:
 *
 *   - lane batching: one LaneStep frame per worker carries k lanes'
 *     interfaces, so syscalls, wakeups and framing amortize k-fold —
 *     and because the frame is lane-addressed (not tile-addressed),
 *     the *same* bytes go to every worker;
 *
 *   - a double-buffered step window: up to kMaxInFlight batches may be
 *     outstanding per channel (scatter B before gathering A), so the
 *     caller can run lane set B's controller compute while lane set
 *     A's tile round trip is still in flight.
 *
 * Lanes are independent tile sets on the workers, so any interleaving
 * of batches is bit-identical per lane to the synchronous schedule —
 * each lane still sees the strict controller -> tiles -> merge order.
 *
 * laneMemory() exposes one lane behind the synchronous TileMemory
 * surface, per-tile write sharding (stepInterfaces) included: a 1-lane
 * group's view is the sync sharded memory a plain ShardedDnc, the
 * golden harness or the retrieval workload drives.
 * PipelinedShardedLaneEngine (sharded_dnc.h) drives all lanes with the
 * overlapped schedule behind the LaneEngine surface the Router
 * consumes.
 *
 * Fault tolerance: setRespawner() plus a nonzero
 * DncConfig::shardCheckpointIntervalSteps arm periodic checkpoint pulls
 * (taken at a gather that empties the in-flight window) and a replay
 * log of every frame since the last pull. Frames are identical on
 * every channel, so the log stores one buffer per entry, not per
 * channel. On a worker loss the group respawns, sends the replacement
 * the lost worker's Hello, Restores its lane-major checkpoint slice,
 * replays the log, then resends the outstanding frames oldest-first —
 * the window drains deterministically and every later step is
 * bit-identical to an undisturbed run. All merge state (the per-lane
 * gates) lives coordinator-side, so migrateWorker()/rescale() reuse the
 * same frames to move tile slices between live workers or re-deal them
 * over a grown fleet with zero dropped lanes.
 */

#ifndef HIMA_SHARD_PIPELINE_H
#define HIMA_SHARD_PIPELINE_H

#include <memory>
#include <vector>

#include "dnc/dncd.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace hima {

/** Multi-lane scatter/gather coordinator with an in-flight window. */
class ShardLaneGroup
{
  public:
    /** Deepest scatter window (double buffer: compute overlaps wire). */
    static constexpr Index kMaxInFlight = 2;

    /**
     * Connect and handshake: tiles are dealt contiguously over the
     * channels as evenly as possible (channel k hosts tiles/channels
     * +- 1), and every worker hosts `lanes` independent tile sets of
     * its range, validated before any step traffic.
     *
     * @param config   global DNC shapes (memoryRows = global N)
     * @param tiles    tile count Nt per lane; must divide memoryRows
     * @param lanes    serving lanes hosted by the fleet
     * @param policy   read-vector merge policy
     * @param channels one connected channel per worker (1..tiles)
     * @param wantWeightings ship per-tile weightings back so readouts
     *        carry the concatenated global view (DncD parity — the
     *        golden harness needs it); serving paths leave it off
     */
    ShardLaneGroup(const DncConfig &config, Index tiles, Index lanes,
                   MergePolicy policy,
                   std::vector<std::unique_ptr<Channel>> channels,
                   bool wantWeightings = false);

    /** Sends Shutdown to every worker. */
    ~ShardLaneGroup();

    ShardLaneGroup(const ShardLaneGroup &) = delete;
    ShardLaneGroup &operator=(const ShardLaneGroup &) = delete;

    // --- pipelined batch surface ---------------------------------------

    /**
     * Begin one batch step: lane ids (strictly increasing) with one
     * broadcast interface each. Encodes a single LaneStep frame, sends
     * it on every channel — then returns immediately; the batch is
     * outstanding until the matching gather(). At most kMaxInFlight
     * batches may be outstanding, and a lane must not appear in two
     * outstanding batches (its tiles would race).
     */
    void scatter(const std::vector<Index> &lanes,
                 const std::vector<const InterfaceVector *> &ifaces);

    /**
     * Gather the *oldest* outstanding batch: receives one reply frame
     * per channel, verifies the sequence/lane correlation, applies each
     * lane's confidence merge and writes lane j's merged readout into
     * *outs[j] (indexed like the scatter's lane list). Any protocol
     * violation, worker error, channel close or recv-timeout expiry is
     * fatal — a serving stack must never continue on a diverged shard.
     */
    void gather(const std::vector<MemoryReadout *> &outs);

    /** Outstanding scatters (0..kMaxInFlight). */
    Index inFlight() const { return pendingCount_; }

    // --- synchronous per-lane surface ----------------------------------

    /** One lane's broadcast step as a single scatter+gather round trip. */
    void stepLaneInto(Index lane, const InterfaceVector &iface,
                      MemoryReadout &out);

    /**
     * One lane's step with per-tile interfaces (learned write
     * sharding): global tile t steps with ifaces[t]. Queries still
     * broadcast — read keys and strengths must be identical across
     * tiles (asserted), since the merge scores every tile against the
     * same query.
     */
    void stepLaneTilesInto(Index lane,
                           const std::vector<InterfaceVector> &ifaces,
                           MemoryReadout &out);

    /**
     * One lane behind the synchronous TileMemory surface: broadcast and
     * per-tile steps, reset (EpisodeReset control) and beginEpisode
     * (Admit control) for that lane alone. The view borrows this group
     * — it must not outlive it — and must not be stepped while batches
     * are in flight.
     */
    std::unique_ptr<TileMemory> laneMemory(Index lane);

    /** Admit control for one lane: resets its tiles and gate. */
    void admitLane(Index lane);

    /** Episode-reset one lane (no admit accounting). */
    void resetLane(Index lane);

    /** Episode-reset every lane. */
    void resetAll();

    // --- inspection -----------------------------------------------------

    const std::vector<std::vector<Real>> &
    laneAlphas(Index lane) const
    {
        return gates_[lane].alphas();
    }

    Index tiles() const { return tiles_; }
    Index lanes() const { return gates_.size(); }
    const DncConfig &globalConfig() const { return globalConfig_; }
    const DncConfig &shardConfig() const { return shardConfig_; }
    Index channelCount() const { return channels_.size(); }
    const Channel &channel(Index k) const { return *channels_[k]; }

    /** Lane-steps completed (gathered) since construction. */
    std::uint64_t laneSteps() const { return laneSteps_; }

    // --- fault tolerance -----------------------------------------------

    /**
     * Install the replacement-channel factory. Recovery is armed when a
     * respawner is set AND shardCheckpointIntervalSteps > 0 AND
     * failHard is off; otherwise a worker loss stays fatal.
     */
    void setRespawner(ShardRespawnFn respawner)
    {
        respawner_ = std::move(respawner);
    }

    /** Keep every worker loss fatal even when recovery is armed. */
    void setFailHard(bool on) { failHard_ = on; }

    /**
     * Pull a checkpoint of every worker's lane-major tile state right
     * now. Requires an empty in-flight window.
     */
    void checkpointNow();

    /**
     * Live migration: move worker k's tile slice (all lanes) onto
     * `replacement` and shut the old worker down. Quiesces via a fresh
     * checkpoint pull; requires an empty in-flight window. Works
     * without a respawner.
     */
    void migrateWorker(Index k, std::unique_ptr<Channel> replacement);

    /**
     * Re-deal all tiles over a new fleet mid-run (e.g. 8 -> 16
     * workers) with zero dropped lanes: checkpoint, retire the old
     * fleet, Hello + Restore the new one. Per-lane gates live
     * coordinator-side, so every lane resumes bit-identically.
     */
    void rescale(std::vector<std::unique_ptr<Channel>> channels);

    /** Worker losses recovered (respawn + restore + replay). */
    std::uint64_t recoveries() const { return recoveries_; }

    /** Checkpoint pulls completed (periodic + forced). */
    std::uint64_t checkpointsTaken() const { return checkpointsTaken_; }

    // --- fleet telemetry scrape (wire v5) -------------------------------

    /**
     * Pull every worker's telemetry registry (StatsPull/StatsReport)
     * into `perWorker` (one snapshot per worker, channel order) and
     * merge them — plus this process's registry and the group's wire
     * counters ("shard.wire.*") — into `aggregate`. On a loopback fleet
     * the workers share this process's registry, so process-wide series
     * appear once per worker plus once for the coordinator; fleet
     * totals stay meaningful for worker-local series (kernel.*,
     * worker.*) only. Requires an empty in-flight window, like every
     * control-plane exchange here.
     */
    void scrapeWorkers(std::vector<obs::Snapshot> &perWorker,
                       obs::Snapshot &aggregate);

  private:
    /**
     * Encode entryScratch_ (one entry per lane of `lanes`) as one
     * LaneStep frame, send it on every channel and open its window
     * slot.
     */
    void sendBatch(const std::vector<Index> &lanes);

    void sendControl(ControlKind kind, std::uint32_t lane);

    /** Deal tiles contiguously/evenly over channels_. */
    void dealTiles();

    bool recoveryArmed() const
    {
        return static_cast<bool>(respawner_) && !failHard_ &&
               globalConfig_.shardCheckpointIntervalSteps > 0;
    }

    /** Respawn + Hello + Restore + replay; fatal when not armed. */
    void recoverWorker(Index k, const char *what, std::uint64_t seq);

    /** Send worker k's Hello (config + tile assignment). */
    void sendHello(Index k);

    /** Await worker k's HelloAck; fatal on rejection. */
    void awaitHelloAck(Index k, const char *who);

    /** Restore worker k's checkpoint slice; await the ControlAck. */
    void restoreWorker(Index k, const char *who);

    /** Append one shared frame to the replay log. */
    void commitLog(const std::vector<std::uint8_t> &bytes);

    /**
     * Receive channel k's next frame as a view (frameData_/frameSize_)
     * over frame_.
     */
    bool recvFrom(Index k);

    void pullCheckpoints();

    /** Pointer slice of checkpoints_ covering worker k (lane-major). */
    MemoryTileState *const *snapshotSlice(Index k);

    DncConfig globalConfig_;
    DncConfig shardConfig_;
    Index tiles_;
    MergePolicy policy_;
    bool wantWeightings_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<Index> firstTile_; ///< per channel
    std::vector<Index> tileCount_; ///< per channel

    std::vector<ConfidenceGate> gates_; ///< one per lane
    std::uint64_t seq_ = 0;
    std::uint64_t controlSeq_ = 0;
    std::uint64_t laneSteps_ = 0;

    /** One outstanding scatter (reused; steady state allocates nothing). */
    struct Pending
    {
        std::uint64_t seq = 0;
        std::vector<Index> lanes;
        /** The encoded LaneStep frame (shared by every channel), kept
         *  while outstanding so a recovery can resend the window. Only
         *  filled when recovery is armed. */
        std::vector<std::uint8_t> bytes;
    };
    Pending pending_[kMaxInFlight];
    Index pendingHead_ = 0;
    Index pendingCount_ = 0;

    // Reused per-step scratch. frame_ is recv scratch; frameData_/
    // frameSize_ view the last received frame.
    WireWriter writer_;
    std::vector<std::uint8_t> frame_;
    const std::uint8_t *frameData_ = nullptr;
    std::size_t frameSize_ = 0;
    std::vector<LaneStepEntry> entryScratch_; ///< the next frame's entries
    std::vector<LaneStepReplyMsg> replies_;        ///< per channel
    std::vector<const MemoryReadout *> localPtrs_; ///< per global tile
    std::vector<Real> scoreScratch_; ///< scoredHeads x tiles, row-major
    std::vector<Index> laneScratch_; ///< the one-lane batch of sync steps
    std::vector<const InterfaceVector *> ifaceScratch_;
    std::vector<MemoryReadout *> outScratch_;

    // Fault tolerance: checkpoint store + replay log. Frames
    // are identical on every channel, so log entries and the control
    // resend scratch hold one buffer each; all rings reuse capacity so
    // a steady state that includes checkpointing allocates nothing.
    ShardRespawnFn respawner_;
    bool failHard_ = false;
    std::uint64_t recoveries_ = 0;
    std::uint64_t checkpointsTaken_ = 0;
    std::uint64_t checkpointSeq_ = 0;
    std::uint64_t statsSeq_ = 0; ///< scrape round ids (StatsPull seq)
    std::uint64_t laneStepsSinceCheckpoint_ = 0;
    bool checkpointValid_ = false; ///< checkpoints_ holds a real pull
    std::vector<MemoryTileState> checkpoints_; ///< lane-major, lanes x Nt
    std::vector<MemoryTileState *> snapshotPtrs_; ///< slice scratch
    std::vector<std::uint8_t> resendScratch_; ///< in-flight control/pull
    std::vector<std::vector<std::uint8_t>> log_; ///< ring, shared frames
    std::size_t logCount_ = 0;
};

} // namespace hima

#endif // HIMA_SHARD_PIPELINE_H
