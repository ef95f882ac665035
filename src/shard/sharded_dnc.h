/**
 * @file
 * ShardedDnc: a full DNC whose controller runs locally and whose
 * external memory is a TileMemory — the in-process DncD or the
 * wire-connected ShardCoordinator. This is the Fig. 8 deployment shape:
 * the LSTM and projection heads live with the request front-end, the
 * memory tiles live wherever capacity is (threads, processes, hosts),
 * and only interface vectors and merged read vectors cross the
 * boundary.
 *
 * ShardedLaneEngine lifts capacity-many ShardedDnc instances behind the
 * LaneEngine surface, so the dynamic-batching Router (src/serve/) can
 * route an arrival process onto a sharded fleet unchanged. Each lane
 * owns its backend (its own tile set on the workers); admit() maps to
 * the wire's Admit control, which episode-resets the lane's remote
 * tiles in place.
 *
 * ShardedLaneEngine keeps one ShardedDnc — controller weights included —
 * per lane; it is the synchronous reference shape.
 *
 * PipelinedShardedLaneEngine is the fleet coordinator: every lane lives
 * on one shared ShardLaneGroup fleet (shard/pipeline.h), steps travel
 * as lane-batched frames (DncConfig::shardLanesPerBatch lanes per worker
 * round trip), and the engine runs a double-buffered step window — batch
 * B's controller sweep runs while batch A's tile round trip is in
 * flight. All lanes share one BatchedController
 * (serve/batched_controller.h): one weight set, streamed once per batch
 * instead of once per lane. Lanes are independent and the batched sweeps keep
 * each lane's arithmetic chain, so each lane's controller -> tiles ->
 * merge -> output result stays bit-identical to a dedicated ShardedDnc
 * run (proven in tests/test_shard.cpp). The Router drives it through the
 * same LaneEngine surface, unchanged.
 */

#ifndef HIMA_SHARD_SHARDED_DNC_H
#define HIMA_SHARD_SHARDED_DNC_H

#include <functional>
#include <memory>
#include <vector>

#include "dnc/dncd.h"
#include "serve/batched_controller.h"
#include "serve/engine.h"
#include "shard/pipeline.h"

namespace hima {

/** A DNC with a local controller and pluggable (possibly remote) tiles. */
class ShardedDnc
{
  public:
    /**
     * @param config shapes and feature flags (memoryRows = global N);
     *               controller weights are drawn exactly like
     *               Dnc(config, seed)'s
     * @param seed   weight-initialization seed
     * @param memory the tile backend; its globalConfig() must match
     */
    ShardedDnc(const DncConfig &config, std::uint64_t seed,
               std::unique_ptr<TileMemory> memory);

    /**
     * One inference step: controller -> interface -> broadcast to every
     * tile -> confidence merge -> output head.
     */
    Vector step(const Vector &input);

    /** Destination-passing step (out resized and overwritten). */
    void stepInto(const Vector &input, Vector &out);

    /** Reset controller and tile state (episode boundary). */
    void reset();

    /** Admission-path reset: new episode on recycled lane/tiles. */
    void beginEpisode();

    const DncConfig &config() const { return config_; }
    TileMemory &memory() { return *memory_; }
    const TileMemory &memory() const { return *memory_; }
    Controller &controller() { return controller_; }

    /** Merged read vectors from the previous step (width W each). */
    const std::vector<Vector> &lastReads() const { return lastReads_; }

  private:
    DncConfig config_;
    Rng rng_;
    Controller controller_;
    std::unique_ptr<TileMemory> memory_;
    std::vector<Vector> lastReads_;
    MemoryReadout readout_; ///< reused across step() calls
};

/**
 * capacity-many ShardedDnc lanes behind the LaneEngine surface. Lanes
 * are independent models (each with its own controller and tile
 * backend), so there is no SoA weight streaming here — the point is
 * placement: lane state lives on the shard workers, and the Router's
 * dynamic batching, admission and back-pressure apply to a distributed
 * fleet unchanged.
 */
class ShardedLaneEngine final : public LaneEngine
{
  public:
    /** Builds the tile backend for one lane. */
    using BackendFactory =
        std::function<std::unique_ptr<TileMemory>(Index lane)>;

    /**
     * @param config  shapes + serving knobs; batchSize = lane count
     * @param seed    controller weight seed, shared by every lane
     * @param factory called once per lane at construction
     */
    ShardedLaneEngine(const DncConfig &config, std::uint64_t seed,
                      const BackendFactory &factory);

    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override;
    Index admit() override;
    void markDraining(Index slot) override;
    void release(Index slot) override;
    LaneState laneState(Index slot) const override
    {
        return states_[slot];
    }
    Index activeLanes() const override { return active_; }
    Index drainingLanes() const override { return draining_; }
    Index freeLanes() const override
    {
        return states_.size() - active_ - draining_;
    }
    Index capacity() const override { return states_.size(); }
    void reset() override;
    const DncConfig &config() const override { return config_; }

    ShardedDnc &lane(Index slot) { return *lanes_[slot]; }
    const ShardedDnc &lane(Index slot) const { return *lanes_[slot]; }

  private:
    DncConfig config_;
    std::vector<std::unique_ptr<ShardedDnc>> lanes_;
    std::vector<LaneState> states_;
    std::vector<Index> freeSlots_;
    Index active_ = 0;
    Index draining_ = 0;
};

/**
 * The software-pipelined sharded serving engine: config.batchSize lanes
 * on one shared ShardLaneGroup fleet, behind one shared-weight
 * BatchedController. stepInto() partitions the compacted active columns
 * into batches of `lanesPerBatch`; each batch runs one controller sweep
 * before its scatter, overlapping batch b-1's in-flight tile round trip
 * (ShardLaneGroup's double-buffered window), and finishing a batch runs
 * one output-head sweep over its columns. A frame lists its lanes in
 * ascending slot order, as the wire requires. admit() maps to the wire's
 * per-lane Admit control, so recycling one lane never disturbs its
 * fleet neighbours. Zero steady-state allocations, like every serving
 * loop here.
 */
class PipelinedShardedLaneEngine final : public LaneEngine
{
  public:
    /**
     * @param config shapes + serving knobs; batchSize = lane count and
     *               must equal group->lanes()
     * @param seed   controller weight seed (same draw as
     *               ShardedDnc(config, seed), shared by every lane)
     * @param group  the shared fleet; the engine co-owns it so worker
     *               harness structs can hold the other reference
     * @param lanesPerBatch lanes per worker round trip; 0 defers to
     *               config.shardLanesPerBatch (whose own 0 means "all
     *               active lanes in one frame" — maximal syscall
     *               amortization, no compute/wire overlap)
     */
    PipelinedShardedLaneEngine(const DncConfig &config, std::uint64_t seed,
                               std::shared_ptr<ShardLaneGroup> group,
                               Index lanesPerBatch = 0);

    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override;
    Index admit() override;
    void markDraining(Index slot) override;
    void release(Index slot) override;
    LaneState laneState(Index slot) const override
    {
        return controller_.laneState(slot);
    }
    Index activeLanes() const override { return controller_.activeLanes(); }
    Index drainingLanes() const override
    {
        return controller_.drainingLanes();
    }
    Index freeLanes() const override { return controller_.freeLanes(); }
    Index capacity() const override { return controller_.capacity(); }
    void reset() override;
    const DncConfig &config() const override { return config_; }

    ShardLaneGroup &group() { return *group_; }
    Index lanesPerBatch() const { return lanesPerBatch_; }

    /** Slot s's LSTM hidden state. */
    Vector laneHidden(Index slot) const { return controller_.laneHidden(slot); }

    /** Slot s's LSTM cell state. */
    Vector laneCell(Index slot) const { return controller_.laneCell(slot); }

  private:
    /** The slots of columns [first, first + count), ascending. */
    void batchSlots(Index first, Index count, std::vector<Index> &slots);

    /** Gather one scattered batch and finish its lanes' outputs. */
    void finishBatch(Index first, Index count,
                     std::vector<Vector> &outputs);

    DncConfig config_;
    std::shared_ptr<ShardLaneGroup> group_;
    Index lanesPerBatch_; ///< 0 = all active lanes in one frame
    BatchedController controller_;        ///< the one weight set
    std::vector<MemoryReadout> readouts_; ///< per slot

    // Reused step scratch.
    std::vector<Index> batchLanes_;
    std::vector<const InterfaceVector *> batchIfaces_;
    std::vector<MemoryReadout *> batchOuts_;
};

} // namespace hima

#endif // HIMA_SHARD_SHARDED_DNC_H
