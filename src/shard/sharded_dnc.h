/**
 * @file
 * ShardedDnc: a full DNC whose controller runs locally and whose
 * external memory is a TileMemory — the in-process DncD or one lane of
 * a wire-connected ShardLaneGroup (laneMemory()). This is the Fig. 8
 * deployment shape: the LSTM and projection heads live with the request
 * front-end, the memory tiles live wherever capacity is (threads,
 * processes, hosts), and only interface vectors and merged read vectors
 * cross the boundary. It is also the per-lane reference the serving
 * engine is proven against.
 *
 * PipelinedShardedLaneEngine puts the dynamic-batching Router
 * (src/serve/) on a sharded fleet: every lane lives on one shared
 * ShardLaneGroup (shard/pipeline.h), steps travel as lane-batched
 * frames (DncConfig::shardLanesPerBatch lanes per worker round trip),
 * and the engine runs a double-buffered step window — batch B's
 * controller sweep runs while batch A's tile round trip is in flight.
 * All lanes share one BatchedController (serve/batched_controller.h):
 * one weight set, streamed once per batch instead of once per lane.
 * Lanes are independent and the batched sweeps keep each lane's
 * arithmetic chain, so each lane's controller -> tiles -> merge ->
 * output result stays bit-identical to a dedicated ShardedDnc run
 * (proven in tests/test_shard.cpp). admit() maps to the wire's per-lane
 * Admit control, which episode-resets the lane's remote tiles in
 * place.
 */

#ifndef HIMA_SHARD_SHARDED_DNC_H
#define HIMA_SHARD_SHARDED_DNC_H

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
