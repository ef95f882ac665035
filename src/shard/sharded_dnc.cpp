#include "shard/sharded_dnc.h"

#include <algorithm>

#include "obs/trace.h"

namespace hima {

// --------------------------------------------------------------------
// ShardedDnc
// --------------------------------------------------------------------

ShardedDnc::ShardedDnc(const DncConfig &config, std::uint64_t seed,
                       std::unique_ptr<TileMemory> memory)
    : config_(config), rng_(seed), controller_(config, rng_),
      memory_(std::move(memory)),
      lastReads_(config.readHeads, Vector(config.memoryWidth))
{
    HIMA_ASSERT(memory_ != nullptr, "ShardedDnc: null tile backend");
    const DncConfig &mem = memory_->globalConfig();
    HIMA_ASSERT(mem.memoryRows == config_.memoryRows &&
                    mem.memoryWidth == config_.memoryWidth &&
                    mem.readHeads == config_.readHeads &&
                    mem.fixedPoint == config_.fixedPoint,
                "ShardedDnc: tile backend shapes diverge from config");
}

void
ShardedDnc::stepInto(const Vector &input, Vector &out)
{
    const InterfaceVector &iface = controller_.stepInto(input, lastReads_);
    memory_->stepInterfaceInto(iface, readout_);
    for (Index head = 0; head < config_.readHeads; ++head)
        std::copy(readout_.readVectors[head].begin(),
                  readout_.readVectors[head].end(),
                  lastReads_[head].begin());
    controller_.outputInto(lastReads_, out);
}

Vector
ShardedDnc::step(const Vector &input)
{
    Vector out;
    stepInto(input, out);
    return out;
}

void
ShardedDnc::reset()
{
    controller_.reset();
    memory_->reset();
    for (auto &rv : lastReads_)
        rv.fill(0.0);
}

void
ShardedDnc::beginEpisode()
{
    controller_.reset();
    memory_->beginEpisode();
    for (auto &rv : lastReads_)
        rv.fill(0.0);
}

// --------------------------------------------------------------------
// PipelinedShardedLaneEngine
// --------------------------------------------------------------------

PipelinedShardedLaneEngine::PipelinedShardedLaneEngine(
    const DncConfig &config, std::uint64_t seed,
    std::shared_ptr<ShardLaneGroup> group, Index lanesPerBatch)
    : config_(config), group_(std::move(group)),
      lanesPerBatch_(lanesPerBatch != 0 ? lanesPerBatch
                                        : config.shardLanesPerBatch),
      controller_(config_, seed), readouts_(config_.batchSize)
{
    HIMA_ASSERT(group_ != nullptr, "null shard lane group");
    HIMA_ASSERT(group_->lanes() == config_.batchSize,
                "group hosts %zu lanes but batchSize is %zu",
                group_->lanes(), config_.batchSize);
    const DncConfig &mem = group_->globalConfig();
    HIMA_ASSERT(mem.memoryRows == config_.memoryRows &&
                    mem.memoryWidth == config_.memoryWidth &&
                    mem.readHeads == config_.readHeads &&
                    mem.fixedPoint == config_.fixedPoint,
                "shard fleet shapes diverge from config");
    batchLanes_.reserve(config_.batchSize);
    batchIfaces_.reserve(config_.batchSize);
    batchOuts_.reserve(config_.batchSize);
}

void
PipelinedShardedLaneEngine::batchSlots(Index first, Index count,
                                       std::vector<Index> &slots)
{
    // Compaction swaps columns, so a batch's columns may hold its slots
    // in any order; a LaneStep frame needs them strictly increasing.
    // Insertion sort: a batch is a handful of lanes.
    slots.clear();
    for (Index c = first; c < first + count; ++c) {
        const Index slot = controller_.slotAt(c);
        slots.push_back(slot);
        for (Index j = slots.size() - 1; j > 0 && slots[j - 1] > slot; --j)
            std::swap(slots[j - 1], slots[j]);
    }
}

void
PipelinedShardedLaneEngine::finishBatch(Index first, Index count,
                                        std::vector<Vector> &outputs)
{
    batchSlots(first, count, batchLanes_);
    batchOuts_.clear();
    for (Index slot : batchLanes_)
        batchOuts_.push_back(&readouts_[slot]);
    group_->gather(batchOuts_);
    for (Index c = first; c < first + count; ++c)
        controller_.setReads(c,
                             readouts_[controller_.slotAt(c)].readVectors);
    controller_.outputSweep(first, count);
    for (Index c = first; c < first + count; ++c)
        controller_.outputInto(c, outputs[controller_.slotAt(c)]);
}

void
PipelinedShardedLaneEngine::stepInto(const std::vector<Vector> &inputs,
                                     std::vector<Vector> &outputs)
{
    HIMA_ASSERT(inputs.size() == capacity(),
                "stepInto: need one input slot per lane");
    outputs.resize(capacity());
    const Index total = controller_.activeLanes();
    if (total == 0)
        return;
    const Index k =
        lanesPerBatch_ == 0 ? total : std::min(lanesPerBatch_, total);
    const Index h = config_.controllerSize;
    const Index ifaceRows = config_.interfaceSize();

    // The software pipeline: sweep and scatter batch b, then — while its
    // round trip is in flight — gather batch b-1 and emit its outputs.
    // Each lane's own controller -> tiles -> merge -> output order is
    // untouched, so per-lane results cannot depend on the overlap.
    Index prevFirst = 0;
    Index prevCount = 0;
    for (Index first = 0; first < total; first += k) {
        const Index count = std::min(k, total - first);
        {
            obs::TraceSpan span("shard.controller_compute", count);
            controller_.loadFeed(inputs, first, count);
            controller_.lstmRows(0, h, first, count);
            controller_.interfaceRows(0, ifaceRows, first, count);
            // decode() storage is per column, so all of a batch's
            // interfaces stay live until the scatter.
            batchSlots(first, count, batchLanes_);
            batchIfaces_.clear();
            for (Index slot : batchLanes_)
                batchIfaces_.push_back(
                    &controller_.decode(controller_.column(slot)));
        }
        group_->scatter(batchLanes_, batchIfaces_);
        if (prevCount > 0)
            finishBatch(prevFirst, prevCount, outputs);
        prevFirst = first;
        prevCount = count;
    }
    finishBatch(prevFirst, prevCount, outputs);
}

Index
PipelinedShardedLaneEngine::admit()
{
    const Index slot = controller_.admit();
    group_->admitLane(slot);
    return slot;
}

void
PipelinedShardedLaneEngine::markDraining(Index slot)
{
    controller_.markDraining(slot);
}

void
PipelinedShardedLaneEngine::release(Index slot)
{
    controller_.release(slot);
}

void
PipelinedShardedLaneEngine::reset()
{
    group_->resetAll();
    controller_.reset();
}

} // namespace hima
