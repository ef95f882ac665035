#include "serve/batched_dnc.h"

#include <algorithm>

namespace hima {

namespace {

/** Rows per pool task in the controller sweeps. */
constexpr Index kRowBlock = 32;

Index
blockCount(Index rows)
{
    return (rows + kRowBlock - 1) / kRowBlock;
}

} // namespace

BatchedDnc::BatchedDnc(const DncConfig &config, std::uint64_t seed)
    : config_(config), controller_(config_, seed)
{
    config_.validate();

    const Index n = config_.memoryRows;
    const Index w = config_.memoryWidth;
    const Index r = config_.readHeads;

    const Index batch = config_.batchSize;
    lanes_.reserve(batch);
    for (Index b = 0; b < batch; ++b)
        lanes_.emplace_back(config_);

    // Pre-size every per-lane buffer so the first step is already in
    // steady state: MemoryUnit::stepInto's resizes become no-ops, exactly
    // like a fresh Dnc.
    readouts_.resize(batch);
    for (MemoryReadout &ro : readouts_) {
        ro.readVectors.assign(r, Vector(w));
        ro.readWeightings.assign(r, Vector(n));
        ro.writeWeighting.resize(n);
    }

    if (config_.numThreads > 1)
        pool_ = std::make_unique<ThreadPool>(config_.numThreads);
    lstmBlocks_ = blockCount(config_.controllerSize);
    ifaceBlocks_ = blockCount(config_.interfaceSize());

    // Prebuilt tasks: a [this] capture fits std::function's small-object
    // buffer, and reusing the members keeps steady-state steps free of
    // even transient allocations. Row blocks own their output rows, so
    // the pool never splits a reduction.
    lstmTask_ = [this](Index blk) {
        const Index row0 = blk * kRowBlock;
        controller_.lstmRows(row0,
                             std::min(row0 + kRowBlock, config_.controllerSize),
                             0, controller_.activeLanes());
    };
    ifaceTask_ = [this](Index blk) {
        const Index row0 = blk * kRowBlock;
        controller_.interfaceRows(
            row0, std::min(row0 + kRowBlock, config_.interfaceSize()), 0,
            controller_.activeLanes());
    };
    laneTask_ = [this](Index column) { columnStep(column); };
}

void
BatchedDnc::dispatch(Index count, const std::function<void(Index)> &fn)
{
    if (pool_) {
        pool_->parallelFor(count, fn);
    } else {
        for (Index i = 0; i < count; ++i)
            fn(i);
    }
}

Index
BatchedDnc::admit()
{
    // The controller zeroes the slot's column; the memory tile and the
    // previous readout are reset here. Nothing reallocates.
    const Index slot = controller_.admit();
    lanes_[slot].reset();
    for (Vector &rv : readouts_[slot].readVectors)
        rv.fill(0.0);
    for (Vector &rw : readouts_[slot].readWeightings)
        rw.fill(0.0);
    readouts_[slot].writeWeighting.fill(0.0);
    return slot;
}

void
BatchedDnc::markDraining(Index slot)
{
    controller_.markDraining(slot);
}

void
BatchedDnc::release(Index slot)
{
    controller_.release(slot);
}

void
BatchedDnc::columnStep(Index column)
{
    // Decode this lane's interface emission and run its memory tile —
    // the unchanged allocation-free MemoryUnit hot path — then hand the
    // reads back for the output head and the next step's feed.
    const Index slot = controller_.slotAt(column);
    lanes_[slot].stepInto(controller_.decode(column), readouts_[slot]);
    controller_.setReads(column, readouts_[slot].readVectors);
}

void
BatchedDnc::stepInto(const std::vector<Vector> &inputs,
                     std::vector<Vector> &outputs)
{
    HIMA_ASSERT(inputs.size() == capacity(), "batch input arity %zu != %zu",
                inputs.size(), capacity());

    outputs.resize(capacity());
    const Index active = controller_.activeLanes();
    if (active == 0)
        return;

    controller_.loadFeed(inputs, 0, active);
    dispatch(lstmBlocks_, lstmTask_);
    dispatch(ifaceBlocks_, ifaceTask_);
    dispatch(active, laneTask_);
    controller_.outputSweep(0, active);
    for (Index c = 0; c < active; ++c)
        controller_.outputInto(c, outputs[controller_.slotAt(c)]);
}

std::vector<Vector>
BatchedDnc::step(const std::vector<Vector> &inputs)
{
    std::vector<Vector> outputs;
    stepInto(inputs, outputs);
    return outputs;
}

void
BatchedDnc::reset()
{
    for (MemoryUnit &lane : lanes_)
        lane.reset();
    controller_.reset();
    for (MemoryReadout &ro : readouts_)
        for (Vector &rv : ro.readVectors)
            rv.fill(0.0);
}

} // namespace hima
