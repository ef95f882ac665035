/**
 * @file
 * Sharded-serving benchmark: confidence-merge round-trip cost vs tile
 * count and transport. Two modes per (transport, tiles) point:
 *
 *   - sync: a one-lane ShardLaneGroup, one full scatter/gather round
 *     trip per step (the unbatched baseline rows);
 *   - pipelined: a ShardLaneGroup fleet serving `kBenchLanes` lanes,
 *     swept over lanes-per-batch — k lanes ride one LaneStep frame per
 *     worker and consecutive batches overlap in the double-buffered
 *     window, so syscalls/wakeups amortize k-fold. Reported steps/s are
 *     aggregate *lane*-steps/s (each lane-step does the same tile work
 *     as one sync step), i.e. serving throughput on the same fleet.
 *
 * Workers run in-process for loopback and on threads behind real
 * Unix-domain/TCP sockets otherwise; the in-process DncD baseline (no
 * serialization at all) bounds both modes from above on one box. Every
 * point stamps per-message-type frame/byte counts per (lane-)step from
 * the channels' WireTrafficStats. Results land in BENCH_shard.json (CI
 * artifact) next to the other bench JSONs.
 *
 * The fault-tolerance sweep (wire v3) rides the same harness: sync
 * rows re-run with periodic checkpointing armed (interval in steps; 0
 * = the untracked baseline) so the steady-state cost of the checkpoint
 * pulls and the replay log shows up in steps/s and in the per-type
 * wire stats, and dedicated recovery rows kill a worker mid-run half a
 * checkpoint interval past the last pull and report the wall time of
 * the recovering step (detect + respawn + Hello + Restore + replay)
 * next to a normal step.
 *
 * Like every bench here, a bit-exactness gate runs first: the sharded
 * stack — sync *and* pipelined — must reproduce the in-process model
 * exactly (float and fixed point) or the bench refuses to time it.
 * `--smoke` runs the gate plus a few tiny points, including one
 * injected kill + recovery (the sanitizer CI configuration).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_env.h"
#include "common/random.h"
#include "dense_reference.h"
#include "dnc/memory_unit.h"
#include "obs/obs.h"
#include "shard/local_cluster.h"
#include "shard/wire.h"

namespace hima {
namespace {

/** The paper's evaluation N; wire-bound rows shrink it (see below). */
constexpr Index kBenchRows = 1024;

DncConfig
benchConfig(Index tiles, Index rows = kBenchRows)
{
    DncConfig cfg;
    cfg.memoryRows = rows;
    cfg.memoryWidth = 64;
    cfg.readHeads = 4;
    (void)tiles;
    return cfg;
}

using dense::randomIface;

/** Bench rows cover the wire transports plus the no-wire baseline. */
enum class Transport
{
    InProcess, ///< DncD baseline: no wire at all
    Loopback,
    Unix,
    Tcp,
};

const char *
transportName(Transport t)
{
    switch (t) {
    case Transport::InProcess:
        return "in_process";
    case Transport::Loopback:
        return "loopback";
    case Transport::Unix:
        return "unix";
    default:
        return "tcp";
    }
}

ClusterTransport
toCluster(Transport t)
{
    switch (t) {
    case Transport::Loopback:
        return ClusterTransport::Loopback;
    case Transport::Unix:
        return ClusterTransport::UnixSocket;
    default:
        return ClusterTransport::Tcp;
    }
}

/** Lanes served by every pipelined bench point. */
constexpr Index kBenchLanes = 8;

/** Bit-exact refusal gate: wire stack vs in-process DncD. */
bool
crossCheck(bool fixedPoint)
{
    DncConfig cfg = benchConfig(4);
    cfg.memoryRows = 64; // small: correctness, not timing
    cfg.fixedPoint = fixedPoint;
    const Index tiles = 4;
    // Full weightings on: the gate compares the whole readout.
    LocalLaneCluster cluster = makeLocalLaneCluster(
        ClusterTransport::Loopback, cfg, tiles, /*lanes=*/1,
        /*workerCount=*/2, MergePolicy::Confidence, /*wantWeightings=*/true);
    const std::unique_ptr<TileMemory> wire = cluster.group->laneMemory(0);
    DncD ref(cfg, tiles);
    Rng rng(23);
    std::vector<InterfaceVector> perTile(tiles);
    for (int step = 0; step < 6; ++step) {
        const InterfaceVector iface = randomIface(cfg, rng);
        MemoryReadout a, b;
        if (step % 2 == 0) {
            a = ref.stepInterface(iface);
            b = wire->stepInterface(iface);
        } else {
            for (Index t = 0; t < tiles; ++t) {
                perTile[t] = iface;
                if (t != static_cast<Index>(step) % tiles)
                    perTile[t].writeGate = 0.0;
            }
            a = ref.stepInterfaces(perTile);
            b = wire->stepInterfaces(perTile);
        }
        for (Index h = 0; h < cfg.readHeads; ++h) {
            if (!(a.readVectors[h] == b.readVectors[h]) ||
                !(a.readWeightings[h] == b.readWeightings[h]))
                return false;
        }
        if (!(a.writeWeighting == b.writeWeighting))
            return false;
    }
    return true;
}

/**
 * Pipelined gate: every lane of an overlapped, lane-batched group must
 * match its own in-process DncD reference — including through a
 * per-lane admit — or the bench refuses to time the pipelined points.
 */
bool
crossCheckPipelined(bool fixedPoint)
{
    DncConfig cfg = benchConfig(4);
    cfg.memoryRows = 64;
    cfg.fixedPoint = fixedPoint;
    const Index tiles = 4;
    const Index lanes = 3;
    LocalLaneCluster cluster = makeLocalLaneCluster(
        ClusterTransport::Loopback, cfg, tiles, lanes, /*workerCount=*/2,
        MergePolicy::Confidence, /*wantWeightings=*/true);
    std::vector<std::unique_ptr<DncD>> refs;
    for (Index lane = 0; lane < lanes; ++lane)
        refs.push_back(std::make_unique<DncD>(cfg, tiles));

    Rng rng(29);
    std::vector<InterfaceVector> ifaces(lanes);
    std::vector<MemoryReadout> outs(lanes);
    const std::vector<Index> batchA = {0, 1};
    const std::vector<Index> batchB = {2};
    for (int step = 0; step < 6; ++step) {
        if (step == 3) { // recycle lane 1 mid-stream
            cluster.group->admitLane(1);
            refs[1]->reset();
        }
        for (Index lane = 0; lane < lanes; ++lane)
            ifaces[lane] = randomIface(cfg, rng);
        cluster.group->scatter(batchA, {&ifaces[0], &ifaces[1]});
        cluster.group->scatter(batchB, {&ifaces[2]});
        cluster.group->gather({&outs[0], &outs[1]});
        cluster.group->gather({&outs[2]});
        for (Index lane = 0; lane < lanes; ++lane) {
            const MemoryReadout want =
                refs[lane]->stepInterface(ifaces[lane]);
            for (Index h = 0; h < cfg.readHeads; ++h) {
                if (!(want.readVectors[h] == outs[lane].readVectors[h]) ||
                    !(want.readWeightings[h] ==
                      outs[lane].readWeightings[h]))
                    return false;
            }
            if (!(want.writeWeighting == outs[lane].writeWeighting))
                return false;
        }
    }
    return true;
}

struct Point
{
    Transport transport;
    Index tiles;
    Index workers;
    Index lanes;        ///< 1 for sync rows
    Index lanesPerBatch; ///< 0 for sync rows
    Index checkpointInterval; ///< 0 = fault tolerance unarmed
    Index rows = kBenchRows;  ///< memory rows (wire-bound rows shrink it)
    double stepsPerSec; ///< lane-steps/s for pipelined rows
    // Per-type wire traffic per (lane-)step, both directions.
    WireTrafficStats sent;
    WireTrafficStats received;
    double statSteps = 0.0; ///< divisor for the per-step stats

    bool pipelined() const { return lanesPerBatch > 0; }
};

/** Accumulate (channel stats - baseline) into the point's counters. */
void
diffStats(const Channel &chan, const WireTrafficStats &sentBase,
          const WireTrafficStats &recvBase, Point &p)
{
    p.sent += chan.sentStats().diffFrom(sentBase);
    p.received += chan.receivedStats().diffFrom(recvBase);
}

Point
runPoint(Transport transport, Index tiles, Index workers,
         Index checkpointInterval = 0, Index rows = kBenchRows)
{
    DncConfig cfg = benchConfig(tiles, rows);
    cfg.shardCheckpointIntervalSteps = checkpointInterval;
    Rng rng(7);
    const InterfaceVector iface = randomIface(cfg, rng);

    Point p{};
    p.transport = transport;
    p.tiles = tiles;
    p.workers = workers;
    p.lanes = 1;
    p.lanesPerBatch = 0;
    p.checkpointInterval = checkpointInterval;
    p.rows = rows;

    if (transport == Transport::InProcess) {
        DncD model(cfg, tiles);
        p.stepsPerSec =
            benchStepsPerSecond([&] { model.stepInterface(iface); }).median;
        p.statSteps = 1.0; // no wire: stats stay zero
        return p;
    }

    LocalLaneCluster cluster = makeLocalLaneCluster(
        toCluster(transport), cfg, tiles, /*lanes=*/1, workers);
    ShardLaneGroup &group = *cluster.group;
    // A nonzero interval arms the full fault-tolerance path — frame
    // tracking, the replay log, periodic CheckpointState pulls — so
    // these rows price exactly what a recoverable deployment pays.
    std::shared_ptr<RespawnHarness> harness;
    if (checkpointInterval > 0)
        harness = armClusterRecovery(cluster, toCluster(transport));
    MemoryReadout out;
    std::uint64_t steps = 0;
    // Stats are differenced around the timed loop so handshake and
    // warmup traffic is excluded; one warm step sizes every buffer.
    group.stepLaneInto(0, iface, out);
    std::vector<WireTrafficStats> sentBase, recvBase;
    for (Index k = 0; k < group.channelCount(); ++k) {
        sentBase.push_back(group.channel(k).sentStats());
        recvBase.push_back(group.channel(k).receivedStats());
    }
    p.stepsPerSec = benchStepsPerSecond([&] {
        group.stepLaneInto(0, iface, out);
        ++steps;
    }).median;
    for (Index k = 0; k < group.channelCount(); ++k)
        diffStats(group.channel(k), sentBase[k], recvBase[k], p);
    p.statSteps = static_cast<double>(steps);
    return p;
}

/**
 * Pipelined point: kBenchLanes lanes stepped in batches of
 * `lanesPerBatch` with the engine's overlapped schedule (scatter batch
 * b, then gather batch b-1), no controller in the loop — the same
 * per-lane-step tile work as a sync step, so the sync rows are the
 * apples-to-apples baseline.
 */
Point
runPipelinedPoint(Transport transport, Index tiles, Index workers,
                  Index lanesPerBatch)
{
    const DncConfig cfg = benchConfig(tiles);
    Rng rng(7);
    const InterfaceVector iface = randomIface(cfg, rng);

    Point p{};
    p.transport = transport;
    p.tiles = tiles;
    p.workers = workers;
    p.lanes = kBenchLanes;
    p.lanesPerBatch = lanesPerBatch;

    LocalLaneCluster cluster = makeLocalLaneCluster(
        toCluster(transport), cfg, tiles, kBenchLanes, workers);
    ShardLaneGroup &group = *cluster.group;

    // Precompute the batch schedule (lane lists, iface and out views).
    std::vector<std::vector<Index>> batches;
    std::vector<std::vector<const InterfaceVector *>> batchIfaces;
    std::vector<MemoryReadout> outs(kBenchLanes);
    std::vector<std::vector<MemoryReadout *>> batchOuts;
    for (Index first = 0; first < kBenchLanes; first += lanesPerBatch) {
        const Index count = std::min(lanesPerBatch, kBenchLanes - first);
        batches.emplace_back();
        batchIfaces.emplace_back();
        batchOuts.emplace_back();
        for (Index j = 0; j < count; ++j) {
            batches.back().push_back(first + j);
            batchIfaces.back().push_back(&iface);
            batchOuts.back().push_back(&outs[first + j]);
        }
    }

    auto engineStep = [&] {
        // The overlapped schedule: batch b's scatter rides while batch
        // b-1's round trip drains.
        Index prev = batches.size(); // sentinel
        for (Index b = 0; b < batches.size(); ++b) {
            group.scatter(batches[b], batchIfaces[b]);
            if (prev < batches.size())
                group.gather(batchOuts[prev]);
            prev = b;
        }
        group.gather(batchOuts[prev]);
    };

    engineStep(); // warm every buffer on both ends
    std::vector<WireTrafficStats> sentBase, recvBase;
    for (Index k = 0; k < group.channelCount(); ++k) {
        sentBase.push_back(group.channel(k).sentStats());
        recvBase.push_back(group.channel(k).receivedStats());
    }
    std::uint64_t engineSteps = 0;
    const double engineStepsPerSec = benchStepsPerSecond([&] {
        engineStep();
        ++engineSteps;
    }).median;
    p.stepsPerSec = engineStepsPerSec * static_cast<double>(kBenchLanes);
    for (Index k = 0; k < group.channelCount(); ++k)
        diffStats(group.channel(k), sentBase[k], recvBase[k], p);
    p.statSteps =
        static_cast<double>(engineSteps) * static_cast<double>(kBenchLanes);
    return p;
}

/**
 * Byte sizes of one tile's checkpoint frame under the v6 sparse
 * encoding and of a saturated tile's (dense) frame, plus the verdict of
 * a restore from the sparse frame. The traffic is allocation-gated
 * (early-episode), where the active set is a small fraction of N and
 * the sparse frames must win by bytes.
 */
struct CheckpointFrameReport
{
    bool ok = false;         ///< sparse restore replayed bit-identically
    Index rows = 0;          ///< tile N
    Index activeRows = 0;    ///< touched slots at capture time
    std::size_t sparseBytes = 0;
    std::size_t denseBytes = 0;
};

/**
 * Fatal gate for the v6 sparse checkpoint path: at an early-episode
 * active set the frame must be byte-smaller than the dense frame of a
 * tile that soft traffic has saturated, AND a replica restored from it
 * must replay bit-identically against the dense reference
 * (tests/dense_reference.h) that stepped alongside the captured tile.
 */
CheckpointFrameReport
sparseCheckpointGate()
{
    CheckpointFrameReport rep;
    const DncConfig cfg = benchConfig(1);
    rep.rows = cfg.memoryRows;

    std::vector<std::unique_ptr<MemoryUnit>> early, saturated;
    early.push_back(std::make_unique<MemoryUnit>(cfg));
    saturated.push_back(std::make_unique<MemoryUnit>(cfg));
    dense::MemoryUnitSim ref(cfg);
    Rng rng(11);
    MemoryReadout out;
    for (int step = 0; step < 16; ++step) {
        InterfaceVector iface = randomIface(cfg, rng);
        iface.allocationGate = 1.0; // early-episode one-hot writes
        iface.writeGate = 1.0;
        early[0]->stepInto(iface, out);
        ref.step(iface);
    }
    // Soft writes touch every memory and linkage row.
    for (int step = 0; step < 4; ++step)
        saturated[0]->stepInto(randomIface(cfg, rng), out);
    rep.activeRows = early[0]->linkage().touchedSlots().size();

    WireWriter sparseFrame, denseFrame;
    encodeCheckpointState(1, early, cfg, sparseFrame);
    encodeCheckpointState(1, saturated, cfg, denseFrame);
    rep.sparseBytes = sparseFrame.buffer().size();
    rep.denseBytes = denseFrame.buffer().size();
    if (rep.sparseBytes >= rep.denseBytes)
        return rep;

    MemoryTileState snap;
    MemoryTileState *slots[] = {&snap};
    std::uint64_t seq = 0;
    if (!decodeCheckpointState(sparseFrame.buffer().data(), rep.sparseBytes,
                               cfg, slots, 1, seq))
        return rep;
    MemoryUnit replica(cfg);
    replica.restoreState(snap);
    for (int step = 0; step < 8; ++step) {
        const InterfaceVector iface = randomIface(cfg, rng);
        const MemoryReadout refOut = ref.step(iface);
        replica.stepInto(iface, out);
        if (const char *what =
                dense::firstMismatch(ref, refOut, replica, out)) {
            std::fprintf(stderr,
                         "sparse checkpoint gate: restored %s diverged "
                         "from the dense reference at replay step %d\n",
                         what, step);
            return rep;
        }
    }
    rep.ok = true;
    return rep;
}

struct RecoveryRow
{
    Transport transport;
    Index tiles;
    Index workers;
    Index interval;    ///< checkpoint cadence (steps)
    double stepMs;     ///< fastest normal step just before the kill
    double recoveryMs; ///< the killed step: detect + respawn + restore + replay
};

/**
 * Measure recovery latency: run past one checkpoint pull, kill worker 0
 * half an interval later (so the replay log holds interval/2 steps),
 * and time the step that detects the loss and recovers through it.
 *
 * Traffic is allocation-gated so the run sits in the early-episode
 * regime where the v6 sparse checkpoint frames apply.
 */
RecoveryRow
runRecoveryRow(Transport transport, Index tiles, Index workers,
               Index interval)
{
    DncConfig cfg = benchConfig(tiles);
    cfg.shardCheckpointIntervalSteps = interval;
    Rng rng(7);
    InterfaceVector iface = randomIface(cfg, rng);
    iface.allocationGate = 1.0;
    iface.writeGate = 1.0;

    RecoveryRow row{};
    row.transport = transport;
    row.tiles = tiles;
    row.workers = workers;
    row.interval = interval;

    LocalLaneCluster cluster = makeLocalLaneCluster(
        toCluster(transport), cfg, tiles, /*lanes=*/1, workers);
    auto harness = armClusterRecovery(cluster, toCluster(transport));
    ShardLaneGroup &group = *cluster.group;

    using Clock = std::chrono::steady_clock;
    const auto stepMs = [&](MemoryReadout &out) {
        const auto t0 = Clock::now();
        group.stepLaneInto(0, iface, out);
        return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    };

    MemoryReadout out;
    Index sent = 0; // LaneStep frames every worker has received
    for (Index i = 0; i < interval + 2; ++i, ++sent)
        group.stepLaneInto(0, iface, out);
    row.stepMs = 1e9;
    for (Index i = 0; i < 5; ++i, ++sent)
        row.stepMs = std::min(row.stepMs, stepMs(out));

    FaultSpec kill;
    kill.killAtStepFrame = sent + interval / 2;
    cluster.workers[0]->injectFault(kill);
    while (group.recoveries() == 0) {
        row.recoveryMs = stepMs(out);
        ++sent;
    }
    return row;
}

/** Emit one point's per-type wire stats as a JSON object. */
void
writeWireStats(FILE *json, const Point &p)
{
    std::fprintf(json, "\"wire_per_step\": {");
    bool firstType = true;
    for (const WireTrafficRow &row :
         wireTrafficRows(p.sent, p.received, p.statSteps)) {
        std::fprintf(json,
                     "%s\"%s\": {\"frames\": %.3f, \"bytes_out\": %.1f, "
                     "\"bytes_in\": %.1f}",
                     firstType ? "" : ", ", row.name, row.framesPerStep,
                     row.bytesOutPerStep, row.bytesInPerStep);
        firstType = false;
    }
    std::fprintf(json, "}");
}

} // namespace
} // namespace hima

int
main(int argc, char **argv)
{
    using namespace hima;

    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    if (!crossCheck(false) || !crossCheck(true) ||
        !crossCheckPipelined(false) || !crossCheckPipelined(true)) {
        std::fprintf(stderr,
                     "FATAL: sharded stack diverged from the in-process "
                     "DncD — refusing to benchmark unequal computations\n");
        return 1;
    }
    std::printf("cross-check: sync and pipelined sharded merges "
                "bit-identical to in-process DncD (float and "
                "fixed-point)\n");

    const CheckpointFrameReport frames = sparseCheckpointGate();
    if (!frames.ok) {
        std::fprintf(stderr,
                     "FATAL: v6 sparse checkpoint frames failed the gate "
                     "(sparse %zu B vs dense %zu B at A=%zu/N=%zu) — "
                     "either the frame did not shrink or the restore "
                     "diverged from the dense reference\n",
                     frames.sparseBytes, frames.denseBytes,
                     frames.activeRows, frames.rows);
        return 1;
    }
    std::printf("cross-check: sparse checkpoint frame %zu B vs dense "
                "%zu B (%.1fx smaller at A=%zu/N=%zu), restore "
                "bit-identical to the dense reference\n",
                frames.sparseBytes, frames.denseBytes,
                static_cast<double>(frames.denseBytes) /
                    static_cast<double>(frames.sparseBytes),
                frames.activeRows, frames.rows);

    struct Case
    {
        Transport transport;
        Index tiles;
        Index workers;
        Index lanesPerBatch;      ///< 0 = sync (one-lane group)
        Index checkpointInterval; ///< 0 = fault tolerance unarmed
        Index rows = kBenchRows;  ///< memory rows (wire-bound rows shrink)
    };
    struct RecoveryCase
    {
        Transport transport;
        Index tiles;
        Index workers;
        Index interval;
    };
    std::vector<Case> cases;
    std::vector<RecoveryCase> recoveryCases;
    if (smoke) {
        cases = {{Transport::Loopback, 4, 2, 0, 0},
                 {Transport::Unix, 4, 2, 0, 0},
                 {Transport::Loopback, 4, 2, 2, 0},
                 {Transport::Unix, 4, 2, 4, 0},
                 // Fault tolerance armed: checkpoint pulls in the loop.
                 {Transport::Unix, 4, 2, 0, 16}};
        // Injected kill + recovery under the sanitizers: respawn,
        // Restore and replay over a real socket.
        recoveryCases = {{Transport::Unix, 4, 2, 16}};
    } else {
        for (Index tiles : {Index(2), Index(4), Index(8), Index(16)}) {
            const Index workers = tiles >= 4 ? 4 : tiles;
            cases.push_back({Transport::InProcess, tiles, 0, 0, 0});
            cases.push_back({Transport::Loopback, tiles, workers, 0, 0});
            cases.push_back({Transport::Unix, tiles, workers, 0, 0});
            cases.push_back({Transport::Tcp, tiles, workers, 0, 0});
        }
        // The pipelined sweep at the tile counts where the sync
        // round-trip gap is widest (see the sync rows).
        for (Index tiles : {Index(8), Index(16)}) {
            const Index workers = 4;
            for (Index k : {Index(1), Index(2), Index(4), Index(8)}) {
                cases.push_back({Transport::Loopback, tiles, workers, k, 0});
                cases.push_back({Transport::Unix, tiles, workers, k, 0});
                cases.push_back({Transport::Tcp, tiles, workers, k, 0});
            }
        }
        // Wire-bound rows: N small enough that the per-frame cost of the
        // transport, not the tile datapath, sets the step rate (at the
        // paper's N the per-step compute masks the wire). The gap to
        // the in-process and loopback rows prices one socket round trip
        // per worker.
        for (Transport t : {Transport::InProcess, Transport::Loopback,
                            Transport::Unix, Transport::Tcp})
            cases.push_back({t, 16, 4, 0, 0, 128});
        // Checkpoint-overhead sweep: the interval-0 baseline is the
        // plain sync row above; 64 and 256 price the recoverable
        // configurations.
        for (Index interval : {Index(64), Index(256)}) {
            cases.push_back({Transport::Loopback, 8, 4, 0, interval});
            cases.push_back({Transport::Unix, 8, 4, 0, interval});
        }
        // Recovery latency per injected kill.
        for (Index interval : {Index(64), Index(256)}) {
            recoveryCases.push_back({Transport::Unix, 8, 4, interval});
            recoveryCases.push_back({Transport::Tcp, 8, 4, interval});
        }
    }

    std::printf("bench_shard: N=1024, W=64, R=4; merge round trips "
                "(lean frames: read vectors + confidence logits); "
                "pipelined rows serve %zu lanes (aggregate "
                "lane-steps/s)%s\n",
                kBenchLanes, smoke ? " (smoke)" : "");
    std::vector<Point> points;
    for (const Case &c : cases) {
        const Point p =
            c.lanesPerBatch == 0
                ? runPoint(c.transport, c.tiles, c.workers,
                           c.checkpointInterval, c.rows)
                : runPipelinedPoint(c.transport, c.tiles, c.workers,
                                    c.lanesPerBatch);
        points.push_back(p);
        double wireBytes = 0.0;
        for (std::size_t t = 0; t < kMsgTypeCount; ++t)
            wireBytes += static_cast<double>(p.sent.bytes[t] +
                                             p.received.bytes[t]);
        if (p.pipelined())
            std::printf("%-10s tiles=%2zu workers=%zu pipelined k=%zu  "
                        "%9.1f lane-steps/s  %8.1f wire B/step\n",
                        transportName(p.transport), p.tiles, p.workers,
                        p.lanesPerBatch, p.stepsPerSec,
                        wireBytes / p.statSteps);
        else if (p.checkpointInterval > 0)
            std::printf("%-10s tiles=%2zu workers=%zu sync ckpt=%-4zu"
                        "%9.1f steps/s       %8.1f wire B/step\n",
                        transportName(p.transport), p.tiles, p.workers,
                        p.checkpointInterval, p.stepsPerSec,
                        wireBytes / p.statSteps);
        else if (p.rows != kBenchRows)
            std::printf("%-10s tiles=%2zu workers=%zu sync N=%-5zu "
                        "%9.1f steps/s       %8.1f wire B/step\n",
                        transportName(p.transport), p.tiles, p.workers,
                        p.rows, p.stepsPerSec, wireBytes / p.statSteps);
        else
            std::printf("%-10s tiles=%2zu workers=%zu sync         "
                        "%9.1f steps/s       %8.1f wire B/step\n",
                        transportName(p.transport), p.tiles, p.workers,
                        p.stepsPerSec, wireBytes / p.statSteps);
    }

    std::vector<RecoveryRow> recoveries;
    for (const RecoveryCase &c : recoveryCases) {
        const RecoveryRow r =
            runRecoveryRow(c.transport, c.tiles, c.workers, c.interval);
        recoveries.push_back(r);
        std::printf("%-10s tiles=%2zu workers=%zu recovery ckpt=%-4zu "
                    "killed worker recovered in %.2f ms "
                    "(normal step %.3f ms)\n",
                    transportName(r.transport), r.tiles, r.workers,
                    r.interval, r.recoveryMs, r.stepMs);
    }

    FILE *json = std::fopen("BENCH_shard.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot open BENCH_shard.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    writeBenchContext(json);
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json,
                 "  \"config\": {\"memory_rows\": 1024, \"memory_width\": "
                 "64, \"read_heads\": 4, \"want_weightings\": false, "
                 "\"pipelined_lanes\": %zu},\n",
                 kBenchLanes);
    std::fprintf(json, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        std::fprintf(json,
                     "    {\"transport\": \"%s\", \"mode\": \"%s\", "
                     "\"tiles\": %zu, \"workers\": %zu, \"lanes\": %zu, "
                     "\"lanes_per_batch\": %zu, "
                     "\"checkpoint_interval\": %zu, "
                     "\"memory_rows\": %zu, "
                     "\"steps_per_sec\": %.2f, ",
                     transportName(p.transport),
                     p.pipelined() ? "pipelined" : "sync", p.tiles,
                     p.workers, p.lanes, p.lanesPerBatch,
                     p.checkpointInterval, p.rows, p.stepsPerSec);
        writeWireStats(json, p);
        std::fprintf(json, "}%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"recovery\": [\n");
    for (std::size_t i = 0; i < recoveries.size(); ++i) {
        const RecoveryRow &r = recoveries[i];
        std::fprintf(json,
                     "    {\"transport\": \"%s\", \"tiles\": %zu, "
                     "\"workers\": %zu, \"checkpoint_interval\": %zu, "
                     "\"step_ms\": %.4f, \"recovery_ms\": %.4f}%s\n",
                     transportName(r.transport), r.tiles, r.workers,
                     r.interval, r.stepMs, r.recoveryMs,
                     i + 1 < recoveries.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"checkpoint_frames\": {\"memory_rows\": %zu, "
                 "\"active_rows\": %zu, \"sparse_frame_bytes\": %zu, "
                 "\"dense_frame_bytes\": %zu, \"shrink_factor\": %.2f, "
                 "\"restore_bit_identical\": true},\n",
                 frames.rows, frames.activeRows, frames.sparseBytes,
                 frames.denseBytes,
                 static_cast<double>(frames.denseBytes) /
                     static_cast<double>(frames.sparseBytes));
    // The process registry accumulated over every point above (workers
    // run in-process here): the run's own telemetry, machine-readable.
    obs::Snapshot telemetry;
    obs::processSnapshot(telemetry);
    std::fprintf(json, "  \"telemetry\": ");
    writeTelemetrySnapshot(json, telemetry);
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_shard.json (%zu points)\n", points.size());
    return 0;
}
