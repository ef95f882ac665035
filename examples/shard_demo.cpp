/**
 * @file
 * Sharded DNC-D demo: the confidence merge running over a real wire
 * protocol, checked live against the in-process model.
 *
 *   usage: shard_demo [tiles] [workers] [steps]
 *          shard_demo --connect ADDR[,ADDR...] [tiles] [steps]
 *
 * Default mode builds `workers` in-process loopback workers hosting
 * `tiles` tiles. --connect drives external worker processes instead
 * (launch them with shard_worker; ADDR is unix:/path or tcp:host:port).
 *
 * The demo (1) writes distinct records into specific tiles through the
 * learned write gating and shows the merge alphas concentrating on the
 * owning tile at query time, (2) cross-checks `steps` random interface
 * steps bit-for-bit against the in-process DncD, (3) reports merge
 * round-trip throughput and wire bytes per step — with periodic
 * checkpointing armed in loopback mode, so the CheckpointRequest/
 * CheckpointState rows show the fault-tolerance overhead — and
 * (4, loopback mode) kills a worker mid-run and shows the coordinator
 * respawn + restore + replay it back to a bit-identical stream.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/obs.h"
#include "shard/local_cluster.h"
#include "workload/retrieval.h"

#include "demo_util.h"

namespace hima {
namespace {

std::unique_ptr<Channel>
connectAddr(const std::string &addr)
{
    if (addr.rfind("unix:", 0) == 0)
        return SocketChannel::connectUnix(addr.substr(5));
    if (addr.rfind("tcp:", 0) == 0) {
        // tcp:PORT (localhost — the form shard_worker listens with) or
        // tcp:host:port.
        const std::string rest = addr.substr(4);
        const std::size_t colon = rest.rfind(':');
        const std::string host =
            colon == std::string::npos ? "127.0.0.1" : rest.substr(0, colon);
        const char *portStr =
            colon == std::string::npos ? rest.c_str()
                                       : rest.c_str() + colon + 1;
        const Index port = parsePositive(portStr);
        if (port == 0 || port > 65535)
            return nullptr;
        return SocketChannel::connectTcp(host,
                                         static_cast<std::uint16_t>(port));
    }
    return nullptr;
}

} // namespace
} // namespace hima

int
main(int argc, char **argv)
{
    using namespace hima;

    DncConfig cfg = demoServeConfig();
    Index tiles = 4;
    Index workers = 2;
    Index steps = 64;
    std::vector<std::string> addrs;

    // --stats-interval N: scrape the whole fleet's telemetry every N
    // cross-check steps and dump the aggregate at exit.
    const Index statsInterval =
        extractFlag(argc, argv, "--stats-interval", 0);

    int arg = 1;
    if (argc > 1 && std::strcmp(argv[1], "--connect") == 0) {
        if (argc < 3) {
            std::fprintf(stderr,
                         "usage: shard_demo --connect ADDR[,ADDR...] "
                         "[tiles] [steps]\n");
            return 1;
        }
        std::string list = argv[2];
        std::size_t pos = 0;
        while (pos != std::string::npos) {
            const std::size_t comma = list.find(',', pos);
            addrs.push_back(list.substr(
                pos, comma == std::string::npos ? comma : comma - pos));
            pos = comma == std::string::npos ? comma : comma + 1;
        }
        arg = 3;
        tiles = positiveArg(argc, argv, arg++, 4);
        steps = positiveArg(argc, argv, arg++, 64);
    } else {
        tiles = positiveArg(argc, argv, 1, 4);
        workers = positiveArg(argc, argv, 2, 2);
        steps = positiveArg(argc, argv, 3, 64);
    }
    if (tiles == 0 || workers == 0 || steps == 0 ||
        cfg.memoryRows % tiles != 0) {
        std::fprintf(stderr,
                     "usage: shard_demo [tiles >= 1, divides %zu] "
                     "[workers >= 1] [steps >= 1]\n",
                     cfg.memoryRows);
        return 1;
    }

    // Build the sharded stack — a one-lane ShardLaneGroup whose lane 0
    // is the synchronous sharded memory: loopback workers in-process, or
    // sockets to external shard_worker processes.
    LocalLaneCluster cluster;
    std::shared_ptr<RespawnHarness> respawns;
    if (addrs.empty()) {
        // Checkpoint every 16 steps: recovery engages with the respawner
        // armed below, and the per-type traffic report gains the
        // CheckpointRequest/CheckpointState rows.
        cfg.shardCheckpointIntervalSteps = 16;
        cluster = makeLocalLaneCluster(ClusterTransport::Loopback, cfg,
                                       tiles, /*lanes=*/1, workers,
                                       MergePolicy::Confidence,
                                       /*wantWeightings=*/true);
        respawns = armClusterRecovery(cluster, ClusterTransport::Loopback);
        std::printf("shard_demo: %zu tiles on %zu loopback workers "
                    "(N=%zu -> %zu rows/tile), checkpoint every %zu "
                    "steps\n",
                    tiles, workers, cfg.memoryRows, cfg.memoryRows / tiles,
                    cfg.shardCheckpointIntervalSteps);
    } else {
        std::vector<std::unique_ptr<Channel>> channels;
        for (const std::string &addr : addrs) {
            auto chan = connectAddr(addr);
            if (!chan) {
                std::fprintf(stderr, "cannot connect to %s\n",
                             addr.c_str());
                return 1;
            }
            // Bounded recv: a worker that dies fails the step with a
            // diagnosis instead of hanging this demo forever.
            chan->setRecvTimeout(30000);
            channels.push_back(std::move(chan));
        }
        cluster.group = std::make_shared<ShardLaneGroup>(
            cfg, tiles, /*lanes=*/1, MergePolicy::Confidence,
            std::move(channels), /*wantWeightings=*/true);
        std::printf("shard_demo: %zu tiles across %zu connected workers\n",
                    tiles, addrs.size());
    }

    ShardLaneGroup &group = *cluster.group;
    const std::unique_ptr<TileMemory> memory = group.laneMemory(0);

    // 1. Learned sharding + confidence merge: store token t's record on
    //    tile t, then query and watch the alphas find the owner.
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    for (Index t = 0; t < tiles; ++t) {
        std::vector<InterfaceVector> perTile(
            tiles, scripter.writeInterface(t, t + 8));
        for (Index other = 0; other < tiles; ++other)
            if (other != t)
                perTile[other].writeGate = 0.0;
        memory->stepInterfaces(perTile);
    }
    std::printf("\nmerge alphas after querying each stored token:\n");
    for (Index t = 0; t < tiles; ++t) {
        memory->stepInterface(scripter.queryInterface(t));
        std::printf("  token %zu:", t);
        for (Real a : memory->lastAlphas()[0])
            std::printf(" %.3f", a);
        std::printf("   <- tile %zu owns it\n", t);
    }

    // 2. Live bit-exactness cross-check against the in-process model.
    memory->reset();
    DncD ref(cfg, tiles);
    Rng rng(2026);
    Index mismatches = 0;
    std::vector<obs::Snapshot> perWorker;
    obs::Snapshot fleet;
    for (Index s = 0; s < steps; ++s) {
        InterfaceVector iface;
        {
            // Mixed read/write traffic, same generator as the tests.
            Rng stepRng(1000 + s);
            iface = scripter.writeInterface(stepRng.uniformInt(16),
                                            stepRng.uniformInt(16));
            if (s % 2 == 1)
                iface = scripter.queryInterface(stepRng.uniformInt(16));
        }
        const MemoryReadout a = ref.stepInterface(iface);
        const MemoryReadout b = memory->stepInterface(iface);
        for (Index h = 0; h < cfg.readHeads; ++h)
            if (!(a.readVectors[h] == b.readVectors[h]))
                ++mismatches;
        if (statsInterval != 0 && (s + 1) % statsInterval == 0) {
            group.scrapeWorkers(perWorker, fleet);
            const obs::SnapshotEntry *served =
                fleet.find("worker.steps_served");
            std::printf("  [stats @ step %zu] fleet series: %zu, worker "
                        "steps served: %llu\n",
                        s + 1, fleet.entries.size(),
                        static_cast<unsigned long long>(
                            served ? served->counter : 0));
        }
    }
    std::printf("\ncross-check vs in-process DncD: %zu steps, %zu "
                "mismatching read vectors %s\n",
                steps, mismatches,
                mismatches == 0 ? "(bit-identical)" : "(BUG!)");

    // 3. Merge round-trip throughput + per-message-type wire cost.
    const InterfaceVector query = scripter.queryInterface(3);
    std::vector<WireTrafficStats> sentBase, recvBase;
    for (Index k = 0; k < group.channelCount(); ++k) {
        sentBase.push_back(group.channel(k).sentStats());
        recvBase.push_back(group.channel(k).receivedStats());
    }
    const auto start = std::chrono::steady_clock::now();
    for (Index s = 0; s < steps; ++s)
        memory->stepInterface(query);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf("\n%zu merge round trips in %.3f s = %.1f steps/s\n",
                steps, seconds, static_cast<double>(steps) / seconds);
    std::printf("wire traffic per step, by message type:\n");
    WireTrafficStats sentDiff, recvDiff;
    for (Index k = 0; k < group.channelCount(); ++k) {
        const Channel &chan = group.channel(k);
        sentDiff += chan.sentStats().diffFrom(sentBase[k]);
        recvDiff += chan.receivedStats().diffFrom(recvBase[k]);
    }
    std::string table;
    formatWireTrafficTable(sentDiff, recvDiff,
                           static_cast<double>(steps), table);
    std::fputs(table.c_str(), stdout);

    // 4. Kill + recover (loopback mode): a worker dies mid-stream; the
    //    coordinator respawns a replacement, restores the last
    //    checkpoint, replays the logged steps since, and the stream
    //    stays bit-identical to the undisturbed reference.
    if (addrs.empty()) {
        memory->reset();
        ref.reset();
        FaultSpec kill;
        kill.killAtStepFrame = 5; // dies mid-interval: restore + replay
        cluster.workers[0]->injectFault(kill);
        Index faultMismatches = 0;
        for (Index s = 0; s < 24; ++s) {
            Rng stepRng(3000 + s);
            const InterfaceVector iface =
                s % 2 == 0
                    ? scripter.writeInterface(stepRng.uniformInt(16),
                                              stepRng.uniformInt(16))
                    : scripter.queryInterface(stepRng.uniformInt(16));
            const MemoryReadout a = ref.stepInterface(iface);
            const MemoryReadout b = memory->stepInterface(iface);
            for (Index h = 0; h < cfg.readHeads; ++h)
                if (!(a.readVectors[h] == b.readVectors[h]))
                    ++faultMismatches;
        }
        std::printf("\nfault tolerance: killed worker 0 mid-run -> %zu "
                    "recovery (%zu checkpoint pulls so far), 24 steps "
                    "after the kill %s\n",
                    static_cast<std::size_t>(group.recoveries()),
                    static_cast<std::size_t>(
                        group.checkpointsTaken()),
                    faultMismatches == 0 ? "bit-identical (recovered)"
                                         : "DIVERGED (BUG!)");
        mismatches += faultMismatches;
    }

    // Final fleet scrape: every worker's registry merged with this
    // process's, rendered as the Prometheus text a scraper would pull.
    if (statsInterval != 0) {
        group.scrapeWorkers(perWorker, fleet);
        std::string text;
        obs::renderPrometheus(fleet, text);
        std::printf("\nfleet telemetry (%zu workers + coordinator):\n%s",
                    perWorker.size(), text.c_str());
    }
    return mismatches == 0 ? 0 : 1;
}
