/**
 * @file
 * Single-host shard cluster: a ShardLaneGroup coordinator plus
 * `workerCount` workers living in this process — either behind
 * synchronous loopback channels (deterministic, no threads) or each
 * serving a real Unix-domain/TCP socket or shm ring from its own
 * thread. The threaded modes exercise the identical codec + framing a
 * multi-process deployment uses (shard_worker processes), so they
 * double as the test/bench harness for the wire and as a real
 * deployment shape for one multi-core box. A 1-lane cluster's
 * `group->laneMemory(0)` is the synchronous sharded TileMemory.
 *
 * Destruction is ordered: the group's Shutdown frames end every
 * worker's serve() loop before the threads are joined.
 */

#ifndef HIMA_SHARD_LOCAL_CLUSTER_H
#define HIMA_SHARD_LOCAL_CLUSTER_H

#include <memory>
#include <thread>
#include <vector>

#include "shard/pipeline.h"
#include "shard/worker.h"

namespace hima {

/**
 * Default bounded recv timeout applied to coordinator-side socket
 * channels: generous next to a worker's per-frame compute, small next
 * to "hangs forever". Worker-side channels stay unbounded (idle gaps
 * between requests are normal).
 */
constexpr int kShardRecvTimeoutMs = 30000;

/** How a local cluster's frames travel. */
enum class ClusterTransport
{
    Loopback,   ///< synchronous in-process calls (no threads)
    UnixSocket, ///< AF_UNIX stream to worker threads
    Tcp,        ///< 127.0.0.1 stream to worker threads
    Shm,        ///< zero-copy shared-memory rings to worker threads
};

/**
 * A lane group and the in-process workers that serve it. The group is
 * shared so a PipelinedShardedLaneEngine can co-own it while this
 * struct keeps the worker threads alive; the group's Shutdown frames
 * end every serve() loop before the join.
 */
struct LocalLaneCluster
{
    std::shared_ptr<ShardLaneGroup> group;
    std::vector<std::shared_ptr<ShardWorker>> workers;
    std::vector<std::thread> threads; ///< socket serve loops (may be empty)

    LocalLaneCluster() = default;
    LocalLaneCluster(LocalLaneCluster &&) = default;

    /**
     * Move-assignment shuts the current cluster down first — a plain
     * defaulted member-wise move would destroy still-joinable serve
     * threads (std::terminate).
     */
    LocalLaneCluster &
    operator=(LocalLaneCluster &&other)
    {
        if (this != &other) {
            shutdown();
            group = std::move(other.group);
            workers = std::move(other.workers);
            threads = std::move(other.threads);
        }
        return *this;
    }

    ~LocalLaneCluster() { shutdown(); }

  private:
    void
    shutdown()
    {
        // Shutdown frames go out only when the group's last reference
        // drops, and the join below needs them to have gone out — so a
        // co-owning engine must be destroyed before the cluster. Fail
        // loudly instead of joining serve() loops that will never end.
        if (group && group.use_count() > 1)
            HIMA_FATAL("LocalLaneCluster destroyed while an engine still "
                       "co-owns its lane group (%ld refs); destroy the "
                       "engine first",
                       static_cast<long>(group.use_count()));
        group.reset();
        for (std::thread &t : threads)
            t.join();
        threads.clear();
        workers.clear();
    }
};

/**
 * Build a cluster: `workerCount` workers hosting `lanes` x `tiles` tile
 * sets behind one ShardLaneGroup. Socket endpoints are freshly
 * allocated per call (unique /tmp paths, ephemeral TCP ports, fresh shm
 * names), so concurrent clusters never collide; any listen/connect
 * failure is fatal (a hung accept thread would be worse). Threaded
 * transports get a bounded recv timeout (config.shardRecvTimeoutMs) so
 * dead workers fail the step instead of hanging the coordinator.
 */
LocalLaneCluster
makeLocalLaneCluster(ClusterTransport transport, const DncConfig &config,
                     Index tiles, Index lanes, Index workerCount,
                     MergePolicy policy = MergePolicy::Confidence,
                     bool wantWeightings = false);

/**
 * Spawn one fresh, unconfigured worker on `transport` and return a
 * connected channel to it (socket and shm transports add a serve thread
 * and the bounded recv timeout, exactly like makeLocalLaneCluster's
 * fleet).
 * The worker and any thread are appended to the caller's vectors — hand
 * it a cluster's own `workers`/`threads` to grow that fleet, e.g. as
 * the replacement endpoint for migrateWorker() or a rescale().
 *
 * `shmSlotBytes` sizes the ring slots of an shm channel (use
 * shmSlotBytesFor so checkpoint frames fit; ignored by the other
 * transports); `recvTimeoutMs` bounds the coordinator-side receives.
 */
std::unique_ptr<Channel>
makeClusterWorker(ClusterTransport transport,
                  std::vector<std::shared_ptr<ShardWorker>> &workers,
                  std::vector<std::thread> &threads,
                  std::size_t shmSlotBytes = kShmDefaultSlotBytes,
                  int recvTimeoutMs = kShardRecvTimeoutMs);

/**
 * Replacement workers and serve threads created by an armed respawner.
 * Co-owned by the respawner closure (so it stays valid however the
 * cluster struct is moved) and by the caller for inspection; serve
 * threads are joined on destruction (they exit once the coordinator's
 * Shutdown frames land, before the closure's reference drops).
 */
struct RespawnHarness
{
    ClusterTransport transport = ClusterTransport::Loopback;
    std::size_t shmSlotBytes = kShmDefaultSlotBytes; ///< ring slot size
    int recvTimeoutMs = kShardRecvTimeoutMs;
    std::vector<std::shared_ptr<ShardWorker>> workers; ///< replacements
    std::vector<std::thread> threads;

    ~RespawnHarness()
    {
        for (std::thread &t : threads)
            t.join();
    }
};

/**
 * Arm worker recovery on a cluster: install a respawner that spawns
 * replacement workers on `transport`. Recovery actually engages only
 * when the cluster's config also set shardCheckpointIntervalSteps > 0.
 *
 * @return the harness owning replacements, for inspection/lifetime
 */
std::shared_ptr<RespawnHarness>
armClusterRecovery(LocalLaneCluster &cluster, ClusterTransport transport);

} // namespace hima

#endif // HIMA_SHARD_LOCAL_CLUSTER_H
