#include "shard/local_cluster.h"

#include <atomic>
#include <string>

#include <unistd.h>

namespace hima {

namespace {

std::atomic<int> g_endpointOrdinal{0};

} // namespace

std::unique_ptr<Channel>
makeClusterWorker(ClusterTransport transport,
                  std::vector<std::shared_ptr<ShardWorker>> &workers,
                  std::vector<std::thread> &threads, int recvTimeoutMs)
{
    auto worker = std::make_shared<ShardWorker>();
    workers.push_back(worker);
    if (transport == ClusterTransport::Loopback)
        return std::make_unique<LoopbackChannel>(
            [worker](const std::uint8_t *data, std::size_t size,
                     FrameSink &reply) {
                worker->handleFrame(data, size, reply);
            });
    std::unique_ptr<SocketChannel> client;
    // The serve threads accept with a bounded wait: if the connect
    // below ever failed, the thread ends instead of blocking a join
    // forever — the same bound that keeps a respawned replacement that
    // never dials back from wedging a recovery.
    if (transport == ClusterTransport::UnixSocket) {
        const std::string path =
            "/tmp/hima_shard_" + std::to_string(::getpid()) + "_" +
            std::to_string(g_endpointOrdinal.fetch_add(
                1, std::memory_order_relaxed)) +
            ".sock";
        auto listener = SocketListener::listenUnix(path);
        if (!listener)
            HIMA_FATAL("local cluster: cannot listen on %s", path.c_str());
        auto shared = std::shared_ptr<SocketListener>(std::move(listener));
        threads.emplace_back([worker, shared, recvTimeoutMs] {
            auto chan = shared->acceptWithTimeout(recvTimeoutMs);
            if (chan)
                worker->serve(*chan);
        });
        client = SocketChannel::connectUnix(path);
    } else {
        auto listener = SocketListener::listenTcp(0);
        if (!listener)
            HIMA_FATAL("local cluster: cannot listen on a tcp port");
        const std::uint16_t port = listener->port();
        auto shared = std::shared_ptr<SocketListener>(std::move(listener));
        threads.emplace_back([worker, shared, recvTimeoutMs] {
            auto chan = shared->acceptWithTimeout(recvTimeoutMs);
            if (chan)
                worker->serve(*chan);
        });
        client = SocketChannel::connectTcp("127.0.0.1", port);
    }
    if (!client) // fail fast: the accept thread would end, but loudly
        HIMA_FATAL("local cluster: connect failed");
    // Bounded recv: a worker that dies mid-step fails the step with
    // a diagnosis instead of blocking the coordinator forever.
    client->setRecvTimeout(recvTimeoutMs);
    return client;
}

LocalLaneCluster
makeLocalLaneCluster(ClusterTransport transport, const DncConfig &config,
                     Index tiles, Index lanes, Index workerCount,
                     MergePolicy policy, bool wantWeightings)
{
    LocalLaneCluster cluster;
    const int timeoutMs = static_cast<int>(config.shardRecvTimeoutMs);
    std::vector<std::unique_ptr<Channel>> channels;
    for (Index k = 0; k < workerCount; ++k)
        channels.push_back(makeClusterWorker(transport, cluster.workers,
                                             cluster.threads, timeoutMs));
    cluster.group = std::make_shared<ShardLaneGroup>(
        config, tiles, lanes, policy, std::move(channels), wantWeightings);
    return cluster;
}

std::shared_ptr<RespawnHarness>
armClusterRecovery(LocalLaneCluster &cluster, ClusterTransport transport)
{
    auto harness = std::make_shared<RespawnHarness>();
    harness->transport = transport;
    harness->recvTimeoutMs =
        static_cast<int>(cluster.group->globalConfig().shardRecvTimeoutMs);
    cluster.group->setRespawner([harness](Index) {
        return makeClusterWorker(harness->transport, harness->workers,
                                 harness->threads, harness->recvTimeoutMs);
    });
    return harness;
}

} // namespace hima
