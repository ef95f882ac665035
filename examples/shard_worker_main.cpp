/**
 * @file
 * Standalone shard worker process: listens on a Unix-domain path or a
 * TCP port, accepts one coordinator connection, and serves DNC-D tiles
 * until the coordinator sends Shutdown (or disconnects).
 *
 *   usage: shard_worker <unix:/path/to.sock | tcp:PORT>
 *
 * Launch one per shard host, then point shard_demo (or any
 * ShardLaneGroup) at the addresses:
 *
 *   ./shard_worker unix:/tmp/tile0.sock &
 *   ./shard_worker unix:/tmp/tile1.sock &
 *   ./shard_demo --connect unix:/tmp/tile0.sock,unix:/tmp/tile1.sock
 *
 * The worker is entirely passive: shapes, datapath mode, lane count and
 * its tile assignment (first global tile, hosted count, global Nt) all
 * arrive in the coordinator's Hello and are validated before the first
 * step.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "shard/worker.h"

#include "demo_util.h"

int
main(int argc, char **argv)
{
    using namespace hima;

    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: shard_worker <unix:/path/to.sock | tcp:PORT>\n");
        return 1;
    }
    const std::string addr = argv[1];

    std::unique_ptr<SocketListener> listener;
    if (addr.rfind("unix:", 0) == 0) {
        listener = SocketListener::listenUnix(addr.substr(5));
    } else if (addr.rfind("tcp:", 0) == 0) {
        const Index port = parsePositive(addr.c_str() + 4);
        if (port == 0 || port > 65535) {
            std::fprintf(stderr, "bad tcp port in '%s'\n", addr.c_str());
            return 1;
        }
        listener = SocketListener::listenTcp(
            static_cast<std::uint16_t>(port));
    } else {
        std::fprintf(stderr, "address must start with unix: or tcp:\n");
        return 1;
    }
    if (!listener) {
        std::fprintf(stderr, "cannot listen on %s\n", addr.c_str());
        return 1;
    }
    std::printf("shard_worker: listening on %s\n", addr.c_str());

    auto channel = listener->accept();
    if (!channel) {
        std::fprintf(stderr, "accept failed\n");
        return 1;
    }
    std::printf("shard_worker: coordinator connected, serving tiles\n");

    ShardWorker worker;
    worker.serve(*channel);

    std::printf("shard_worker: shutdown — served %llu steps, %llu admitted "
                "episodes across %zu hosted tiles (%llu wire bytes in, "
                "%llu out)\n",
                static_cast<unsigned long long>(worker.stepsServed()),
                static_cast<unsigned long long>(worker.episodesServed()),
                worker.hostedTiles(),
                static_cast<unsigned long long>(channel->bytesReceived()),
                static_cast<unsigned long long>(channel->bytesSent()));
    return 0;
}
