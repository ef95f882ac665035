/**
 * @file
 * Transport-layer regression suite: socket framing (frames of every
 * size, garbage length prefixes and corrupted payloads fail closed),
 * timeout and close diagnosis, the send-side timeout, the
 * zero-recv-timeout clamp and Unix listener double-bind protection,
 * plus wire-traffic accounting across a v3 recovery (respawn + restore
 * + replay must not double-count frames).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "golden_util.h"
#include "shard/local_cluster.h"

namespace hima {
namespace {

/** Fresh Unix socket path per test: concurrent runs never collide. */
std::string
uniqueSockPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/hima_test_" + std::string(tag) + "_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A payload whose bytes encode (tag, index) so frames are tellable. */
std::vector<std::uint8_t>
patternPayload(std::uint8_t tag, std::size_t bytes)
{
    std::vector<std::uint8_t> payload(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
        payload[i] = static_cast<std::uint8_t>(tag + i * 131);
    return payload;
}

std::uint64_t
frames(const WireTrafficStats &stats, MsgType type)
{
    return stats.frames[static_cast<std::size_t>(type)];
}

// --------------------------------------------------------------------
// Socket sweep: framing, fail-closed receives, timeout and close
// diagnosis, the zero-timeout clamp, and Unix listener double-bind
// protection.
// --------------------------------------------------------------------

/** A connected Unix-domain pair (listener kept alive by the caller). */
struct SocketPair
{
    std::unique_ptr<SocketListener> listener;
    std::unique_ptr<SocketChannel> client;
    std::unique_ptr<SocketChannel> server;
};

SocketPair
makeUnixPair(const char *tag)
{
    SocketPair pair;
    pair.listener = SocketListener::listenUnix(uniqueSockPath(tag));
    EXPECT_TRUE(pair.listener != nullptr);
    if (!pair.listener)
        return pair;
    // The connect completes against the listen backlog, so a single
    // thread can connect first and accept after.
    pair.client = SocketChannel::connectUnix(pair.listener->path());
    EXPECT_TRUE(pair.client != nullptr);
    pair.server = pair.listener->accept();
    EXPECT_TRUE(pair.server != nullptr);
    return pair;
}

TEST(SocketFraming, FramesOfEverySizeRoundTripInBothDirections)
{
    SocketPair pair = makeUnixPair("pingpong");
    ASSERT_TRUE(pair.client && pair.server);

    // Frame sizes sweep from empty to a few KiB in both directions: the
    // [u32 length] prefix must delimit every one of them exactly, and
    // both ends must count the same bytes.
    std::vector<std::uint8_t> frame;
    for (int i = 0; i < 29; ++i) {
        const std::size_t bytes = (i * 509) % 4096;
        const auto ping = patternPayload(static_cast<std::uint8_t>(i), bytes);
        pair.client->sendFrame(ping.data(), ping.size());
        ASSERT_TRUE(pair.server->recvFrame(frame)) << "round " << i;
        ASSERT_TRUE(frame == ping) << "ping payload diverged at " << i;

        const auto pong =
            patternPayload(static_cast<std::uint8_t>(i + 7), bytes / 2 + 1);
        pair.server->sendFrame(pong.data(), pong.size());
        ASSERT_TRUE(pair.client->recvFrame(frame)) << "round " << i;
        ASSERT_TRUE(frame == pong) << "pong payload diverged at " << i;
    }
    EXPECT_GT(pair.client->bytesSent(), 0u);
    EXPECT_EQ(pair.client->bytesSent(), pair.server->bytesReceived());
    EXPECT_EQ(pair.server->bytesSent(), pair.client->bytesReceived());
}

/** A connected pair whose peer end is a raw fd, for hand-made bytes. */
struct RawPeer
{
    std::unique_ptr<SocketChannel> channel;
    int peer = -1;

    RawPeer()
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            channel = std::make_unique<SocketChannel>(fds[0]);
            peer = fds[1];
        }
    }

    ~RawPeer()
    {
        if (peer >= 0)
            ::close(peer);
    }

    bool
    write(const void *data, std::size_t size)
    {
        return ::write(peer, data, size) == static_cast<ssize_t>(size);
    }
};

class SocketLengthFuzz : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(SocketLengthFuzz, OversizedLengthPrefixFailsClosed)
{
    RawPeer raw;
    ASSERT_TRUE(raw.channel != nullptr);

    // A length prefix no honest sender can produce, followed by bytes
    // that would parse as a valid frame if the channel resynced.
    const std::uint32_t evil = GetParam();
    std::uint8_t len[4];
    for (int b = 0; b < 4; ++b)
        len[b] = static_cast<std::uint8_t>(evil >> (8 * b));
    ASSERT_TRUE(raw.write(len, sizeof(len)));
    WireWriter w;
    encodeCheckpointRequest(7, w);
    const std::uint32_t honest = static_cast<std::uint32_t>(w.size());
    for (int b = 0; b < 4; ++b)
        len[b] = static_cast<std::uint8_t>(honest >> (8 * b));
    ASSERT_TRUE(raw.write(len, sizeof(len)));
    ASSERT_TRUE(raw.write(w.data(), w.size()));

    raw.channel->setRecvTimeout(200);
    std::vector<std::uint8_t> frame;
    EXPECT_FALSE(raw.channel->recvFrame(frame));
    EXPECT_FALSE(raw.channel->timedOut()) << "corruption must read as "
                                             "broken, not as a timeout";
    // Fail-closed is sticky: the stream position can no longer be
    // trusted, so the well-formed frame behind it is never delivered.
    EXPECT_FALSE(raw.channel->recvFrame(frame));
    EXPECT_EQ(shardRecvError(*raw.channel, "step", 1, 0).kind,
              ShardError::Kind::ChannelClosed);
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, SocketLengthFuzz,
    // Just past kWireMaxFrameBytes, and the largest u32: both must fail
    // closed without allocating the declared size.
    ::testing::Values(kWireMaxFrameBytes + 1, std::uint32_t{0xFFFFFFFF}));

TEST(SocketFraming, CorruptPayloadIsRejectedByTheDecoder)
{
    SocketPair pair = makeUnixPair("corrupt");
    ASSERT_TRUE(pair.client && pair.server);

    // Flip every byte of an encoded frame (header included): the
    // framing stays intact, so the frame is delivered, and the
    // fail-closed codec must refuse it.
    WireWriter w;
    encodeCheckpointRequest(42, w);
    std::vector<std::uint8_t> corrupt(w.data(), w.data() + w.size());
    for (std::uint8_t &byte : corrupt)
        byte = static_cast<std::uint8_t>(~byte);
    pair.client->sendFrame(corrupt.data(), corrupt.size());

    const std::uint8_t *view = nullptr;
    std::size_t size = 0;
    std::vector<std::uint8_t> scratch;
    ASSERT_TRUE(pair.server->recvFrameView(view, size, scratch));
    ASSERT_EQ(size, corrupt.size());
    MsgType type;
    EXPECT_FALSE(peekType(view, size, type))
        << "corrupted payload parsed as a valid frame header";
    std::uint64_t seq = 0;
    EXPECT_FALSE(decodeCheckpointRequest(view, size, seq));
    // Unparsable frames land in stats slot 0, the wire-health canary.
    EXPECT_EQ(pair.server->receivedStats().frames[0], 1u);
    EXPECT_EQ(pair.server->receivedStats().totalFrames(), 1u);
}

TEST(SocketTimeout, RecvTimeoutIsDiagnosedAsTimeoutAndSticky)
{
    SocketPair pair = makeUnixPair("recvtimeout");
    ASSERT_TRUE(pair.client && pair.server);

    pair.client->setRecvTimeout(50);
    std::vector<std::uint8_t> frame;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(pair.client->recvFrame(frame));
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_GE(waited, std::chrono::milliseconds(40));
    EXPECT_LT(waited, std::chrono::seconds(10));
    EXPECT_TRUE(pair.client->timedOut());
    EXPECT_EQ(shardRecvError(*pair.client, "step", 1, 0).kind,
              ShardError::Kind::RecvTimeout);

    // The failure is sticky (the stream may sit mid-frame): a frame sent
    // afterwards must not resurrect the channel.
    const auto late = patternPayload(5, 32);
    pair.server->sendFrame(late.data(), late.size());
    EXPECT_FALSE(pair.client->recvFrame(frame));
}

TEST(SocketClose, OrderlyCloseDeliversQueuedFramesThenReportsEof)
{
    SocketPair pair = makeUnixPair("close");
    ASSERT_TRUE(pair.client && pair.server);

    const auto first = patternPayload(2, 100);
    const auto second = patternPayload(4, 200);
    pair.server->sendFrame(first.data(), first.size());
    pair.server->sendFrame(second.data(), second.size());
    pair.server.reset(); // peer closes with frames still in flight

    pair.client->setRecvTimeout(2000);
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(pair.client->recvFrame(frame));
    EXPECT_TRUE(frame == first);
    ASSERT_TRUE(pair.client->recvFrame(frame));
    EXPECT_TRUE(frame == second);
    // Drained + peer closed = EOF, and the diagnosis must be "closed",
    // not "timed out": recovery treats the two differently.
    EXPECT_FALSE(pair.client->recvFrame(frame));
    EXPECT_FALSE(pair.client->timedOut());
    EXPECT_EQ(shardRecvError(*pair.client, "step", 1, 0).kind,
              ShardError::Kind::ChannelClosed);
}

TEST(SocketTimeout, BlockedSendExpiresAndIsDiagnosedAsTimeout)
{
    SocketPair pair = makeUnixPair("sendtimeout");
    ASSERT_TRUE(pair.client && pair.server);

    // Bound sends and receives, then write into a peer that never
    // reads. Once both kernel buffers fill, writeFully() blocks and
    // SO_SNDTIMEO must expire it — before the fix the partial-write
    // loop spun on EAGAIN-less blocking writes forever.
    pair.client->setRecvTimeout(50);
    const auto hunk = patternPayload(0x77, std::size_t{1} << 20);
    for (int i = 0; i < 64 && !pair.client->timedOut(); ++i)
        pair.client->sendFrame(hunk.data(), hunk.size());

    EXPECT_TRUE(pair.client->timedOut())
        << "64 MiB queued against a non-reading peer without the "
           "send bound expiring";
    // The wedged-peer diagnosis must read as a timeout (recovery
    // respawns the worker) and not as an orderly close.
    EXPECT_EQ(shardRecvError(*pair.client, "step", 1, 0).kind,
              ShardError::Kind::RecvTimeout);
    // The channel is broken from then on: receives fail immediately.
    std::vector<std::uint8_t> frame;
    EXPECT_FALSE(pair.client->recvFrame(frame));
    EXPECT_TRUE(pair.client->timedOut());
}

TEST(SocketTimeout, ZeroRecvTimeoutMeansBoundedNotForever)
{
    SocketPair pair = makeUnixPair("zerotimeout");
    ASSERT_TRUE(pair.client && pair.server);

    // Before the clamp this armed SO_RCVTIMEO with a zero timeval —
    // which the kernel reads as "no timeout" — and recvFrame() hung
    // forever on a silent peer.
    pair.client->setRecvTimeout(0);
    std::vector<std::uint8_t> frame;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(pair.client->recvFrame(frame));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    EXPECT_TRUE(pair.client->timedOut());
}

TEST(SocketTimeoutDeathTest, ZeroConfiguredRecvTimeoutIsRejected)
{
    // The config-side guard: a deployment asking for an unbounded
    // coordinator recv is a deployment that hangs on its first dead
    // worker, so validate() refuses it outright.
    DncConfig cfg;
    cfg.shardRecvTimeoutMs = 0;
    EXPECT_DEATH(cfg.validate(), "shardRecvTimeoutMs");
}

TEST(UnixListener, SecondListenerOnALivePathIsRefused)
{
    const std::string path = uniqueSockPath("doublebind");
    auto first = SocketListener::listenUnix(path);
    ASSERT_TRUE(first != nullptr);

    // A real client connects first (the backlog is FIFO, so the
    // liveness probe below queues behind it and is never accepted
    // here).
    auto client = SocketChannel::connectUnix(path);
    ASSERT_TRUE(client != nullptr);

    // Before the probe-connect fix this unlinked the live socket file
    // and bound a second listener in its place, silently stealing every
    // future connect from `first`.
    EXPECT_TRUE(SocketListener::listenUnix(path) == nullptr);

    // And the refusal must not have damaged the live listener.
    auto server = first->accept();
    ASSERT_TRUE(server != nullptr);
    const auto payload = patternPayload(8, 64);
    client->sendFrame(payload.data(), payload.size());
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(server->recvFrame(frame));
    EXPECT_TRUE(frame == payload);
}

TEST(UnixListener, TrulyStaleSocketFileIsDisplaced)
{
    // A crashed worker leaves a bound-but-dead socket file behind: the
    // probe connect is refused, so the new listener may take the path.
    const std::string path = uniqueSockPath("stale");
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd); // dead socket, file left behind

    auto listener = SocketListener::listenUnix(path);
    ASSERT_TRUE(listener != nullptr)
        << "stale socket file was not displaced";
    auto client = SocketChannel::connectUnix(path);
    ASSERT_TRUE(client != nullptr);
    EXPECT_TRUE(listener->accept() != nullptr);
}

// --------------------------------------------------------------------
// Traffic accounting across a v3 recovery: the respawn + restore +
// replay sequence must account every frame exactly once on the
// replacement channel — no double counting between the replay log and
// the in-flight resend, and the undisturbed worker's counters must not
// move at all beyond its normal stream.
// --------------------------------------------------------------------

class RecoveryTrafficAccounting
    : public ::testing::TestWithParam<ClusterTransport>
{};

TEST_P(RecoveryTrafficAccounting, ReplayCountsEveryFrameExactlyOnce)
{
    const ClusterTransport transport = GetParam();
    DncConfig cfg;
    cfg.memoryRows = 16;
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    cfg.controllerSize = 24;
    cfg.inputSize = 10;
    cfg.outputSize = 8;
    cfg.shardCheckpointIntervalSteps = 4;
    const Index tiles = 2;

    LocalLaneCluster cluster =
        makeLocalLaneCluster(transport, cfg, tiles, /*lanes=*/1, 2);
    ASSERT_TRUE(cluster.group != nullptr);
    auto harness = armClusterRecovery(cluster, transport);
    ShardLaneGroup &group = *cluster.group;
    DncD ref(cfg, tiles);

    // Worker 0 dies receiving its 6th LaneStep frame: one step past the
    // step-4 checkpoint is logged (step 5), and step 6 itself is the
    // in-flight frame the recovery resends after the replay.
    FaultSpec kill;
    kill.killAtStepFrame = 6;
    cluster.workers[0]->injectFault(kill);

    Rng rng(808);
    constexpr int kSteps = 12;
    MemoryReadout b;
    for (int step = 0; step < kSteps; ++step) {
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        const MemoryReadout a = ref.stepInterface(iface);
        group.stepLaneInto(0, iface, b);
        for (Index h = 0; h < cfg.readHeads; ++h)
            ASSERT_TRUE(a.readVectors[h] == b.readVectors[h])
                << "diverged at step " << step << " head " << h;
    }
    ASSERT_TRUE(cluster.workers[0]->faultFired());
    EXPECT_EQ(group.recoveries(), 1u);
    EXPECT_EQ(group.checkpointsTaken(), 3u); // steps 4, 8, 12

    // channel(0) is the replacement: it saw Hello + Restore, the
    // replayed step 5, the resent in-flight step 6, live steps 7-12,
    // and the checkpoint pulls at steps 8 and 12. Exactly that — a
    // frame counted during replay AND again on the resend would show
    // up here as LaneStep > 8.
    const Channel &repl = group.channel(0);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::Hello), 1u);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::Restore), 1u);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::LaneStep), 8u);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::CheckpointRequest), 2u);
    EXPECT_EQ(frames(repl.receivedStats(), MsgType::HelloAck), 1u);
    EXPECT_EQ(frames(repl.receivedStats(), MsgType::ControlAck), 1u);
    EXPECT_EQ(frames(repl.receivedStats(), MsgType::LaneStepReply), 8u);
    EXPECT_EQ(frames(repl.receivedStats(), MsgType::CheckpointState), 2u);
    // Every request produced exactly one reply — the ledger balances.
    EXPECT_EQ(repl.sentStats().totalFrames(),
              repl.receivedStats().totalFrames());

    // channel(1) never died: one Hello, one Step per coordinator step,
    // one checkpoint pull per interval — recovery of its neighbour must
    // not have touched its stream.
    const Channel &calm = group.channel(1);
    EXPECT_EQ(frames(calm.sentStats(), MsgType::Hello), 1u);
    EXPECT_EQ(frames(calm.sentStats(), MsgType::LaneStep),
              static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(frames(calm.sentStats(), MsgType::CheckpointRequest), 3u);
    EXPECT_EQ(frames(calm.receivedStats(), MsgType::LaneStepReply),
              static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(frames(calm.receivedStats(), MsgType::CheckpointState), 3u);
    // No unparsable frames anywhere on a healthy wire.
    EXPECT_EQ(repl.receivedStats().frames[0], 0u);
    EXPECT_EQ(calm.receivedStats().frames[0], 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, RecoveryTrafficAccounting,
                         ::testing::Values(ClusterTransport::Loopback,
                                           ClusterTransport::UnixSocket),
                         [](const auto &info) {
                             return info.param == ClusterTransport::Loopback
                                        ? "Loopback"
                                        : "UnixSocket";
                         });

} // namespace
} // namespace hima
