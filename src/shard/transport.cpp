#include "shard/transport.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"
#include "obs/obs.h"
#include "shard/wire.h"

namespace hima {

namespace {

/** Transport timeout series (slow paths only — never per frame). */
struct WaitMetrics
{
    obs::Counter *sendTimeouts;
    obs::Counter *recvTimeouts;

    WaitMetrics()
    {
        obs::Registry &reg = obs::Registry::instance();
        sendTimeouts = &reg.counter("wire.timeout.send");
        recvTimeouts = &reg.counter("wire.timeout.recv");
    }

    static WaitMetrics &
    get()
    {
        static WaitMetrics metrics;
        return metrics;
    }
};

// Timeouts fire data-dependently (a peer stalls under load), so
// they cannot rely on a warm-up call to do the one-time registration
// the zero-alloc contract pushes out of steady state; register at load.
[[maybe_unused]] const WaitMetrics &g_waitMetricsInit = WaitMetrics::get();

} // namespace

// --------------------------------------------------------------------
// Wire traffic reporting
// --------------------------------------------------------------------

std::vector<WireTrafficRow>
wireTrafficRows(const WireTrafficStats &sent,
                const WireTrafficStats &received, double steps)
{
    std::vector<WireTrafficRow> rows;
    if (steps <= 0.0)
        steps = 1.0;
    for (std::size_t t = 1; t < kMsgTypeCount; ++t) {
        const std::uint64_t frames = sent.frames[t] + received.frames[t];
        if (frames == 0)
            continue;
        WireTrafficRow row;
        row.type = static_cast<MsgType>(t);
        row.name = msgTypeName(row.type);
        row.framesPerStep = static_cast<double>(frames) / steps;
        row.bytesOutPerStep = static_cast<double>(sent.bytes[t]) / steps;
        row.bytesInPerStep =
            static_cast<double>(received.bytes[t]) / steps;
        rows.push_back(row);
    }
    return rows;
}

void
formatWireTrafficTable(const WireTrafficStats &sent,
                       const WireTrafficStats &received, double steps,
                       std::string &out)
{
    for (const WireTrafficRow &row :
         wireTrafficRows(sent, received, steps)) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  %-17s %7.1f frames  %10.1f B out  %10.1f B in\n",
                      row.name, row.framesPerStep, row.bytesOutPerStep,
                      row.bytesInPerStep);
        out += line;
    }
}

// --------------------------------------------------------------------
// LoopbackChannel
// --------------------------------------------------------------------

LoopbackChannel::LoopbackChannel(Service service)
    : service_(std::move(service)), inbox_(*this)
{
    HIMA_ASSERT(static_cast<bool>(service_),
                "LoopbackChannel: null service");
}

void
LoopbackChannel::Inbox::sendFrame(const std::uint8_t *data, std::size_t size)
{
    owner_.push(data, size);
}

void
LoopbackChannel::push(const std::uint8_t *data, std::size_t size)
{
    receivedStats_.note(data, size);
    if (count_ == ring_.size()) {
        // Depth record: grow the ring (the only allocating path).
        ring_.emplace_back();
        // Keep the pending window contiguous after the growth point.
        if (head_ != 0) {
            std::rotate(ring_.begin(), ring_.begin() + head_,
                        ring_.end() - 1);
            head_ = 0;
        }
    }
    std::vector<std::uint8_t> &slot = ring_[(head_ + count_) % ring_.size()];
    slot.assign(data, data + size); // reuses capacity
    ++count_;
    bytesReceived_ += size;
}

void
LoopbackChannel::sendFrame(const std::uint8_t *data, std::size_t size)
{
    bytesSent_ += size;
    sentStats_.note(data, size);
    service_(data, size, inbox_);
}

bool
LoopbackChannel::recvFrame(std::vector<std::uint8_t> &frame)
{
    if (count_ == 0)
        return false;
    frame.assign(ring_[head_].begin(), ring_[head_].end());
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return true;
}

// --------------------------------------------------------------------
// Socket plumbing
// --------------------------------------------------------------------

namespace {

/** Like readFully below, reports an SO_SNDTIMEO expiry via `timedOut`. */
bool
writeFully(int fd, const std::uint8_t *data, std::size_t size,
           bool &timedOut)
{
    std::size_t done = 0;
    while (done < size) {
        // MSG_NOSIGNAL: a peer that died must surface as a recv/send
        // error the caller can report, not as a SIGPIPE process kill.
        const ssize_t n =
            ::send(fd, data + done, size - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                timedOut = true; // SO_SNDTIMEO expiry: the peer is
                                 // wedged (not reading), not dead
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/** Like readFully, but reports an SO_RCVTIMEO expiry via `timedOut`. */
bool
readFully(int fd, std::uint8_t *data, std::size_t size, bool &timedOut)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, data + done, size - done);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                timedOut = true; // bounded-recv expiry, not peer death
            return false; // timeout, EOF or hard error
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

void
setNoDelay(int fd)
{
    // The protocol is strict request/response with small frames; Nagle
    // only adds latency to the gather. Harmlessly fails on AF_UNIX.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

SocketChannel::SocketChannel(int fd) : fd_(fd)
{
    HIMA_ASSERT(fd_ >= 0, "SocketChannel: bad fd");
}

SocketChannel::~SocketChannel()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
SocketChannel::sendFrame(const std::uint8_t *data, std::size_t size)
{
    HIMA_ASSERT(size <= kWireMaxFrameBytes, "frame too large: %zu", size);
    sentStats_.note(data, size);
    // One buffered [len][payload] write per frame: a single syscall
    // instead of two.
    std::uint8_t len[4];
    for (int b = 0; b < 4; ++b)
        len[b] = static_cast<std::uint8_t>(size >> (8 * b));
    sendBuf_.insert(sendBuf_.end(), len, len + 4);
    sendBuf_.insert(sendBuf_.end(), data, data + size);
    obs::TraceSpan span("wire.send", sendBuf_.size());
    if (!broken_ &&
        !writeFully(fd_, sendBuf_.data(), sendBuf_.size(),
                    sendTimedOut_)) {
        if (sendTimedOut_)
            WaitMetrics::get().sendTimeouts->add();
        // Dead peer: drop the frame and let the next recvFrame() report
        // the failure in context (the coordinator turns it into a fatal
        // protocol error; a best-effort Shutdown in a destructor is
        // allowed to fail silently). An SO_SNDTIMEO expiry lands in
        // sendTimedOut_ so timedOut() diagnoses a wedged-but-alive peer
        // as a timeout rather than peer death.
        broken_ = true;
    }
    if (!broken_)
        bytesSent_ += sendBuf_.size();
    sendBuf_.clear(); // keeps capacity: steady-state sends allocate nothing
}

void
SocketChannel::setRecvTimeout(int ms)
{
    HIMA_ASSERT(ms >= 0, "SocketChannel: negative recv timeout %d", ms);
    // A zero timeval means "block forever" to the kernel — the exact
    // opposite of the immediate bound a caller asking for 0 means.
    // Clamp to the smallest representable bound instead.
    ms = std::max(ms, 1);
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // Bound sends with the same budget: with frames in flight on both
    // directions, mutually full kernel buffers would otherwise turn
    // into an unbounded write-write deadlock. writeFully treats the
    // expiry (EAGAIN) as a failure, which sendFrame() makes sticky.
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool
SocketChannel::recvFrame(std::vector<std::uint8_t> &frame)
{
    timedOut_ = false;
    if (broken_)
        return false;
    obs::TraceSpan span("wire.recv");
    // Every failure is sticky: a partial read leaves the stream
    // position unknown, so a later retry would misparse payload bytes
    // as a length prefix. The protocol has no mid-stream resync.
    std::uint8_t len[4];
    if (!readFully(fd_, len, 4, timedOut_)) {
        if (timedOut_)
            WaitMetrics::get().recvTimeouts->add();
        broken_ = true;
        return false;
    }
    std::uint32_t size = 0;
    for (int b = 0; b < 4; ++b)
        size |= static_cast<std::uint32_t>(len[b]) << (8 * b);
    if (size > kWireMaxFrameBytes) {
        broken_ = true; // garbage length: refuse to allocate
        return false;
    }
    frame.resize(size);
    if (size > 0 && !readFully(fd_, frame.data(), size, timedOut_)) {
        if (timedOut_)
            WaitMetrics::get().recvTimeouts->add();
        broken_ = true;
        return false;
    }
    bytesReceived_ += size + 4u;
    receivedStats_.note(frame.data(), frame.size());
    return true;
}

std::unique_ptr<SocketChannel>
SocketChannel::connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return nullptr;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return nullptr;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return nullptr;
    }
    return std::make_unique<SocketChannel>(fd);
}

std::unique_ptr<SocketChannel>
SocketChannel::connectTcp(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return nullptr;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return nullptr;
    }
    setNoDelay(fd);
    return std::make_unique<SocketChannel>(fd);
}

std::string
ShardError::describe() const
{
    char buf[160];
    if (kind == Kind::RecvTimeout)
        std::snprintf(buf, sizeof(buf),
                      "shard %s %llu: worker %zu exceeded the recv timeout "
                      "(dead or wedged worker)",
                      what, static_cast<unsigned long long>(seq), worker);
    else
        std::snprintf(buf, sizeof(buf),
                      "shard %s %llu: worker %zu closed the channel", what,
                      static_cast<unsigned long long>(seq), worker);
    return buf;
}

ShardError
shardRecvError(const Channel &channel, const char *what, std::uint64_t seq,
               Index worker)
{
    ShardError err;
    // Every transport self-reports timeout expiry through the Channel
    // virtual (loopback never times out; sockets do), so
    // the diagnosis needs no downcast and new backends classify
    // correctly for free.
    err.kind = channel.timedOut() ? ShardError::Kind::RecvTimeout
                                  : ShardError::Kind::ChannelClosed;
    err.worker = worker;
    err.seq = seq;
    err.what = what;
    return err;
}

void
shardRecvFailure(const Channel &channel, const char *what,
                 std::uint64_t seq, Index worker)
{
    HIMA_FATAL("%s",
               shardRecvError(channel, what, seq, worker).describe().c_str());
}

// --------------------------------------------------------------------
// SocketListener
// --------------------------------------------------------------------

SocketListener::~SocketListener()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (!path_.empty())
        ::unlink(path_.c_str());
}

std::unique_ptr<SocketListener>
SocketListener::listenUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return nullptr;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return nullptr;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // A socket file already on the path is either a stale leftover from
    // a crashed worker (safe to unlink) or a *live* listener that must
    // not be stolen out from under its clients. Probe-connect to tell
    // them apart: a successful connect means someone is accepting, so
    // fail the double-bind; ECONNREFUSED/ENOENT mean nobody is home.
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) {
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (probe < 0) {
            ::close(fd);
            return nullptr;
        }
        const bool alive = ::connect(probe,
                                     reinterpret_cast<sockaddr *>(&addr),
                                     sizeof(addr)) == 0;
        ::close(probe);
        if (alive) {
            ::close(fd);
            return nullptr; // live listener on this path: refuse
        }
        ::unlink(path.c_str()); // confirmed-stale socket file
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<SocketListener>(
        new SocketListener(fd, 0, path));
}

std::unique_ptr<SocketListener>
SocketListener::listenTcp(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return nullptr;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        ::close(fd);
        return nullptr;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0) {
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<SocketListener>(
        new SocketListener(fd, ntohs(addr.sin_port), ""));
}

std::unique_ptr<SocketChannel>
SocketListener::accept()
{
    while (true) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            if (path_.empty()) // TCP listener: disable Nagle both ends
                setNoDelay(fd);
            return std::make_unique<SocketChannel>(fd);
        }
        if (errno != EINTR)
            return nullptr;
    }
}

std::unique_ptr<SocketChannel>
SocketListener::acceptWithTimeout(int ms)
{
    // A signal mid-wait must not shrink-or-reset the budget: re-poll
    // with whatever time remains against a fixed deadline.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (true) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        const int budget = static_cast<int>(std::max<long long>(
            0, static_cast<long long>(left.count())));
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, budget);
        if (rc > 0)
            return accept(); // a pending connection: accept won't block
        if (rc == 0)
            return nullptr; // bounded wait expired
        if (errno != EINTR)
            return nullptr;
    }
}

} // namespace hima
