/**
 * @file
 * Outside-in layer probes for the end-to-end serving benchmark.
 *
 * Every layer is timed at its public functions, never inside src/:
 *
 *   - SpanLog keeps the spans (kind, start, end, parent, request id) of
 *     the single-threaded load generator in memory, aggregates per-kind
 *     total and self time over the measured window, and writes a
 *     Chrome-trace JSON at exit;
 *   - TimedEngine decorates the LaneEngine a Router is built on;
 *   - TappedChannel decorates one coordinator-side shard Channel, and a
 *     WireLedger sums the wrapped channels' own traffic counters, keeping
 *     the totals of channels a recovery replaced.
 *
 * Untraced runs install none of these, so their numbers carry no probe
 * cost.
 */

#ifndef HIMA_BENCH_E2E_PROBES_H
#define HIMA_BENCH_E2E_PROBES_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "shard/transport.h"

namespace hima::e2e {

/** Steady-clock nanoseconds since the first call in this process. */
std::int64_t nowNs();

/** The layer boundaries the benchmark records spans at. */
enum class SpanKind : std::uint8_t
{
    RouterStep,     ///< Router::step
    EngineStep,     ///< LaneEngine::stepInto
    EngineAdmit,    ///< LaneEngine::admit
    EngineRelease,  ///< LaneEngine::release
    EngineDrain,    ///< LaneEngine::markDraining
    WireSend,       ///< coordinator-side send
    WireRecv,       ///< coordinator-side receive (waiting for a worker)
    LoadgenSubmit,  ///< token generation plus Router::submit
    LoadgenHarvest, ///< bookkeeping of finished requests
    Count,
};

/** Dotted span name as it appears in the trace ("engine.step"). */
const char *spanName(SpanKind kind);

/** One kind's aggregate over the spans that began while counting. */
struct SpanTotals
{
    std::int64_t totalNs = 0; ///< summed durations
    std::int64_t selfNs = 0;  ///< durations minus child-span time
    std::vector<std::int64_t> durations; ///< one entry per span
};

/** Spans of the load-generator thread: strictly nested begin()/end(). */
class SpanLog
{
  public:
    /** @param maxRecords spans kept for the trace file; later ones are
     *         still aggregated but not written */
    explicit SpanLog(std::size_t maxRecords = std::size_t{1} << 20);

    /** Open a span inside the innermost open one. */
    void begin(SpanKind kind, std::int64_t request = -1);

    /** Close the innermost open span. */
    void end();

    /** Aggregate spans that begin from now on (the measured window). */
    void setCounting(bool on) { counting_ = on; }

    const SpanTotals &totals(SpanKind kind) const
    {
        return totals_[static_cast<std::size_t>(kind)];
    }

    /** One request's lifetime, due time to last output, for the trace. */
    void noteRequest(std::uint64_t id, std::int64_t dueNs, std::int64_t endNs);

    /** A point event on the load-generator track ("window.open"). */
    void mark(const char *name);

    /** Write every kept span as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Open
    {
        SpanKind kind;
        bool counted;
        std::int64_t start;
        std::int64_t childNs;
        std::int64_t record; ///< index in records_, -1 when not kept
    };
    struct Record
    {
        SpanKind kind;
        std::int64_t parent; ///< record index of the enclosing span
        std::int64_t start;
        std::int64_t end;
        std::int64_t request;
    };
    struct RequestSpan
    {
        std::uint64_t id;
        std::int64_t due;
        std::int64_t end;
    };
    struct Mark
    {
        const char *name;
        std::int64_t at;
    };

    std::size_t maxRecords_;
    bool counting_ = false;
    std::vector<Open> stack_;
    std::vector<Record> records_;
    std::vector<RequestSpan> requests_;
    std::vector<Mark> marks_;
    std::array<SpanTotals, static_cast<std::size_t>(SpanKind::Count)>
        totals_{};
};

/** RAII span; a null log records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, SpanKind kind, std::int64_t request = -1)
        : log_(log)
    {
        if (log_)
            log_->begin(kind, request);
    }
    ~SpanScope()
    {
        if (log_)
            log_->end();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
};

/**
 * LaneEngine decorator: one span per public call, forwarding everything
 * unchanged. Admit spans carry the id of the request being bound, taken
 * from `admitOrder` (the Router binds its queue front first).
 */
class TimedEngine final : public LaneEngine
{
  public:
    TimedEngine(std::unique_ptr<LaneEngine> inner, SpanLog &log,
                std::deque<std::uint64_t> &admitOrder);

    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override;
    Index admit() override;
    void markDraining(Index slot) override;
    void release(Index slot) override;
    LaneState laneState(Index slot) const override
    {
        return inner_->laneState(slot);
    }
    Index activeLanes() const override { return inner_->activeLanes(); }
    Index drainingLanes() const override { return inner_->drainingLanes(); }
    Index freeLanes() const override { return inner_->freeLanes(); }
    Index capacity() const override { return inner_->capacity(); }
    void reset() override { inner_->reset(); }
    const DncConfig &config() const override { return inner_->config(); }

  private:
    std::unique_ptr<LaneEngine> inner_;
    SpanLog &log_;
    std::deque<std::uint64_t> &admitOrder_;
};

/**
 * Running sum of the traffic counters of every channel it was attached
 * to, including channels destroyed since (a recovery replaces one).
 */
class WireLedger
{
  public:
    void attach(const Channel &channel) { live_.push_back(&channel); }
    void retire(const Channel &channel);

    /** Frames/bytes sent (resp. received) over all channels, ever. */
    WireTrafficStats sent() const;
    WireTrafficStats received() const;

  private:
    std::vector<const Channel *> live_;
    WireTrafficStats retiredSent_;
    WireTrafficStats retiredReceived_;
};

/**
 * Channel decorator for the coordinator side: send and receive spans
 * around the wrapped channel's calls, traffic counted by the ledger from
 * the wrapped channel's own stats. Frames always take the copying send
 * path, which is the only one a socket channel has; configure the
 * wrapped channel (receive timeout) before wrapping it.
 */
class TappedChannel final : public Channel
{
  public:
    TappedChannel(std::unique_ptr<Channel> inner, SpanLog &log,
                  WireLedger &ledger);
    ~TappedChannel() override;

    TappedChannel(const TappedChannel &) = delete;
    TappedChannel &operator=(const TappedChannel &) = delete;

    void sendFrame(const std::uint8_t *data, std::size_t size) override;
    bool recvFrame(std::vector<std::uint8_t> &frame) override;
    bool recvFrameView(const std::uint8_t *&data, std::size_t &size,
                       std::vector<std::uint8_t> &scratch) override;
    bool timedOut() const override { return inner_->timedOut(); }

  private:
    std::unique_ptr<Channel> inner_;
    SpanLog &log_;
    WireLedger &ledger_;
};

} // namespace hima::e2e

#endif // HIMA_BENCH_E2E_PROBES_H
