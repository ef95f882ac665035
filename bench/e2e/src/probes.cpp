#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace hima::e2e {

std::int64_t
nowNs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::RouterStep: return "router.step";
    case SpanKind::EngineStep: return "engine.step";
    case SpanKind::EngineAdmit: return "engine.admit";
    case SpanKind::EngineRelease: return "engine.release";
    case SpanKind::EngineDrain: return "engine.mark_draining";
    case SpanKind::WireSend: return "wire.send";
    case SpanKind::WireRecv: return "wire.recv";
    case SpanKind::LoadgenSubmit: return "loadgen.submit";
    case SpanKind::LoadgenHarvest: return "loadgen.harvest";
    case SpanKind::Count: break;
    }
    return "?";
}

SpanLog::SpanLog(std::size_t maxRecords) : maxRecords_(maxRecords)
{
    stack_.reserve(16);
}

void
SpanLog::begin(SpanKind kind, std::int64_t request)
{
    const std::int64_t start = nowNs();
    std::int64_t record = -1;
    if (records_.size() < maxRecords_) {
        record = static_cast<std::int64_t>(records_.size());
        const std::int64_t parent = stack_.empty() ? -1 : stack_.back().record;
        records_.push_back(Record{kind, parent, start, start, request});
    }
    stack_.push_back(Open{kind, counting_, start, 0, record});
}

void
SpanLog::end()
{
    const std::int64_t stop = nowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = stop - open.start;
    if (open.record >= 0)
        records_[static_cast<std::size_t>(open.record)].end = stop;
    if (!stack_.empty())
        stack_.back().childNs += duration;
    if (open.counted) {
        SpanTotals &t = totals_[static_cast<std::size_t>(open.kind)];
        t.totalNs += duration;
        t.selfNs += duration - open.childNs;
        t.durations.push_back(duration);
    }
}

void
SpanLog::noteRequest(std::uint64_t id, std::int64_t dueNs, std::int64_t endNs)
{
    if (requests_.size() < maxRecords_)
        requests_.push_back(RequestSpan{id, dueNs, endNs});
}

void
SpanLog::mark(const char *name)
{
    marks_.push_back(Mark{name, nowNs()});
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Chrome trace timestamps are microseconds; tid 1 is the load
    // generator (every decorated call runs on it), and request lifetimes
    // are async slices so overlapping requests stack instead of clobbering.
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f, "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                    "\"tid\": 1, \"args\": {\"name\": \"loadgen\"}}");
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"span\": %zu, \"parent\": %lld, \"request\": %lld}}",
                     spanName(r.kind), static_cast<double>(r.start) / 1e3,
                     static_cast<double>(r.end - r.start) / 1e3, i,
                     static_cast<long long>(r.parent),
                     static_cast<long long>(r.request));
    }
    for (const RequestSpan &q : requests_) {
        std::fprintf(f,
                     ",\n{\"name\": \"request\", \"cat\": \"request\", "
                     "\"ph\": \"b\", \"id\": %llu, \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"args\": {\"request\": %llu}}",
                     static_cast<unsigned long long>(q.id),
                     static_cast<double>(q.due) / 1e3,
                     static_cast<unsigned long long>(q.id));
        std::fprintf(f,
                     ",\n{\"name\": \"request\", \"cat\": \"request\", "
                     "\"ph\": \"e\", \"id\": %llu, \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f}",
                     static_cast<unsigned long long>(q.id),
                     static_cast<double>(q.end) / 1e3);
    }
    for (const Mark &m : marks_)
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"g\", "
                     "\"pid\": 1, \"tid\": 1, \"ts\": %.3f}",
                     m.name, static_cast<double>(m.at) / 1e3);
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------

TimedEngine::TimedEngine(std::unique_ptr<LaneEngine> inner, SpanLog &log,
                         std::deque<std::uint64_t> &admitOrder)
    : inner_(std::move(inner)), log_(log), admitOrder_(admitOrder)
{}

void
TimedEngine::stepInto(const std::vector<Vector> &inputs,
                      std::vector<Vector> &outputs)
{
    SpanScope span(&log_, SpanKind::EngineStep);
    inner_->stepInto(inputs, outputs);
}

Index
TimedEngine::admit()
{
    std::int64_t request = -1;
    if (!admitOrder_.empty()) {
        request = static_cast<std::int64_t>(admitOrder_.front());
        admitOrder_.pop_front();
    }
    SpanScope span(&log_, SpanKind::EngineAdmit, request);
    return inner_->admit();
}

void
TimedEngine::markDraining(Index slot)
{
    SpanScope span(&log_, SpanKind::EngineDrain);
    inner_->markDraining(slot);
}

void
TimedEngine::release(Index slot)
{
    SpanScope span(&log_, SpanKind::EngineRelease);
    inner_->release(slot);
}

// ---------------------------------------------------------------------

void
WireLedger::retire(const Channel &channel)
{
    retiredSent_ += channel.sentStats();
    retiredReceived_ += channel.receivedStats();
    live_.erase(std::find(live_.begin(), live_.end(), &channel));
}

WireTrafficStats
WireLedger::sent() const
{
    WireTrafficStats total = retiredSent_;
    for (const Channel *c : live_)
        total += c->sentStats();
    return total;
}

WireTrafficStats
WireLedger::received() const
{
    WireTrafficStats total = retiredReceived_;
    for (const Channel *c : live_)
        total += c->receivedStats();
    return total;
}

TappedChannel::TappedChannel(std::unique_ptr<Channel> inner, SpanLog &log,
                             WireLedger &ledger)
    : inner_(std::move(inner)), log_(log), ledger_(ledger)
{
    ledger_.attach(*inner_);
}

TappedChannel::~TappedChannel() { ledger_.retire(*inner_); }

void
TappedChannel::sendFrame(const std::uint8_t *data, std::size_t size)
{
    SpanScope span(&log_, SpanKind::WireSend);
    inner_->sendFrame(data, size);
}

bool
TappedChannel::recvFrame(std::vector<std::uint8_t> &frame)
{
    SpanScope span(&log_, SpanKind::WireRecv);
    return inner_->recvFrame(frame);
}

bool
TappedChannel::recvFrameView(const std::uint8_t *&data, std::size_t &size,
                             std::vector<std::uint8_t> &scratch)
{
    SpanScope span(&log_, SpanKind::WireRecv);
    return inner_->recvFrameView(data, size, scratch);
}

} // namespace hima::e2e
