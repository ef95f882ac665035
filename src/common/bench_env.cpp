#include "common/bench_env.h"

#include <algorithm>
#include <thread>

#if __has_include("hima_build_info.h")
#include "hima_build_info.h"
#else
#define HIMA_GIT_SHA "unknown"
#endif

namespace hima {

unsigned
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

const char *
buildGitSha()
{
    return HIMA_GIT_SHA;
}

void
writeBenchContext(std::FILE *json)
{
    std::fprintf(json, "  \"hardware_threads\": %u,\n", hardwareThreads());
    std::fprintf(json, "  \"git_sha\": \"%s\",\n", buildGitSha());
}

void
writeTrials(std::FILE *json, const char *name, const TrialSummary &summary)
{
    std::fprintf(json, "\"%s\": %.2f, \"%s_min\": %.2f, \"%s_iqr\": %.2f, ",
                 name, summary.median, name, summary.min, name, summary.iqr);
}

void
writeTelemetrySnapshot(std::FILE *json, const obs::Snapshot &snapshot)
{
    std::fprintf(json, "{");
    bool first = true;
    for (const obs::SnapshotEntry &e : snapshot.entries) {
        std::fprintf(json, "%s\"%s\": ", first ? "" : ", ",
                     e.name.c_str());
        switch (e.kind) {
        case obs::MetricKind::Counter:
            std::fprintf(json, "%llu",
                         static_cast<unsigned long long>(e.counter));
            break;
        case obs::MetricKind::Gauge:
            std::fprintf(json, "%lld", static_cast<long long>(e.gauge));
            break;
        case obs::MetricKind::Histogram:
            std::fprintf(
                json,
                "{\"count\": %llu, \"mean\": %.1f, \"p50\": %llu, "
                "\"p95\": %llu, \"p99\": %llu, \"max\": %llu}",
                static_cast<unsigned long long>(e.hist.count),
                e.hist.mean(),
                static_cast<unsigned long long>(e.hist.percentile(0.50)),
                static_cast<unsigned long long>(e.hist.percentile(0.95)),
                static_cast<unsigned long long>(e.hist.percentile(0.99)),
                static_cast<unsigned long long>(e.hist.max));
            break;
        }
        first = false;
    }
    std::fprintf(json, "}");
}

TrialSummary
summarizeTrials(std::vector<double> values)
{
    TrialSummary summary;
    if (values.empty())
        return summary;
    std::sort(values.begin(), values.end());
    const auto quantile = [&](double q) {
        const double pos = q * static_cast<double>(values.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, values.size() - 1);
        return values[lo] +
               (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
    };
    summary.median = quantile(0.5);
    summary.min = values.front();
    summary.max = values.back();
    summary.iqr = quantile(0.75) - quantile(0.25);
    summary.trials = std::move(values);
    return summary;
}

} // namespace hima
