/**
 * @file
 * Shared context stamped into every BENCH_*.json emitter, so a checked-
 * in result is self-describing: the ROADMAP's "this was a 1-hardware-
 * thread container" caveat is machine-readable (`hardware_threads`),
 * and `git_sha` pins the result to the code that produced it — the CI
 * artifact (multi-core) is distinguishable from a laptop run by its
 * fields alone.
 */

#ifndef HIMA_COMMON_BENCH_ENV_H
#define HIMA_COMMON_BENCH_ENV_H

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace hima {

/** Median, extremes and interquartile range of repeated trials. */
struct TrialSummary
{
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
    double iqr = 0.0;           ///< third quartile minus first
    std::vector<double> trials; ///< the trial values, ascending
};

/**
 * Summarize trial values. Quartiles interpolate linearly between the
 * sorted values: with five trials the median is the middle trial and
 * the IQR is the fourth minus the second.
 */
TrialSummary summarizeTrials(std::vector<double> values);

/** The same trials mapped through `f` (e.g. steps/s to us per step). */
template <typename F>
TrialSummary
mapTrials(const TrialSummary &summary, F &&f)
{
    std::vector<double> mapped;
    for (double v : summary.trials)
        mapped.push_back(f(v));
    return summarizeTrials(std::move(mapped));
}

/** Hardware threads visible to this process (always >= 1). */
unsigned hardwareThreads();

/**
 * Abbreviated git SHA captured at CMake configure time; "unknown" when
 * the build tree was configured outside a git checkout.
 */
const char *buildGitSha();

/**
 * Write the shared context fields ("hardware_threads", "git_sha") into
 * an open JSON object, trailing comma included — call it right after
 * the opening brace.
 */
void writeBenchContext(std::FILE *json);

/**
 * Write one repeated-trials figure as three JSON fields, each followed
 * by ", ": `name` (the median), `name_min` and `name_iqr`.
 */
void writeTrials(std::FILE *json, const char *name,
                 const TrialSummary &summary);

/**
 * Write a telemetry snapshot as one JSON object keyed by metric name:
 * counters and gauges as bare integers, histograms as
 * {count, mean, p50, p95, p99, max} summaries. The shared shape every
 * BENCH_*.json telemetry row uses.
 */
void writeTelemetrySnapshot(std::FILE *json, const obs::Snapshot &snapshot);

/**
 * Shared timing loop of the bench harnesses: run `stepFn` once to warm
 * caches/size buffers, then time `trials` back-to-back trials, each
 * repeating `stepFn` until `minSeconds` elapse (or `maxIters` as a
 * runaway bound), and summarize their iterations per second. One copy
 * here so every bench measures with the same methodology. A single
 * sample moves 10-20% between runs, so figures quote the median and
 * carry their spread.
 */
template <typename StepFn>
TrialSummary
benchStepsPerSecond(StepFn &&stepFn, double minSeconds = 0.25,
                    int trials = 5, long maxIters = 200000)
{
    using Clock = std::chrono::steady_clock;
    stepFn(); // warmup
    std::vector<double> rates;
    for (int t = 0; t < trials; ++t) {
        long iters = 0;
        double elapsed = 0.0;
        const auto start = Clock::now();
        while (elapsed < minSeconds && iters < maxIters) {
            stepFn();
            ++iters;
            elapsed =
                std::chrono::duration<double>(Clock::now() - start).count();
        }
        rates.push_back(static_cast<double>(iters) / elapsed);
    }
    return summarizeTrials(std::move(rates));
}

} // namespace hima

#endif // HIMA_COMMON_BENCH_ENV_H
