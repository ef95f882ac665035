/**
 * @file
 * Hot-path throughput benchmark: wall-clock timesteps/sec of the DNC
 * memory unit, comparing the seed implementation's kernels ("legacy")
 * against the allocation-free, active-set-sparse path, plus DNC-D tile
 * scaling on the thread pool. Emits BENCH_hot_path.json so the perf
 * trajectory is tracked across PRs.
 *
 * The legacy rows time the dense reference memory unit of
 * tests/dense_reference.h, a faithful replica of the seed
 * implementation: bounds-checked element accessors, value-returning
 * kernels that allocate every temporary, per-head O(N*W) row-norm
 * recomputes, dense O(N^2) linkage kernels. Before timing anything the
 * bench steps the optimized MemoryUnit in lockstep with it, over
 * allocation-gated and soft traffic with episode resets, and refuses to
 * run if a single bit of the readouts or the state differs.
 *
 * `--smoke` runs the reference gate plus a reduced grid (small N, short
 * sweeps) — the sanitizer CI job's configuration.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_env.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "dense_reference.h"
#include "dnc/dncd.h"
#include "dnc/memory_unit.h"
#include "workload/retrieval.h"
#include "workload/task_suite.h"

namespace hima {
namespace {

// --------------------------------------------------------------------
// Harness.
// --------------------------------------------------------------------

DncConfig
benchConfig(Index n)
{
    DncConfig cfg;
    cfg.memoryRows = n;
    cfg.memoryWidth = 64;
    cfg.readHeads = 4;
    return cfg;
}

InterfaceVector
benchIface(const DncConfig &cfg, Rng &rng)
{
    InterfaceVector iface;
    iface.readKeys.clear();
    for (Index h = 0; h < cfg.readHeads; ++h)
        iface.readKeys.push_back(rng.normalVector(cfg.memoryWidth));
    iface.readStrengths.assign(cfg.readHeads, 5.0);
    iface.writeKey = rng.normalVector(cfg.memoryWidth);
    iface.writeStrength = 5.0;
    iface.eraseVector = Vector(cfg.memoryWidth, 0.5);
    iface.writeVector = rng.normalVector(cfg.memoryWidth);
    iface.freeGates.assign(cfg.readHeads, 0.1);
    iface.allocationGate = 0.9;
    iface.writeGate = 1.0;
    iface.readModes.assign(cfg.readHeads, ReadMode{0.1, 0.8, 0.1});
    return iface;
}

/**
 * Bit-exact gate of the optimized MemoryUnit against the dense
 * reference: 150 steps per shape with an episode reset every 50 steps,
 * the first 15 steps of each episode allocation-gated one-hot writes
 * (few rows active, the column-sparse sweep bodies) and the rest soft
 * traffic with random gates (every row active). Compares read vectors,
 * read and write weightings, memory, row norms, usage, linkage and
 * precedence after every step. The shapes reach the fused sweep's
 * four-row AVX2 blocks (R=4), the runtime-R fallback (R=3) and the
 * compile-time one-head body (R=1), and the content scores' odd-width
 * path (W=7).
 */
bool
referenceGate()
{
    struct Shape
    {
        Index n, w, r;
    };
    for (const Shape shape :
         {Shape{256, 64, 4}, Shape{37, 6, 3}, Shape{64, 7, 1}}) {
        DncConfig cfg = benchConfig(shape.n);
        cfg.memoryWidth = shape.w;
        cfg.readHeads = shape.r;
        dense::MemoryUnitSim ref(cfg);
        MemoryUnit optimized(cfg);
        MemoryReadout out;
        Rng rng(99);
        for (int step = 0; step < 150; ++step) {
            if (step > 0 && step % 50 == 0) {
                ref.reset();
                optimized.reset();
            }
            InterfaceVector iface = benchIface(cfg, rng);
            if (step % 50 < 15) {
                iface.allocationGate = 1.0;
                iface.writeGate = 1.0;
            } else {
                iface.allocationGate = rng.uniform();
                iface.writeGate = rng.uniform(0.3, 1.0);
            }
            const MemoryReadout refOut = ref.step(iface);
            optimized.stepInto(iface, out);
            if (const char *what =
                    dense::firstMismatch(ref, refOut, optimized, out)) {
                std::fprintf(stderr,
                             "reference gate: %s diverged at N=%zu W=%zu "
                             "R=%zu step %d\n",
                             what, shape.n, shape.w, shape.r, step);
                return false;
            }
        }
    }
    return true;
}

struct SingleTileResult
{
    Index n;
    TrialSummary legacyStepsPerSec;
    TrialSummary optimizedStepsPerSec;
    double speedup; ///< ratio of the medians
};

struct DncdResult
{
    Index n;
    Index tiles;
    Index threads;
    double stepsPerSec;
};

// --------------------------------------------------------------------
// Exactness-vs-speed knob (Fig. 10-style): sweep writeSkipThreshold,
// reporting memory-unit timesteps/s at the paper's N alongside the
// retrieval-task error-rate delta vs the exact (threshold 0) run.
// --------------------------------------------------------------------

struct SkipResult
{
    Real threshold;
    double stepsPerSec;  ///< MemoryUnit stepInto at N=1024
    double errorRate;    ///< mean over the retrieval task subset
    double errorDelta;   ///< errorRate - exact baseline
    double cosineMargin; ///< mean correct-answer margin (continuous)
    double marginDelta;  ///< cosineMargin - exact baseline
    double readRms;      ///< read-vector RMS divergence on soft traffic
};

/**
 * Mean retrieval-task error rate and cosine margin for a Dnc built
 * from `cfg`: the shared accuracy leg of the writeSkipThreshold and
 * linkageSkipThreshold sweeps (fewer episodes under --smoke).
 */
std::pair<double, double>
retrievalAccuracy(const DncConfig &cfg, bool smoke)
{
    Dnc model(cfg, 3);
    TokenCodebook keys(64, cfg.memoryWidth / 2, 1);
    TokenCodebook values(64, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    Rng episodeRng(11);
    const auto suite = taskSuite();
    const Index tasks = smoke ? 2 : 8;
    double err = 0.0;
    double margin = 0.0;
    for (Index t = 0; t < tasks; ++t) {
        const Episode ep = makeEpisode(suite[t], 64, episodeRng);
        const EpisodeResult res = runEpisode(model, scripter, ep);
        err += res.errorRate();
        margin += res.meanScore;
    }
    return {err / static_cast<double>(tasks),
            margin / static_cast<double>(tasks)};
}

/**
 * State-level exactness loss: lockstep a skipping MemoryUnit against an
 * exact one on randomized *soft* traffic (mixed content/allocation
 * writes, spread weightings — where sub-threshold rows actually carry
 * mass) and report the RMS divergence of the read vectors. This is the
 * knob's true error signal; the scripted retrieval tasks above sit in
 * the one-hot regime where it never surfaces as task error.
 */
double
readDivergence(const DncConfig &skipCfg)
{
    DncConfig exactCfg = benchConfig(skipCfg.memoryRows);
    MemoryUnit exact(exactCfg);
    MemoryUnit skip(skipCfg);
    MemoryReadout outA, outB;
    Rng rng(77);
    double sumSq = 0.0;
    std::uint64_t count = 0;
    for (int step = 0; step < 50; ++step) {
        InterfaceVector iface = benchIface(exactCfg, rng);
        iface.allocationGate = rng.uniform(); // mix content-heavy writes
        iface.writeGate = rng.uniform(0.3, 1.0);
        exact.stepInto(iface, outA);
        skip.stepInto(iface, outB);
        for (Index h = 0; h < exactCfg.readHeads; ++h) {
            for (Index i = 0; i < exactCfg.memoryWidth; ++i) {
                const double d =
                    outA.readVectors[h][i] - outB.readVectors[h][i];
                sumSq += d * d;
                ++count;
            }
        }
    }
    return std::sqrt(sumSq / static_cast<double>(count));
}

std::vector<SkipResult>
writeSkipSweep(bool smoke)
{
    const std::vector<Real> thresholds =
        smoke ? std::vector<Real>{0.0, 1e-6}
              : std::vector<Real>{0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.2};
    std::vector<SkipResult> results;
    double baseErr = 0.0;
    double baseMargin = 0.0;
    for (Real th : thresholds) {
        // Throughput leg: the same N=1024 hot loop the headline uses.
        DncConfig cfg = benchConfig(smoke ? 256 : 1024);
        cfg.writeSkipThreshold = th;
        Rng rng(7);
        const InterfaceVector iface = benchIface(cfg, rng);
        MemoryUnit mu(cfg);
        MemoryReadout out;
        const double rate =
            benchStepsPerSecond([&] { mu.stepInto(iface, out); }).median;

        // Accuracy leg: scripted retrieval episodes from the task suite
        // through a full Dnc with the same knob.
        DncConfig acc = benchConfig(256);
        acc.writeSkipThreshold = th;
        const auto [err, margin] = retrievalAccuracy(acc, smoke);
        if (th == 0.0) {
            baseErr = err;
            baseMargin = margin;
        }
        DncConfig div = benchConfig(256);
        div.writeSkipThreshold = th;
        const double rms = readDivergence(div);
        results.push_back({th, rate, err, err - baseErr, margin,
                           margin - baseMargin, rms});
        std::printf("writeSkip %.0e  %10.1f steps/s  error %.4f "
                    "(delta %+.4f)  margin %.5f  read RMS div %.2e\n",
                    th, rate, err, err - baseErr, margin, rms);
    }
    return results;
}

// --------------------------------------------------------------------
// Active-row linkage sweep: throughput of the sparse O(A*N) sweep on
// the regime it targets — early-episode serving, where allocation-gated
// writes are one-hot and A stays <= N/4 — next to the steady soft-
// traffic rate where every row is active, plus a linkageSkipThreshold
// exactness sweep in the same Fig. 10 style as writeSkipThreshold
// above.
// --------------------------------------------------------------------

struct LinkSkipResult
{
    Real threshold;
    double earlyStepsPerSec;   ///< episodic allocation traffic, A <= N/4
    double meanActiveRows;     ///< measured A over the early-episode run
    double steadyStepsPerSec;  ///< soft traffic, no resets (dense regime)
    double errorRate;          ///< mean over the retrieval task subset
    double errorDelta;         ///< errorRate - exact baseline
    double readRms;            ///< read-vector RMS divergence, soft traffic
};

/**
 * Timesteps/s of an early-episode serving loop at `cfg`'s N: pure
 * allocation-gated writes with an episode reset every `episodeLen`
 * steps, so at most episodeLen slots ever hold linkage mass. Also
 * reports the measured mean active rows per step via the profiler's
 * skipped-row counters.
 */
double
earlyEpisodeRate(const DncConfig &cfg, Index episodeLen, double *meanActive,
                 double *readSkippedPerScore = nullptr)
{
    Rng rng(7);
    InterfaceVector iface = benchIface(cfg, rng);
    iface.allocationGate = 1.0; // one-hot allocation writes
    iface.writeGate = 1.0;
    MemoryUnit mu(cfg);
    MemoryReadout out;
    long stepCount = 0;
    const double rate = benchStepsPerSecond([&] {
        if (stepCount % static_cast<long>(episodeLen) == 0)
            mu.reset();
        ++stepCount;
        mu.stepInto(iface, out);
    }).median;
    const KernelCounters &link = mu.profiler().at(Kernel::Linkage);
    const double skippedPerStep =
        link.invocations == 0
            ? 0.0
            : static_cast<double>(link.skippedRows) /
                  static_cast<double>(link.invocations);
    *meanActive = static_cast<double>(cfg.memoryRows) - skippedPerStep;
    if (readSkippedPerScore) {
        // Mean zero-norm rows the read stage skipped per scored content
        // weighting (the write CW plus R read CRs each count one).
        const KernelCounters &sim = mu.profiler().at(Kernel::Similarity);
        *readSkippedPerScore =
            sim.invocations == 0
                ? 0.0
                : static_cast<double>(sim.skippedRows) /
                      static_cast<double>(sim.invocations);
    }
    return rate;
}

struct ActiveCurvePoint
{
    Index n;
    Index episodeLen;
    double meanActiveRows;
    double sparseStepsPerSec;
};

/**
 * Measured A-vs-N curve at threshold 0: for each memory size, the mean
 * active-row count and the throughput on the early-episode workload
 * (episodes of N/4 steps).
 */
std::vector<ActiveCurvePoint>
activeRowsCurve(bool smoke)
{
    const std::vector<Index> ns = smoke ? std::vector<Index>{64, 256}
                                        : std::vector<Index>{256, 1024, 4096};
    std::vector<ActiveCurvePoint> curve;
    for (Index n : ns) {
        const Index episodeLen = n / 4;
        double meanActive = 0.0;
        const double sparse =
            earlyEpisodeRate(benchConfig(n), episodeLen, &meanActive);
        curve.push_back({n, episodeLen, meanActive, sparse});
        std::printf("activeRows N=%5zu  mean A %7.1f  sparse %10.1f "
                    "steps/s\n",
                    n, meanActive, sparse);
    }
    return curve;
}

std::vector<LinkSkipResult>
linkageSkipSweep(bool smoke, Index *sweepRows, Index *episodeLenOut)
{
    const Index n = smoke ? 256 : 1024;
    const Index episodeLen = n / 4; // A <= N/4 by construction
    *sweepRows = n;
    *episodeLenOut = episodeLen;

    const std::vector<Real> thresholds =
        smoke ? std::vector<Real>{0.0, 1e-6}
              : std::vector<Real>{0.0, 1e-9, 1e-6, 1e-4, 1e-2};
    std::vector<LinkSkipResult> results;
    double baseErr = 0.0;
    for (Real th : thresholds) {
        DncConfig cfg = benchConfig(n);
        cfg.linkageSkipThreshold = th;
        double meanActive = 0.0;
        const double early = earlyEpisodeRate(cfg, episodeLen, &meanActive);

        // Steady-state soft traffic: every row active at threshold 0,
        // so this leg shows the no-regression side of the knob.
        Rng rng(7);
        const InterfaceVector iface = benchIface(cfg, rng);
        MemoryUnit mu(cfg);
        MemoryReadout out;
        const double steady =
            benchStepsPerSecond([&] { mu.stepInto(iface, out); }).median;

        DncConfig acc = benchConfig(256);
        acc.linkageSkipThreshold = th;
        const auto [err, margin] = retrievalAccuracy(acc, smoke);
        (void)margin;
        if (th == 0.0)
            baseErr = err;
        DncConfig div = benchConfig(256);
        div.linkageSkipThreshold = th;
        const double rms = readDivergence(div);

        results.push_back({th, early, meanActive, steady, err,
                           err - baseErr, rms});
        std::printf("linkageSweep %.0e  early %10.1f steps/s (mean A "
                    "%.1f)  steady %10.1f steps/s  error %.4f "
                    "(delta %+.4f)  read RMS div %.2e\n",
                    th, early, meanActive, steady, err, err - baseErr,
                    rms);
    }
    return results;
}

struct ReadSkipResult
{
    Index n;
    Real threshold;
    double earlyStepsPerSec;
    double meanActiveRows;      ///< linkage-sweep active rows
    double meanReadSkippedRows; ///< zero-norm rows skipped per content score
};

/**
 * Read-stage rows of the sparsity sweep: the threshold drives the whole
 * pipeline (content-score norm skip, sparse memory read and the
 * column-sparse linkage sweeps together, as the knobs ship) on the
 * early-episode workload.
 */
std::vector<ReadSkipResult>
readSkipSweep(bool smoke)
{
    const std::vector<Index> ns = smoke ? std::vector<Index>{64, 256}
                                        : std::vector<Index>{1024, 4096};
    const std::vector<Real> thresholds = {0.0, 1e-2};
    std::vector<ReadSkipResult> rows;
    for (Index n : ns) {
        const Index episodeLen = n / 4;
        for (Real th : thresholds) {
            DncConfig cfg = benchConfig(n);
            cfg.readSkipThreshold = th;
            cfg.linkageSkipThreshold = th;
            double meanActive = 0.0;
            double readSkipped = 0.0;
            const double early =
                earlyEpisodeRate(cfg, episodeLen, &meanActive, &readSkipped);
            rows.push_back({n, th, early, meanActive, readSkipped});
            std::printf("readSweep N=%5zu th=%.0e  early %10.1f steps/s  "
                        "mean A %.1f  read-skip %.1f rows/score\n",
                        n, th, early, meanActive, readSkipped);
        }
    }
    return rows;
}

// --------------------------------------------------------------------
// Served-shape tile rows. The single_tile rows step one warm tile, whose
// 8 MB N=1024 linkage matrix stays close in cache between steps. A
// serving engine cycles its lanes' tiles, so each tile's linkage comes
// back from farther out: these rows step N=1024 tiles (N=256 under
// --smoke) round-robin, 8 on one thread and e2e local_long's shape of
// 3 pool threads x 3 tiles, after 40 warm-up rounds, and report wall us
// per tile step and history-read us (the linkage sweep and precedence,
// Fig. 4's History-based Read) per tile step.
// --------------------------------------------------------------------

struct ServedTilesResult
{
    Index n;
    Index threads;
    Index tilesPerThread;
    TrialSummary usPerTileStep; ///< round wall time / tiles per thread
    double historyReadUsPerTileStep;
};

ServedTilesResult
servedTiles(Index n, Index threads, Index tilesPerThread)
{
    constexpr int kWarmupRounds = 40;
    const DncConfig cfg = benchConfig(n);
    const Index tiles = threads * tilesPerThread;
    std::vector<std::unique_ptr<MemoryUnit>> units;
    std::vector<InterfaceVector> ifaces;
    std::vector<MemoryReadout> outs(tiles);
    Rng rng(29);
    for (Index t = 0; t < tiles; ++t) {
        units.push_back(std::make_unique<MemoryUnit>(cfg));
        ifaces.push_back(benchIface(cfg, rng));
    }
    ThreadPool pool(threads);
    const std::function<void(Index)> threadTiles = [&](Index t) {
        for (Index k = 0; k < tilesPerThread; ++k) {
            const Index tile = t * tilesPerThread + k;
            units[tile]->stepInto(ifaces[tile], outs[tile]);
        }
    };
    const auto round = [&] { pool.parallelFor(threads, threadTiles); };
    const auto historyReadNs = [&] {
        std::uint64_t ns = 0;
        for (const auto &unit : units)
            ns += unit->profiler()
                      .categoryTotal(KernelCategory::HistoryRead)
                      .nanoseconds;
        return ns;
    };

    for (int r = 0; r < kWarmupRounds; ++r)
        round();
    const std::uint64_t ns0 = historyReadNs();
    long rounds = 0;
    const TrialSummary roundsPerSec = benchStepsPerSecond([&] {
        round();
        ++rounds;
    });
    const double tileSteps =
        static_cast<double>(rounds * static_cast<long>(tiles));
    const ServedTilesResult result{
        n, threads, tilesPerThread,
        mapTrials(roundsPerSec,
                  [&](double perSec) {
                      return 1e6 / (perSec *
                                    static_cast<double>(tilesPerThread));
                  }),
        static_cast<double>(historyReadNs() - ns0) / 1e3 / tileSteps};
    std::printf("servedTiles N=%zu threads=%zu x %zu tiles  %8.1f us per "
                "tile step (min %.1f, IQR %.1f)  history read %8.1f us\n",
                n, threads, tilesPerThread, result.usPerTileStep.median,
                result.usPerTileStep.min, result.usPerTileStep.iqr,
                result.historyReadUsPerTileStep);
    return result;
}

} // namespace
} // namespace hima

int
main(int argc, char **argv)
{
    using namespace hima;

    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    if (!referenceGate()) {
        std::fprintf(stderr,
                     "FATAL: the optimized memory unit diverged from the "
                     "dense reference — refusing to benchmark unequal "
                     "computations\n");
        return 1;
    }
    std::printf("cross-check: optimized memory unit bit-identical to the "
                "dense reference\n");

    const std::vector<Index> sizes =
        smoke ? std::vector<Index>{64, 256}
              : std::vector<Index>{64, 256, 1024, 4096};
    std::vector<SingleTileResult> single;
    for (Index n : sizes) {
        const DncConfig cfg = benchConfig(n);
        Rng rng(7);
        const InterfaceVector iface = benchIface(cfg, rng);

        dense::MemoryUnitSim legacySim(cfg);
        const TrialSummary legacyRate = benchStepsPerSecond(
            [&] { legacySim.step(iface); });

        MemoryUnit mu(cfg);
        MemoryReadout out;
        const TrialSummary optRate = benchStepsPerSecond(
            [&] { mu.stepInto(iface, out); });

        const double speedup = optRate.median / legacyRate.median;
        single.push_back({n, legacyRate, optRate, speedup});
        std::printf("N=%5zu  legacy %10.1f steps/s   optimized %10.1f "
                    "steps/s (IQR %.1f)   speedup %.2fx\n",
                    n, legacyRate.median, optRate.median, optRate.iqr,
                    speedup);
    }

    const std::vector<Index> tileCounts =
        smoke ? std::vector<Index>{1} : std::vector<Index>{1, 4, 16};
    const std::vector<Index> threadCounts =
        smoke ? std::vector<Index>{1} : std::vector<Index>{1, 4};
    std::vector<DncdResult> dncd;
    const Index dncdRows = 1024;
    for (Index tiles : tileCounts) {
        for (Index threads : threadCounts) {
            DncConfig cfg = benchConfig(dncdRows);
            cfg.numThreads = threads;
            DncD model(cfg, tiles);
            Rng rng(11);
            const InterfaceVector iface = benchIface(cfg, rng);
            const double rate = benchStepsPerSecond(
                [&] { model.stepInterface(iface); }).median;
            dncd.push_back({dncdRows, tiles, threads, rate});
            std::printf("DNC-D N=%zu tiles=%2zu threads=%zu  %10.1f "
                        "steps/s\n",
                        dncdRows, tiles, threads, rate);
        }
    }

    double scaling16 = 0.0;
    {
        double t1 = 0.0, t4 = 0.0;
        for (const DncdResult &r : dncd) {
            if (r.tiles == 16 && r.threads == 1)
                t1 = r.stepsPerSec;
            if (r.tiles == 16 && r.threads == 4)
                t4 = r.stepsPerSec;
        }
        if (t1 > 0.0)
            scaling16 = t4 / t1;
    }

    std::printf("\nwriteSkipThreshold exactness-vs-speed sweep "
                "(Fig. 10-style):\n");
    const std::vector<SkipResult> skips = writeSkipSweep(smoke);

    std::printf("\nlinkageSkipThreshold active-row sweep:\n");
    Index sweepRows = 0;
    Index sweepEpisodeLen = 0;
    const std::vector<LinkSkipResult> linkSkips =
        linkageSkipSweep(smoke, &sweepRows, &sweepEpisodeLen);

    std::printf("\nread-stage sparsity sweep (early-episode):\n");
    const std::vector<ReadSkipResult> readSkips = readSkipSweep(smoke);

    std::printf("\nactive rows vs N (threshold 0, early-episode):\n");
    const std::vector<ActiveCurvePoint> curve = activeRowsCurve(smoke);

    std::printf("\nserved-shape tiles (round-robin, warm-up 40 rounds):\n");
    std::vector<ServedTilesResult> served;
    const Index servedRows = smoke ? 256 : 1024;
    served.push_back(servedTiles(servedRows, 1, 8));
    served.push_back(servedTiles(servedRows, 3, 3));

    double headline = 0.0;
    for (const SingleTileResult &r : single)
        if (r.n == 1024)
            headline = r.speedup;

    FILE *json = std::fopen("BENCH_hot_path.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot open BENCH_hot_path.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    writeBenchContext(json);
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json,
                 "  \"config\": {\"memory_width\": 64, \"read_heads\": 4},\n");
    std::fprintf(json, "  \"single_tile\": [\n");
    for (std::size_t i = 0; i < single.size(); ++i) {
        const SingleTileResult &r = single[i];
        std::fprintf(json, "    {\"n\": %zu, ", r.n);
        writeTrials(json, "legacy_steps_per_sec", r.legacyStepsPerSec);
        writeTrials(json, "optimized_steps_per_sec",
                    r.optimizedStepsPerSec);
        std::fprintf(json, "\"speedup\": %.3f}%s\n", r.speedup,
                     i + 1 < single.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"served_tiles\": [\n");
    for (std::size_t i = 0; i < served.size(); ++i) {
        const ServedTilesResult &r = served[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"threads\": %zu, "
                     "\"tiles_per_thread\": %zu, ",
                     r.n, r.threads, r.tilesPerThread);
        writeTrials(json, "us_per_tile_step", r.usPerTileStep);
        std::fprintf(json, "\"history_read_us_per_tile_step\": %.1f}%s\n",
                     r.historyReadUsPerTileStep,
                     i + 1 < served.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"dncd\": [\n");
    for (std::size_t i = 0; i < dncd.size(); ++i) {
        const DncdResult &r = dncd[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"tiles\": %zu, \"threads\": %zu, "
                     "\"steps_per_sec\": %.2f}%s\n",
                     r.n, r.tiles, r.threads, r.stepsPerSec,
                     i + 1 < dncd.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"dncd_thread_scaling_16_tiles\": "
                 "{\"threads4_over_threads1\": %.3f},\n",
                 scaling16);
    std::fprintf(json, "  \"write_skip_sweep\": [\n");
    for (std::size_t i = 0; i < skips.size(); ++i) {
        const SkipResult &r = skips[i];
        std::fprintf(json,
                     "    {\"threshold\": %.0e, "
                     "\"steps_per_sec_n1024\": %.2f, "
                     "\"retrieval_error_rate\": %.5f, "
                     "\"error_delta_vs_exact\": %.5f, "
                     "\"mean_cosine_margin\": %.6f, "
                     "\"margin_delta_vs_exact\": %.6f, "
                     "\"read_rms_divergence\": %.3e}%s\n",
                     r.threshold, r.stepsPerSec, r.errorRate, r.errorDelta,
                     r.cosineMargin, r.marginDelta, r.readRms,
                     i + 1 < skips.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"linkage_skip_sweep_shape\": {\"n\": %zu, "
                 "\"episode_len\": %zu},\n",
                 sweepRows, sweepEpisodeLen);
    std::fprintf(json, "  \"linkage_skip_sweep\": [\n");
    for (std::size_t i = 0; i < linkSkips.size(); ++i) {
        const LinkSkipResult &r = linkSkips[i];
        std::fprintf(json,
                     "    {\"threshold\": %.0e, "
                     "\"early_steps_per_sec\": %.2f, "
                     "\"mean_active_rows_early\": %.1f, "
                     "\"steady_steps_per_sec\": %.2f, "
                     "\"retrieval_error_rate\": %.5f, "
                     "\"error_delta_vs_exact\": %.5f, "
                     "\"read_rms_divergence\": %.3e}%s\n",
                     r.threshold, r.earlyStepsPerSec,
                     r.meanActiveRows, r.steadyStepsPerSec, r.errorRate,
                     r.errorDelta, r.readRms,
                     i + 1 < linkSkips.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"read_skip_sweep\": [\n");
    for (std::size_t i = 0; i < readSkips.size(); ++i) {
        const ReadSkipResult &r = readSkips[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"threshold\": %.0e, "
                     "\"early_steps_per_sec\": %.2f, "
                     "\"mean_active_rows_early\": %.1f, "
                     "\"mean_read_skipped_rows_per_score\": %.1f}%s\n",
                     r.n, r.threshold, r.earlyStepsPerSec,
                     r.meanActiveRows, r.meanReadSkippedRows,
                     i + 1 < readSkips.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"linkage_active_rows_curve\": [\n");
    for (std::size_t i = 0; i < curve.size(); ++i) {
        const ActiveCurvePoint &r = curve[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"episode_len\": %zu, "
                     "\"mean_active_rows\": %.1f, "
                     "\"sparse_steps_per_sec\": %.2f}%s\n",
                     r.n, r.episodeLen, r.meanActiveRows,
                     r.sparseStepsPerSec,
                     i + 1 < curve.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"headline\": {\"n1024_speedup\": %.3f}\n",
                 headline);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_hot_path.json (N=1024 speedup %.2fx, "
                "16-tile 4-thread scaling %.2fx)\n",
                headline, scaling16);
    return 0;
}
