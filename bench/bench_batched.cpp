/**
 * @file
 * Batched-serving throughput benchmark: per-lane timesteps/sec of the
 * BatchedDnc engine vs batch size B in {1, 4, 16, 64}, against the
 * sequential one-Dnc-at-a-time baseline. Emits BENCH_batched.json so the
 * serving-throughput trajectory accumulates across PRs (CI uploads it as
 * an artifact; single-core runs only show the weight-streaming and
 * overhead-amortization component of the win — the lane-parallel
 * component needs hardware threads).
 *
 * A second section times the controller alone at the pipelined shard
 * coordinator's shape (8 lanes swept in batches of 4): eight per-lane
 * Controllers, each with its own weights, against one shared-weight
 * BatchedController. It reports the median, min and max of several
 * trials in microseconds per lane-step.
 *
 * Before timing anything the harness cross-checks the engine and the
 * batched controller bit-for-bit against per-lane references, the same
 * refusal gate bench_hot_path uses: never benchmark unequal
 * computations.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_env.h"
#include "common/random.h"
#include "dnc/controller.h"
#include "dnc/dnc.h"
#include "serve/batched_controller.h"
#include "serve/batched_dnc.h"

namespace hima {
namespace {

DncConfig
serveConfig()
{
    // Paper-like word width and head count; N reduced from 1024 so the
    // B=64 point (64 lanes x N^2 linkage tiles) stays laptop-friendly.
    DncConfig cfg;
    cfg.memoryRows = 256;
    cfg.memoryWidth = 64;
    cfg.readHeads = 4;
    cfg.controllerSize = 256;
    cfg.inputSize = 64;
    cfg.outputSize = 64;
    return cfg;
}

/** Bit-exact refusal gate: engine lanes vs sequential reference runs. */
bool
crossCheck()
{
    DncConfig cfg = serveConfig();
    cfg.memoryRows = 64; // small: this is a correctness gate, not timing
    cfg.batchSize = 3;
    cfg.numThreads = 2;
    BatchedDnc engine(cfg, 42);
    std::vector<Dnc> refs;
    refs.reserve(cfg.batchSize);
    for (Index b = 0; b < cfg.batchSize; ++b)
        refs.emplace_back(cfg, 42);

    Rng rng(7);
    std::vector<Vector> outputs;
    for (int step = 0; step < 4; ++step) {
        std::vector<Vector> inputs;
        for (Index b = 0; b < cfg.batchSize; ++b)
            inputs.push_back(rng.normalVector(cfg.inputSize));
        engine.stepInto(inputs, outputs);
        for (Index b = 0; b < cfg.batchSize; ++b)
            if (!(refs[b].step(inputs[b]) == outputs[b]))
                return false;
    }
    return true;
}

// The pipelined shard coordinator's controller shape: kCoordLanes lanes
// swept kCoordBatch at a time.
constexpr Index kCoordLanes = 8;
constexpr Index kCoordBatch = 4;
constexpr int kControllerTrials = 5;

/**
 * Per-lane Controllers (one weight copy each) and one BatchedController
 * fed the same inputs and read vectors. The reads stand in for the
 * memory, so only controller work is timed.
 */
struct ControllerRig
{
    DncConfig cfg;
    std::vector<std::unique_ptr<Controller>> perLane;
    BatchedController batched;
    std::vector<Vector> inputs;
    std::vector<std::vector<Vector>> reads;
    std::vector<Vector> outPerLane;
    std::vector<Vector> outBatched;

    explicit ControllerRig(const DncConfig &config)
        : cfg(config), batched(config, 3), outPerLane(config.batchSize),
          outBatched(config.batchSize)
    {
        Rng rng(29);
        for (Index lane = 0; lane < cfg.batchSize; ++lane) {
            Rng weights(3);
            perLane.push_back(std::make_unique<Controller>(cfg, weights));
            inputs.push_back(rng.normalVector(cfg.inputSize));
            reads.emplace_back();
            for (Index h = 0; h < cfg.readHeads; ++h)
                reads.back().push_back(rng.normalVector(cfg.memoryWidth));
            // The per-lane controllers see these reads as every step's
            // previous reads; the batched feed takes them from here.
            batched.setReads(lane, reads[lane]);
        }
    }

    void stepPerLane()
    {
        for (Index lane = 0; lane < cfg.batchSize; ++lane) {
            perLane[lane]->stepInto(inputs[lane], reads[lane]);
            perLane[lane]->outputInto(reads[lane], outPerLane[lane]);
        }
    }

    void stepBatched()
    {
        for (Index first = 0; first < cfg.batchSize; first += kCoordBatch) {
            const Index count = std::min(kCoordBatch, cfg.batchSize - first);
            batched.loadFeed(inputs, first, count);
            batched.lstmRows(0, cfg.controllerSize, first, count);
            batched.interfaceRows(0, cfg.interfaceSize(), first, count);
            for (Index c = first; c < first + count; ++c) {
                batched.decode(c);
                batched.setReads(c, reads[c]);
            }
            batched.outputSweep(first, count);
            for (Index c = first; c < first + count; ++c)
                batched.outputInto(c, outBatched[c]);
        }
    }
};

DncConfig
coordinatorConfig()
{
    DncConfig cfg = serveConfig();
    cfg.batchSize = kCoordLanes;
    return cfg;
}

/** Bit-exact refusal gate for the controller section. */
bool
controllerCrossCheck()
{
    ControllerRig rig(coordinatorConfig());
    for (int step = 0; step < 3; ++step) {
        rig.stepPerLane();
        rig.stepBatched();
        for (Index lane = 0; lane < kCoordLanes; ++lane)
            if (!(rig.outPerLane[lane] == rig.outBatched[lane]))
                return false;
    }
    return true;
}

/** Microseconds per lane-step over kControllerTrials timed trials. */
template <typename StepFn>
TrialSummary
usPerLaneStep(StepFn &&stepFn)
{
    return mapTrials(
        benchStepsPerSecond(stepFn, 0.2, kControllerTrials),
        [](double stepsPerSec) {
            return 1e6 / (stepsPerSec * static_cast<double>(kCoordLanes));
        });
}

struct BatchedResult
{
    Index batch;
    Index threads;
    double stepsPerSec;        ///< whole-batch steps/sec
    double perLaneStepsPerSec; ///< batch * stepsPerSec
    double speedup;            ///< per-lane vs sequential baseline
};

} // namespace
} // namespace hima

int
main()
{
    using namespace hima;

    if (!crossCheck()) {
        std::fprintf(stderr,
                     "FATAL: batched engine diverged from the reference "
                     "lanes — refusing to benchmark unequal computations\n");
        return 1;
    }
    std::printf("cross-check: batched lanes bit-identical to reference\n");
    if (!controllerCrossCheck()) {
        std::fprintf(stderr,
                     "FATAL: batched controller diverged from per-lane "
                     "controllers — refusing to benchmark unequal "
                     "computations\n");
        return 1;
    }
    std::printf("cross-check: batched controller bit-identical to "
                "per-lane controllers\n");

    const DncConfig base = serveConfig();
    const unsigned hw = std::thread::hardware_concurrency();

    // Rotating input batches keep the engine off a fixed point without
    // timing the generator.
    constexpr int kInputSets = 4;
    Rng rng(11);

    // Sequential baseline: one Dnc stepped the way a naive server would.
    double baseline = 0.0;
    {
        Dnc model(base, 1);
        std::vector<Vector> tokens;
        for (int i = 0; i < kInputSets; ++i)
            tokens.push_back(rng.normalVector(base.inputSize));
        long i = 0;
        baseline = benchStepsPerSecond(
            [&] { model.step(tokens[static_cast<std::size_t>(i++) %
                                    kInputSets]); },
            /*minSeconds=*/0.3).median;
        std::printf("sequential baseline: %10.1f steps/s (N=%zu)\n",
                    baseline, base.memoryRows);
    }

    std::vector<Index> threadSet = {1};
    const Index pooled = std::min<Index>(4, hw > 0 ? hw : 1);
    if (pooled > 1)
        threadSet.push_back(pooled);

    const std::vector<Index> batchSizes = {1, 4, 16, 64};
    std::vector<BatchedResult> results;
    for (Index threads : threadSet) {
        for (Index batch : batchSizes) {
            DncConfig cfg = base;
            cfg.batchSize = batch;
            cfg.numThreads = threads;
            BatchedDnc engine(cfg, 1);

            std::vector<std::vector<Vector>> batches;
            for (int s = 0; s < kInputSets; ++s) {
                std::vector<Vector> inputs;
                for (Index b = 0; b < batch; ++b)
                    inputs.push_back(rng.normalVector(cfg.inputSize));
                batches.push_back(std::move(inputs));
            }

            std::vector<Vector> outputs;
            long i = 0;
            const double rate = benchStepsPerSecond(
                [&] {
                    engine.stepInto(batches[static_cast<std::size_t>(i++) %
                                            kInputSets],
                                    outputs);
                },
                /*minSeconds=*/0.3).median;
            const double perLane = rate * static_cast<double>(batch);
            results.push_back(
                {batch, threads, rate, perLane, perLane / baseline});
            std::printf("B=%3zu threads=%zu  %10.1f batch-steps/s  "
                        "%10.1f lane-steps/s  %5.2fx vs sequential\n",
                        batch, threads, rate, perLane, perLane / baseline);
        }
    }

    ControllerRig rig(coordinatorConfig());
    const TrialSummary perLaneUs = usPerLaneStep([&] { rig.stepPerLane(); });
    const TrialSummary batchedUs = usPerLaneStep([&] { rig.stepBatched(); });
    std::printf("controller, %zu lanes in batches of %zu: per-lane %.1f us "
                "(min %.1f, max %.1f), batched %.1f us (min %.1f, max %.1f) "
                "per lane-step\n",
                kCoordLanes, kCoordBatch, perLaneUs.median, perLaneUs.min,
                perLaneUs.max, batchedUs.median, batchedUs.min, batchedUs.max);

    double headline = 0.0;
    for (const BatchedResult &r : results)
        if (r.batch == 16 && r.speedup > headline)
            headline = r.speedup;

    FILE *json = std::fopen("BENCH_batched.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot open BENCH_batched.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    writeBenchContext(json);
    std::fprintf(json,
                 "  \"config\": {\"memory_rows\": %zu, \"memory_width\": "
                 "%zu, \"read_heads\": %zu, \"controller_size\": %zu},\n",
                 base.memoryRows, base.memoryWidth, base.readHeads,
                 base.controllerSize);
    std::fprintf(json, "  \"sequential_baseline_steps_per_sec\": %.2f,\n",
                 baseline);
    std::fprintf(json, "  \"batched\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BatchedResult &r = results[i];
        std::fprintf(json,
                     "    {\"batch\": %zu, \"threads\": %zu, "
                     "\"steps_per_sec\": %.2f, "
                     "\"per_lane_steps_per_sec\": %.2f, "
                     "\"speedup_vs_sequential\": %.3f}%s\n",
                     r.batch, r.threads, r.stepsPerSec,
                     r.perLaneStepsPerSec, r.speedup,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    auto summary = [json](const char *name, const TrialSummary &t,
                          const char *tail) {
        std::fprintf(json,
                     "    \"%s\": {\"median\": %.2f, \"min\": %.2f, "
                     "\"max\": %.2f}%s\n",
                     name, t.median, t.min, t.max, tail);
    };
    std::fprintf(json,
                 "  \"controller\": {\"lanes\": %zu, \"lanes_per_batch\": "
                 "%zu, \"trials\": %d, \"unit\": \"us_per_lane_step\",\n",
                 kCoordLanes, kCoordBatch, kControllerTrials);
    summary("per_lane_controllers", perLaneUs, ",");
    summary("batched_controller", batchedUs, ",");
    std::fprintf(json, "    \"speedup_median\": %.3f\n  },\n",
                 perLaneUs.median / batchedUs.median);
    std::fprintf(json, "  \"headline\": {\"b16_speedup\": %.3f}\n", headline);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_batched.json (best B=16 per-lane speedup "
                "%.2fx)\n",
                headline);
    return 0;
}
