/**
 * @file
 * Reusable golden-model harness: lockstep reference-vs-optimized
 * comparisons for the DNC engines.
 *
 * The pattern every fast path in this repo must satisfy is "bit-identical
 * to the reference model" — not approximately equal, identical. This
 * header centralizes the machinery: the dense reference memory unit
 * (dense_reference.h), one-row scalar references for the memory kernels'
 * SIMD bodies, deterministic input-stream generation, a
 * randomized-but-valid scripted interface generator (shared by the
 * memory-unit, DNC-D and determinism suites), and a lockstep
 * runner that steps a BatchedDnc next to batchSize independent reference
 * Dnc instances and asserts bit-equality of every output and every piece
 * of per-lane state at every step.
 */

#ifndef HIMA_TESTS_GOLDEN_UTIL_H
#define HIMA_TESTS_GOLDEN_UTIL_H

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "approx/fixed_point.h"
#include "common/random.h"
#include "dense_reference.h"
#include "dnc/dnc.h"
#include "serve/batched_dnc.h"

namespace hima {
namespace golden {

// ---------------------------------------------------------------------
// One-row scalar references. Every SIMD or blocked body of a memory
// kernel must reproduce these serial chains bit for bit.
// ---------------------------------------------------------------------

/**
 * Content addressing's sharpened cosine score of one row: the serial
 * c-ascending dot, then strength * dot / (rowNorm * keyNorm + eps).
 */
inline Real
refContentScore(const Real *row, const Real *key, Index w, Real strength,
                Real rowNorm, Real keyNorm)
{
    constexpr Real eps = 1e-6;
    Real acc = 0.0;
    for (Index c = 0; c < w; ++c)
        acc += row[c] * key[c];
    return strength * acc / (rowNorm * keyNorm + eps);
}

/**
 * The memory write of one row with weight wi (erase then add, optional
 * Q16.16 requantize); returns the row's refreshed L2 norm, the serial
 * c-ascending sum of squares of the stored words.
 */
inline Real
refWriteRow(Real *row, Real wi, const Real *erase, const Real *write,
            Index w, bool fixed)
{
    Real acc = 0.0;
    for (Index c = 0; c < w; ++c) {
        Real v = row[c] * (1.0 - wi * erase[c]) + wi * write[c];
        if (fixed)
            v = Fix32::fromReal(v).toReal();
        row[c] = v;
        acc += v * v;
    }
    return std::sqrt(acc);
}

/** The shared traffic generator (tests/dense_reference.h). */
using dense::randomIface;

/** Field-by-field exact equality of two decoded interface vectors. */
inline void
expectIfaceEqual(const InterfaceVector &a, const InterfaceVector &b)
{
    ASSERT_EQ(a.readKeys.size(), b.readKeys.size());
    for (Index h = 0; h < a.readKeys.size(); ++h)
        EXPECT_TRUE(a.readKeys[h] == b.readKeys[h]);
    EXPECT_EQ(a.readStrengths, b.readStrengths);
    EXPECT_TRUE(a.writeKey == b.writeKey);
    EXPECT_EQ(a.writeStrength, b.writeStrength);
    EXPECT_TRUE(a.eraseVector == b.eraseVector);
    EXPECT_TRUE(a.writeVector == b.writeVector);
    EXPECT_EQ(a.freeGates, b.freeGates);
    EXPECT_EQ(a.allocationGate, b.allocationGate);
    EXPECT_EQ(a.writeGate, b.writeGate);
    ASSERT_EQ(a.readModes.size(), b.readModes.size());
    for (Index h = 0; h < a.readModes.size(); ++h) {
        EXPECT_EQ(a.readModes[h].backward, b.readModes[h].backward);
        EXPECT_EQ(a.readModes[h].content, b.readModes[h].content);
        EXPECT_EQ(a.readModes[h].forward, b.readModes[h].forward);
    }
}

/** One random task token per lane. */
inline std::vector<Vector>
randomBatchInputs(const DncConfig &cfg, Index batch, Rng &rng)
{
    std::vector<Vector> inputs;
    inputs.reserve(batch);
    for (Index b = 0; b < batch; ++b)
        inputs.push_back(rng.normalVector(cfg.inputSize));
    return inputs;
}

/**
 * Assert bit-equality of lane `lane` of the batched engine against its
 * reference Dnc: controller state, memory tile, weightings, linkage and
 * previous reads. Uses the defaulted operator== on Vector/Matrix, i.e.
 * exact double equality — no tolerances anywhere.
 */
inline void
expectLaneStateIdentical(Dnc &ref, const BatchedDnc &engine, Index lane,
                         int step)
{
    SCOPED_TRACE(::testing::Message() << "lane " << lane << " step " << step);
    const MemoryUnit &rm = ref.memory();
    const MemoryUnit &bm = engine.laneMemory(lane);
    EXPECT_TRUE(rm.memory() == bm.memory()) << "memory matrix diverged";
    EXPECT_TRUE(rm.usage() == bm.usage()) << "usage diverged";
    EXPECT_TRUE(rm.rowNorms() == bm.rowNorms()) << "row-norm cache diverged";
    EXPECT_TRUE(rm.writeWeighting() == bm.writeWeighting())
        << "write weighting diverged";
    ASSERT_EQ(rm.readWeightings().size(), bm.readWeightings().size());
    for (Index h = 0; h < rm.readWeightings().size(); ++h)
        EXPECT_TRUE(rm.readWeightings()[h] == bm.readWeightings()[h])
            << "read weighting head " << h << " diverged";
    EXPECT_TRUE(rm.linkage().linkage() == bm.linkage().linkage())
        << "linkage matrix diverged";
    EXPECT_TRUE(rm.linkage().precedence() == bm.linkage().precedence())
        << "precedence diverged";
    EXPECT_TRUE(rm.linkage().rowMass() == bm.linkage().rowMass())
        << "linkage row-mass cache diverged";
    EXPECT_TRUE(ref.controller().lstm().hidden() == engine.laneHidden(lane))
        << "LSTM hidden diverged";
    EXPECT_TRUE(ref.controller().lstm().cell() == engine.laneCell(lane))
        << "LSTM cell diverged";
    ASSERT_EQ(ref.lastReads().size(), engine.laneReads(lane).size());
    for (Index h = 0; h < ref.lastReads().size(); ++h)
        EXPECT_TRUE(ref.lastReads()[h] == engine.laneReads(lane)[h])
            << "read vector head " << h << " diverged";
}

/**
 * Step a BatchedDnc in lockstep with batch independent reference Dnc
 * runs over a deterministic random input stream, asserting per-lane
 * bit-identity of outputs every step and of the full state at every
 * `stateEvery`-th step (and the last).
 *
 * cfg.batchSize/cfg.numThreads are overwritten from the arguments so
 * call sites read naturally.
 */
inline void
runLockstep(DncConfig cfg, Index batch, Index threads, int steps,
            std::uint64_t weightSeed = 1, std::uint64_t inputSeed = 99,
            int stateEvery = 1)
{
    cfg.batchSize = batch;
    cfg.numThreads = threads;
    BatchedDnc engine(cfg, weightSeed);

    DncConfig refCfg = cfg;
    refCfg.batchSize = 1;
    refCfg.numThreads = 1;
    std::vector<std::unique_ptr<Dnc>> refs;
    for (Index b = 0; b < batch; ++b)
        refs.push_back(std::make_unique<Dnc>(refCfg, weightSeed));

    Rng inputRng(inputSeed);
    std::vector<Vector> outputs;
    for (int step = 0; step < steps; ++step) {
        const std::vector<Vector> inputs =
            randomBatchInputs(cfg, batch, inputRng);
        engine.stepInto(inputs, outputs);
        ASSERT_EQ(outputs.size(), batch);
        for (Index b = 0; b < batch; ++b) {
            const Vector refOut = refs[b]->step(inputs[b]);
            ASSERT_TRUE(refOut == outputs[b])
                << "output diverged at lane " << b << " step " << step;
            if (stateEvery > 0 &&
                (step % stateEvery == 0 || step == steps - 1))
                expectLaneStateIdentical(*refs[b], engine, b, step);
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * Randomized admit/evict churn lockstep: the lane-lifecycle analogue of
 * runLockstep(). The engine starts empty; every step boundary randomly
 * releases occupied slots (sometimes via a Draining dwell, so all three
 * lifecycle states are crossed) and admits fresh lanes, each with its
 * own deterministic input stream and a dedicated reference Dnc that is
 * reset at the same boundary. Outputs and full per-lane state must stay
 * bit-identical through arbitrary co-tenant churn.
 *
 * cfg.batchSize/cfg.numThreads are overwritten from the arguments.
 */
inline void
runChurnLockstep(DncConfig cfg, Index capacity, Index threads, int steps,
                 std::uint64_t weightSeed = 1, std::uint64_t churnSeed = 7,
                 std::uint64_t inputSeed = 99)
{
    cfg.batchSize = capacity;
    cfg.numThreads = threads;
    BatchedDnc engine(cfg, weightSeed);
    for (Index slot = 0; slot < capacity; ++slot)
        engine.release(slot); // start from an empty house

    DncConfig refCfg = cfg;
    refCfg.batchSize = 1;
    refCfg.numThreads = 1;
    std::vector<std::unique_ptr<Dnc>> refs;
    std::vector<Rng> laneRngs(capacity, Rng(0));
    for (Index slot = 0; slot < capacity; ++slot)
        refs.push_back(std::make_unique<Dnc>(refCfg, weightSeed));

    Rng churnRng(churnSeed);
    std::uint64_t admissions = 0;
    std::vector<Vector> inputs(capacity);
    std::vector<Vector> outputs;

    for (int step = 0; step < steps; ++step) {
        // Release/drain schedule: every occupied lane flips a coin; a
        // third of the evictions dwell in Draining for this step (state
        // must stay frozen and readable) instead of releasing outright.
        for (Index slot = 0; slot < capacity; ++slot) {
            if (engine.laneState(slot) == LaneState::Draining) {
                engine.release(slot);
            } else if (engine.laneState(slot) == LaneState::Active &&
                       churnRng.uniform() < 0.25) {
                if (churnRng.uniform() < 0.33)
                    engine.markDraining(slot);
                else
                    engine.release(slot);
            }
        }
        // Admission schedule: refill with fresh episodes, each pinned to
        // a per-admission input stream so its reference run can never
        // depend on co-tenants.
        while (engine.freeLanes() > 0 && churnRng.uniform() < 0.7) {
            const Index slot = engine.admit();
            refs[slot]->reset();
            laneRngs[slot] = Rng(inputSeed + 7919 * ++admissions);
        }

        for (Index slot = 0; slot < capacity; ++slot)
            if (engine.laneState(slot) == LaneState::Active)
                inputs[slot] = laneRngs[slot].normalVector(cfg.inputSize);

        engine.stepInto(inputs, outputs);
        ASSERT_EQ(outputs.size(), capacity);

        for (Index slot = 0; slot < capacity; ++slot) {
            if (engine.laneState(slot) != LaneState::Active)
                continue;
            const Vector refOut = refs[slot]->step(inputs[slot]);
            ASSERT_TRUE(refOut == outputs[slot])
                << "output diverged at slot " << slot << " step " << step;
            expectLaneStateIdentical(*refs[slot], engine, slot, step);
        }
        // Draining lanes were not stepped — their frozen state must
        // still match their reference exactly.
        for (Index slot = 0; slot < capacity; ++slot)
            if (engine.laneState(slot) == LaneState::Draining)
                expectLaneStateIdentical(*refs[slot], engine, slot, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(admissions, 0u) << "churn schedule never admitted a lane";
}

} // namespace golden
} // namespace hima

#endif // HIMA_TESTS_GOLDEN_UTIL_H
