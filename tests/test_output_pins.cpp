/**
 * @file
 * Output pins: FNV-1a hashes of the bit patterns of fixed MemoryUnit,
 * DncD, Dnc and BatchedDnc episodes, checked against values stored in
 * this file.
 *
 * Every other golden test compares one path with another inside a
 * single binary (sparse against dense, threads against one thread,
 * restored against undisturbed), so a change that moves the bits of
 * every path the same way passes them all. These pins compare the build
 * against stored numbers instead. The hashes were recorded before the
 * linkage sweep gained its next-block prefetch, and the native
 * (-march=native, AVX2 bodies) and portable (HIMA_PORTABLE, scalar
 * bodies) builds must both reproduce them: every kernel body keeps the
 * scalar reference's accumulation order, so the two builds agree bit
 * for bit.
 *
 * The MemoryUnit shapes are chosen so that each reaches a different
 * body of the fused linkage sweep: (1024, 4) and (128, 4) the
 * four-row readQuad4 blocks, (100, 3) the runtime-R fallback, (37, 1)
 * and (64, 2) the compile-time readRow<R>. Each runs at
 * linkageSkipThreshold 0 and at a positive threshold (1e-3, or 1e-2 at
 * the three small shapes, where 1e-3 never changes a skip decision of
 * this stream). The first 20 steps
 * after construction and after the reset are allocation-gated (one-hot
 * writes into fresh slots), so only a few consecutive rows and columns
 * carry linkage mass and the column-sparse bodies run; the mixed traffic
 * that follows touches every column at threshold 0, which switches the
 * sweep to its dense bodies. Further rows turn on one approximation knob
 * each (read skip, write skip, skimming, the PLA softmax) at (128, 4),
 * and one runs an odd width (W=7).
 *
 * The pins go through libm's exp (softmax, LSTM gates) and tanh (LSTM).
 * If a host's libm rounds either differently, the pins fail there: record
 * which function differs rather than loosening the pins. A change that
 * means to move bits updates the table and says why in CHANGES.md; a
 * failing case prints its measured hash in the table's own format.
 */

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dnc/dnc.h"
#include "dnc/dncd.h"
#include "dnc/memory_unit.h"
#include "golden_util.h"
#include "serve/batched_dnc.h"

namespace hima {
namespace {

/** 64-bit FNV-1a over the bit patterns of everything it is fed. */
class Fnv1a
{
  public:
    void
    word(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            hash_ ^= (v >> (8 * b)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    reals(const Real *p, Index n)
    {
        word(n);
        for (Index i = 0; i < n; ++i) {
            std::uint64_t bits;
            std::memcpy(&bits, p + i, sizeof bits);
            word(bits);
        }
    }

    void vec(const Vector &v) { reals(v.data(), v.size()); }
    void mat(const Matrix &m) { reals(m.data(), m.rows() * m.cols()); }

    void
    vecs(const std::vector<Vector> &vs)
    {
        for (const Vector &v : vs)
            vec(v);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** The final recurrent state of one tile. */
void
hashTileState(Fnv1a &h, const MemoryUnit &unit)
{
    h.mat(unit.memory());
    h.mat(unit.linkage().linkage());
    h.vec(unit.linkage().precedence());
    h.vec(unit.usage());
    h.vec(unit.linkage().rowMass());
}

constexpr int kEpisodeSteps = 90;
constexpr int kResetStep = 45;
constexpr int kAllocationSteps = 20; ///< after construction and reset
constexpr int kRestoreSteps[] = {15, 75};

/**
 * One 90-step MemoryUnit episode: a reset at step 45 and a
 * captureState/restoreState round trip into a fresh unit at steps 15 and
 * 75. Hashes every step's read vectors, read weightings and write
 * weighting, then the final memory, linkage, precedence, usage and
 * row-mass cache.
 */
std::uint64_t
memoryUnitEpisodeHash(const DncConfig &cfg, std::uint64_t seed,
                      bool *sawSparse, bool *sawDense)
{
    auto unit = std::make_unique<MemoryUnit>(cfg);
    MemoryTileState snapshot;
    MemoryReadout out;
    Rng rng(seed);
    Fnv1a h;
    for (int step = 0; step < kEpisodeSteps; ++step) {
        if (step == kResetStep)
            unit->reset();
        for (int restoreAt : kRestoreSteps) {
            if (step == restoreAt) {
                unit->captureState(snapshot);
                unit = std::make_unique<MemoryUnit>(cfg);
                unit->restoreState(snapshot);
            }
        }
        InterfaceVector iface = golden::randomIface(cfg, rng);
        if (step % kResetStep < kAllocationSteps) {
            iface.allocationGate = 1.0;
            iface.writeGate = 1.0;
        }
        unit->stepInto(iface, out);
        h.vecs(out.readVectors);
        h.vecs(out.readWeightings);
        h.vec(out.writeWeighting);
        const Index touched = unit->linkage().touchedSlots().size();
        *sawSparse |= touched < cfg.memoryRows;
        *sawDense |= touched == cfg.memoryRows;
    }
    hashTileState(h, *unit);
    return h.value();
}

/** The one approximation knob a pin row turns on beyond its shape. */
enum class Knob
{
    None,
    ReadSkip,      ///< readSkipThreshold 1e-2
    WriteSkip,     ///< writeSkipThreshold 1e-3
    Skim,          ///< skimRate 0.2
    ApproxSoftmax, ///< approximateSoftmax
};

const char *const kKnobNames[] = {"None", "ReadSkip", "WriteSkip", "Skim",
                                  "ApproxSoftmax"};

void
applyKnob(DncConfig &cfg, Knob knob)
{
    switch (knob) {
    case Knob::None: break;
    case Knob::ReadSkip: cfg.readSkipThreshold = 1e-2; break;
    case Knob::WriteSkip: cfg.writeSkipThreshold = 1e-3; break;
    case Knob::Skim: cfg.skimRate = 0.2; break;
    case Knob::ApproxSoftmax: cfg.approximateSoftmax = true; break;
    }
}

struct MemoryUnitPin
{
    Index n;
    Index w;
    Index r;
    Real threshold;
    bool fixedPoint;
    Knob knob;
    std::uint64_t hash;
};

// The knob rows share the (128, 32, 4) shape of the plain rows above
// them, and each of their hashes differs from that plain row's: every
// knob changes the bits of this stream.
// clang-format off
const MemoryUnitPin kMemoryUnitPins[] = {
    {1024, 64, 4, 0.0,  false, Knob::None,          0x0a9d88fa2254d7baull},
    {1024, 64, 4, 1e-3, false, Knob::None,          0xa4b311905c83bd2cull},
    { 128, 32, 4, 0.0,  false, Knob::None,          0x6dfbffdbca87a0feull},
    { 128, 32, 4, 1e-3, false, Knob::None,          0x3468dea2f05c166eull},
    { 128, 32, 4, 0.0,  true,  Knob::None,          0x178f6dab72c40b58ull},
    { 128, 32, 4, 0.0,  false, Knob::ReadSkip,      0x507fe30d58dde1b6ull},
    { 128, 32, 4, 0.0,  false, Knob::WriteSkip,     0xe2f439f1ed198af9ull},
    { 128, 32, 4, 0.0,  false, Knob::Skim,          0xc8f880b733457d08ull},
    { 128, 32, 4, 0.0,  false, Knob::ApproxSoftmax, 0x86b62093f0e7a6beull},
    { 100, 16, 3, 0.0,  false, Knob::None,          0x6ae58cb4a867cfbeull},
    { 100, 16, 3, 1e-2, false, Knob::None,          0x62538efd3731db95ull},
    {  37, 16, 1, 0.0,  false, Knob::None,          0xa1cccd345caf56a4ull},
    {  37, 16, 1, 1e-2, false, Knob::None,          0x5b60c529c04fdb27ull},
    {  64, 16, 2, 0.0,  false, Knob::None,          0xad5695b9d76fe241ull},
    {  64, 16, 2, 1e-2, false, Knob::None,          0x7b181870d130291dull},
    {  48,  7, 2, 0.0,  false, Knob::None,          0x51e23ee662705dacull},
};
// clang-format on

TEST(OutputPins, MemoryUnitEpisodes)
{
    for (const MemoryUnitPin &pin : kMemoryUnitPins) {
        DncConfig cfg;
        cfg.memoryRows = pin.n;
        cfg.memoryWidth = pin.w;
        cfg.readHeads = pin.r;
        cfg.linkageSkipThreshold = pin.threshold;
        cfg.fixedPoint = pin.fixedPoint;
        applyKnob(cfg, pin.knob);
        bool sawSparse = false;
        bool sawDense = false;
        const std::uint64_t got =
            memoryUnitEpisodeHash(cfg, 1000 + pin.n, &sawSparse, &sawDense);
        // The stream must reach the column-sparse bodies, and at
        // threshold 0 the dense ones too.
        EXPECT_TRUE(sawSparse) << "N=" << pin.n;
        if (pin.threshold == 0.0) {
            EXPECT_TRUE(sawDense) << "N=" << pin.n;
        }
        char row[192];
        std::snprintf(row, sizeof row,
                      "{%4zu, %2zu, %zu, %g, %s Knob::%s, 0x%016llxull},",
                      pin.n, pin.w, pin.r, pin.threshold,
                      pin.fixedPoint ? "true," : "false,",
                      kKnobNames[static_cast<int>(pin.knob)],
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, pin.hash) << "measured: " << row;
    }
}

/**
 * A 4-lane N=128 BatchedDnc under admit/release churn (lanes drained,
 * released and re-admitted mid-run, each admission an episode reset):
 * hashes every step's lane states and outputs, then every lane's final
 * tile state.
 */
std::uint64_t
batchedChurnHash()
{
    DncConfig cfg;
    cfg.memoryRows = 128;
    cfg.memoryWidth = 32;
    cfg.readHeads = 4;
    cfg.controllerSize = 64;
    cfg.inputSize = 32;
    cfg.outputSize = 32;
    cfg.batchSize = 4;
    cfg.numThreads = 2;
    BatchedDnc engine(cfg, /*seed=*/5);
    for (Index slot = 0; slot < engine.capacity(); ++slot)
        engine.release(slot);

    Rng churn(17);
    Rng input(23);
    std::vector<Vector> inputs(engine.capacity());
    std::vector<Vector> outputs;
    Fnv1a h;
    for (int step = 0; step < 60; ++step) {
        for (Index slot = 0; slot < engine.capacity(); ++slot) {
            if (engine.laneState(slot) == LaneState::Draining)
                engine.release(slot);
            else if (engine.laneState(slot) == LaneState::Active &&
                     churn.uniform() < 0.1) {
                if (churn.uniform() < 0.33)
                    engine.markDraining(slot);
                else
                    engine.release(slot);
            }
        }
        while (engine.freeLanes() > 0 && churn.uniform() < 0.7)
            h.word(engine.admit());
        for (Index slot = 0; slot < engine.capacity(); ++slot) {
            h.word(static_cast<std::uint64_t>(engine.laneState(slot)));
            if (engine.laneState(slot) == LaneState::Active)
                inputs[slot] = input.normalVector(cfg.inputSize);
        }
        engine.stepInto(inputs, outputs);
        for (Index slot = 0; slot < engine.capacity(); ++slot)
            if (engine.laneState(slot) == LaneState::Active)
                h.vec(outputs[slot]);
    }
    for (Index slot = 0; slot < engine.capacity(); ++slot) {
        hashTileState(h, engine.laneMemory(slot));
        h.vecs(engine.laneReads(slot));
    }
    return h.value();
}

TEST(OutputPins, BatchedDncChurn)
{
    const std::uint64_t got = batchedChurnHash();
    EXPECT_EQ(got, 0xbf17d2d23cb0f30bull)
        << "measured: 0x" << std::hex << got << "ull";
}

/**
 * A 60-step DNC-D episode over 4 tiles of N=256 (64 rows each) with the
 * confidence merge, reset at step 30: the first 12 steps after
 * construction and after the reset are allocation-gated, so the
 * confidence scorer (tileConfidenceScore) runs over tiles holding
 * never-written rows. Hashes every step's merged read vectors and
 * weightings and the merge alphas, then every tile's final state.
 */
std::uint64_t
dncdEpisodeHash()
{
    DncConfig cfg;
    cfg.memoryRows = 256;
    cfg.memoryWidth = 16;
    cfg.readHeads = 2;
    DncD dncd(cfg, /*tiles=*/4);
    Rng rng(31);
    MemoryReadout out;
    Fnv1a h;
    for (int step = 0; step < 60; ++step) {
        if (step == 30)
            dncd.reset();
        InterfaceVector iface = golden::randomIface(cfg, rng);
        if (step % 30 < 12) {
            iface.allocationGate = 1.0;
            iface.writeGate = 1.0;
        }
        dncd.stepInterfaceInto(iface, out);
        h.vecs(out.readVectors);
        h.vecs(out.readWeightings);
        h.vec(out.writeWeighting);
        for (const std::vector<Real> &alphas : dncd.lastAlphas())
            h.reals(alphas.data(), alphas.size());
    }
    for (Index t = 0; t < dncd.tiles(); ++t)
        hashTileState(h, dncd.shard(t));
    return h.value();
}

TEST(OutputPins, DncDEpisode)
{
    const std::uint64_t got = dncdEpisodeHash();
    EXPECT_EQ(got, 0xa30590df1435fffeull) << "measured: 0x" << std::hex << got << "ull";
}

/**
 * A 60-step full DNC episode (LSTM controller, interface, memory unit,
 * output head) at N=64, W=16, R=2, reset at step 30: hashes every
 * step's output and read vectors, then the final tile state.
 */
std::uint64_t
dncEpisodeHash()
{
    DncConfig cfg;
    cfg.memoryRows = 64;
    cfg.memoryWidth = 16;
    cfg.readHeads = 2;
    cfg.controllerSize = 32;
    cfg.inputSize = 8;
    cfg.outputSize = 8;
    Dnc dnc(cfg, /*seed=*/3);
    Rng input(41);
    Fnv1a h;
    for (int step = 0; step < 60; ++step) {
        if (step == 30)
            dnc.reset();
        h.vec(dnc.step(input.normalVector(cfg.inputSize)));
        h.vecs(dnc.lastReads());
    }
    hashTileState(h, dnc.memory());
    return h.value();
}

TEST(OutputPins, DncEpisode)
{
    const std::uint64_t got = dncEpisodeHash();
    EXPECT_EQ(got, 0x228d2000a4fc25d2ull) << "measured: 0x" << std::hex << got << "ull";
}

} // namespace
} // namespace hima
