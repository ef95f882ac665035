/**
 * @file
 * The dense reference memory unit: a textbook, allocate-per-kernel
 * replica of the DNC memory dataflow (content write weighting, usage,
 * allocation, memory write, linkage, precedence, forward/backward and
 * content reads) with no caches, no skipped rows and no SIMD.
 *
 * Every active-set-sparse path of the library (the fused linkage sweep,
 * the sparse similarity scan, the sparse memory read, the sparse
 * checkpoint frames) must reproduce this model bit for bit at skip
 * threshold 0: the tests assert it, and bench_hot_path and bench_shard
 * refuse to time a build that diverges from it. The accumulation orders
 * are the library's: forward weightings L w sum over ascending columns,
 * backward weightings L^T w over ascending rows, every dot product over
 * ascending words.
 *
 * gtest-free, so the benches include it too, with the randomized
 * interface generator the gates drive it with.
 */

#ifndef HIMA_TESTS_DENSE_REFERENCE_H
#define HIMA_TESTS_DENSE_REFERENCE_H

#include <cmath>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "dnc/memory_unit.h"

namespace hima {
namespace dense {

/** y = m x, each row's dot over ascending columns (forward: L w). */
inline Vector
matVec(const Matrix &m, const Vector &x)
{
    Vector y(m.rows());
    for (Index r = 0; r < m.rows(); ++r) {
        Real acc = 0.0;
        for (Index c = 0; c < m.cols(); ++c)
            acc += m(r, c) * x[c];
        y[r] = acc;
    }
    return y;
}

/** y = m^T x, each output accumulated over ascending rows (backward:
 * L^T w; the memory read: M^T w). */
inline Vector
matTVec(const Matrix &m, const Vector &x)
{
    Vector y(m.cols());
    for (Index r = 0; r < m.rows(); ++r) {
        const Real xv = x[r];
        for (Index c = 0; c < m.cols(); ++c)
            y[c] += m(r, c) * xv;
    }
    return y;
}

/**
 * HR.(1) over the whole matrix: L[i][j] <- (1 - w[i] - w[j]) L[i][j] +
 * w[i] p[j], diagonal zeroed, with p the previous precedence.
 */
inline void
linkageUpdate(Matrix &linkage, const Vector &w, const Vector &precedence)
{
    const Index n = w.size();
    for (Index i = 0; i < n; ++i) {
        const Real wi = w[i];
        for (Index j = 0; j < n; ++j) {
            if (i == j) {
                linkage(i, j) = 0.0;
                continue;
            }
            linkage(i, j) = (1.0 - wi - w[j]) * linkage(i, j)
                          + wi * precedence[j];
        }
    }
}

/** HR.(2): p <- (1 - sum(w)) p + w. */
inline void
precedenceUpdate(Vector &precedence, const Vector &w)
{
    const Real keep = 1.0 - w.sum();
    for (Index i = 0; i < w.size(); ++i)
        precedence[i] = keep * precedence[i] + w[i];
}

/** Each memory row's L2 norm, recomputed from scratch. */
inline Vector
rowNorms(const Matrix &memory)
{
    Vector norms(memory.rows());
    for (Index i = 0; i < memory.rows(); ++i) {
        Real acc = 0.0;
        for (Index c = 0; c < memory.cols(); ++c) {
            const Real v = memory(i, c);
            acc += v * v;
        }
        norms[i] = std::sqrt(acc);
    }
    return norms;
}

/** C(M, k, beta): sharpened cosine scores over every row, softmaxed. */
inline Vector
contentWeighting(const Matrix &memory, const Vector &key, Real strength)
{
    const Vector norms = rowNorms(memory);
    const Real keyNorm = key.norm();
    constexpr Real eps = 1e-6;
    Vector scores(memory.rows());
    for (Index i = 0; i < memory.rows(); ++i) {
        Real acc = 0.0;
        for (Index c = 0; c < memory.cols(); ++c)
            acc += memory(i, c) * key[c];
        scores[i] = strength * acc / (norms[i] * keyNorm + eps);
    }
    return softmax(scores);
}

/** A randomized but valid interface vector (mixed write/read traffic). */
inline InterfaceVector
randomIface(const DncConfig &cfg, Rng &rng)
{
    InterfaceVector iface;
    for (Index h = 0; h < cfg.readHeads; ++h)
        iface.readKeys.push_back(rng.normalVector(cfg.memoryWidth));
    iface.readStrengths.assign(cfg.readHeads, 1.0 + rng.uniform(0.0, 8.0));
    iface.writeKey = rng.normalVector(cfg.memoryWidth);
    iface.writeStrength = 1.0 + rng.uniform(0.0, 8.0);
    iface.eraseVector = rng.uniformVector(cfg.memoryWidth, 0.05, 0.95);
    iface.writeVector = rng.normalVector(cfg.memoryWidth);
    iface.freeGates.assign(cfg.readHeads, rng.uniform(0.0, 0.4));
    iface.allocationGate = rng.uniform();
    iface.writeGate = rng.uniform(0.2, 1.0);
    const Real b = rng.uniform(0.0, 1.0);
    const Real c = rng.uniform(0.0, 1.0 - b);
    iface.readModes.assign(cfg.readHeads, ReadMode{b, c, 1.0 - b - c});
    return iface;
}

/**
 * The memory unit's dataflow, one dense kernel at a time. Covers the
 * exact configuration only: float datapath, exact softmax, no
 * skimming, every skip threshold 0.
 */
struct MemoryUnitSim
{
    explicit MemoryUnitSim(const DncConfig &config)
        : cfg(config), memory(cfg.memoryRows, cfg.memoryWidth),
          usage(cfg.memoryRows), linkage(cfg.memoryRows, cfg.memoryRows),
          precedence(cfg.memoryRows), writeWeighting(cfg.memoryRows),
          readWeightings(cfg.readHeads, Vector(cfg.memoryRows))
    {
        HIMA_ASSERT(!cfg.fixedPoint && !cfg.approximateSoftmax &&
                        cfg.skimRate == 0.0 &&
                        cfg.writeSkipThreshold == 0.0 &&
                        cfg.linkageSkipThreshold == 0.0 &&
                        cfg.readSkipThreshold == 0.0,
                    "the dense reference models the exact configuration "
                    "only");
    }

    /** Zero every state (episode boundary). */
    void
    reset()
    {
        *this = MemoryUnitSim(cfg);
    }

    MemoryReadout
    step(const InterfaceVector &iface)
    {
        const Index n = cfg.memoryRows;
        const Index w = cfg.memoryWidth;

        // CW: content write weighting (norms recomputed from scratch).
        const Vector contentW =
            contentWeighting(memory, iface.writeKey, iface.writeStrength);

        // HW: retention, usage, sort, allocation.
        Vector psi(n, 1.0);
        for (Index r = 0; r < readWeightings.size(); ++r) {
            const Real gate = iface.freeGates[r];
            for (Index i = 0; i < n; ++i)
                psi[i] *= 1.0 - gate * readWeightings[r][i];
        }
        Vector newUsage(n);
        for (Index i = 0; i < n; ++i) {
            const Real u = usage[i];
            const Real wv = writeWeighting[i];
            newUsage[i] = (u + wv - u * wv) * psi[i];
        }
        usage = newUsage;

        std::vector<SortRecord> records;
        records.reserve(n);
        for (Index i = 0; i < n; ++i)
            records.push_back({usage[i], i});
        const SortResult sorted =
            referenceUsageSort(records, SortOrder::Ascending);
        Vector alloc(n, 0.0);
        Real runningProduct = 1.0;
        for (const SortRecord &rec : sorted.records) {
            alloc[rec.idx] = (1.0 - rec.key) * runningProduct;
            runningProduct *= rec.key;
        }

        // WM: gate merge.
        Vector ww(n);
        const Real ga = iface.allocationGate;
        const Real gw = iface.writeGate;
        for (Index i = 0; i < n; ++i)
            ww[i] = gw * (ga * alloc[i] + (1.0 - ga) * contentW[i]);

        // MW: erase + add, row at a time.
        for (Index i = 0; i < n; ++i) {
            const Real wi = ww[i];
            if (wi == 0.0)
                continue;
            for (Index c = 0; c < w; ++c)
                memory(i, c) = memory(i, c) * (1.0 - wi * iface.eraseVector[c])
                             + wi * iface.writeVector[c];
        }

        // HR.(1)-(2): linkage then precedence.
        linkageUpdate(linkage, ww, precedence);
        precedenceUpdate(precedence, ww);
        writeWeighting = ww;

        // CR + HR.(3) + MR per head.
        MemoryReadout out;
        out.writeWeighting = ww;
        for (Index head = 0; head < cfg.readHeads; ++head) {
            const Vector fwd = dense::matVec(linkage, readWeightings[head]);
            const Vector bwd = dense::matTVec(linkage, readWeightings[head]);
            const Vector content = contentWeighting(
                memory, iface.readKeys[head], iface.readStrengths[head]);
            Vector weighting(n);
            const ReadMode &mode = iface.readModes[head];
            for (Index i = 0; i < n; ++i) {
                weighting[i] = mode.backward * bwd[i]
                             + mode.content * content[i]
                             + mode.forward * fwd[i];
            }
            Vector readVector = dense::matTVec(memory, weighting);
            readWeightings[head] = weighting;
            out.readWeightings.push_back(std::move(weighting));
            out.readVectors.push_back(std::move(readVector));
        }
        return out;
    }

    DncConfig cfg;
    Matrix memory;
    Vector usage;
    Matrix linkage;
    Vector precedence;
    Vector writeWeighting;
    std::vector<Vector> readWeightings;
};

/**
 * The first thing in which `unit` and its readout `out` differ from the
 * reference after the same step (exact equality, no tolerance), or
 * nullptr when every bit matches: read vectors, read weightings, write
 * weighting, memory, the row-norm cache, usage, linkage, precedence.
 */
inline const char *
firstMismatch(const MemoryUnitSim &ref, const MemoryReadout &refOut,
              const MemoryUnit &unit, const MemoryReadout &out)
{
    if (out.readVectors.size() != refOut.readVectors.size() ||
        out.readWeightings.size() != refOut.readWeightings.size())
        return "read head count";
    for (Index h = 0; h < refOut.readVectors.size(); ++h) {
        if (!(out.readVectors[h] == refOut.readVectors[h]))
            return "read vector";
        if (!(out.readWeightings[h] == refOut.readWeightings[h]) ||
            !(unit.readWeightings()[h] == ref.readWeightings[h]))
            return "read weighting";
    }
    if (!(out.writeWeighting == refOut.writeWeighting) ||
        !(unit.writeWeighting() == ref.writeWeighting))
        return "write weighting";
    if (!(unit.memory() == ref.memory))
        return "memory";
    if (!(unit.rowNorms() == rowNorms(ref.memory)))
        return "row-norm cache";
    if (!(unit.usage() == ref.usage))
        return "usage";
    if (!(unit.linkage().linkage() == ref.linkage))
        return "linkage";
    if (!(unit.linkage().precedence() == ref.precedence))
        return "precedence";
    return nullptr;
}

} // namespace dense
} // namespace hima

#endif // HIMA_TESTS_DENSE_REFERENCE_H
