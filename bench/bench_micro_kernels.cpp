/**
 * @file
 * google-benchmark microkernels for the primitive operations the paper's
 * kernels decompose into: exact vs PLA+LUT softmax, the sorter family,
 * content addressing, linkage update, forward/backward mat-vec, and a
 * full memory-unit step. These quantify host-side costs of the
 * functional model (the substrate every harness above runs on).
 */

#include <benchmark/benchmark.h>

#include "approx/softmax_approx.h"
#include "common/math_util.h"
#include "common/random.h"
#include "dnc/memory_unit.h"
#include "sort/centralized_sort.h"
#include "sort/two_stage_sort.h"

namespace hima {
namespace {

void
BM_SoftmaxExact(benchmark::State &state)
{
    Rng rng(1);
    const Vector x = rng.normalVector(state.range(0), 0.0, 3.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(softmax(x));
}
BENCHMARK(BM_SoftmaxExact)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_SoftmaxPla(benchmark::State &state)
{
    Rng rng(1);
    SoftmaxApprox approx(8);
    const Vector x = rng.normalVector(state.range(0), 0.0, 3.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(approx.eval(x));
}
BENCHMARK(BM_SoftmaxPla)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_CentralizedSort(benchmark::State &state)
{
    Rng rng(2);
    std::vector<SortRecord> recs(state.range(0));
    for (Index i = 0; i < recs.size(); ++i)
        recs[i] = {rng.uniform(), i};
    CentralizedSorter sorter;
    for (auto _ : state)
        benchmark::DoNotOptimize(sorter.sort(recs, SortOrder::Ascending));
}
BENCHMARK(BM_CentralizedSort)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_TwoStageSort(benchmark::State &state)
{
    Rng rng(3);
    std::vector<SortRecord> recs(state.range(0));
    for (Index i = 0; i < recs.size(); ++i)
        recs[i] = {rng.uniform(), i};
    TwoStageSorter sorter(recs.size(), 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(sorter.sort(recs, SortOrder::Ascending));
}
BENCHMARK(BM_TwoStageSort)->Arg(1024)->Arg(4096);

void
BM_ContentAddressing(benchmark::State &state)
{
    Rng rng(4);
    const Index n = state.range(0);
    const Matrix mem = rng.normalMatrix(n, 64);
    const Vector key = rng.normalVector(64);
    ContentAddressing ca;
    for (auto _ : state)
        benchmark::DoNotOptimize(ca.weighting(mem, key, 5.0));
}
BENCHMARK(BM_ContentAddressing)->Arg(256)->Arg(1024);

void
BM_ContentAddressingCached(benchmark::State &state)
{
    // The allocation-free path with the row-norm cache the MemoryUnit
    // maintains: no per-call norm recompute, no temporaries.
    Rng rng(4);
    const Index n = state.range(0);
    const Matrix mem = rng.normalMatrix(n, 64);
    const Vector key = rng.normalVector(64);
    Vector norms(n);
    for (Index i = 0; i < n; ++i)
        norms[i] = rowNorm(mem, i);
    ContentAddressing ca;
    Vector scores, out;
    for (auto _ : state) {
        ca.weightingInto(mem, key, 5.0, &norms, scores, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_ContentAddressingCached)->Arg(256)->Arg(1024);

/**
 * The fused history sweep (HR.(1) linkage update plus HR.(3) forward and
 * backward reads for every head) and the precedence update, on soft
 * writes that keep every row active. Args: N, read heads.
 */
void
BM_LinkageUpdateAndRead(benchmark::State &state)
{
    const Index n = state.range(0);
    const Index heads = state.range(1);
    TemporalLinkage tl(n);
    Rng rng(5);
    Vector w = rng.uniformVector(n);
    w = scale(w, 1.0 / w.sum());
    std::vector<Vector> reads(heads, w);
    std::vector<Vector> forward, backward;
    for (auto _ : state) {
        tl.updateAndRead(w, reads, forward, backward);
        tl.updatePrecedence(w);
        benchmark::DoNotOptimize(forward[0].data());
        benchmark::DoNotOptimize(backward[0].data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_LinkageUpdateAndRead)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({1024, 1})
    ->Args({1024, 4});

void
BM_MemoryUnitStep(benchmark::State &state)
{
    DncConfig cfg;
    cfg.memoryRows = state.range(0);
    cfg.memoryWidth = 64;
    cfg.readHeads = 4;
    MemoryUnit mu(cfg);
    Rng rng(7);

    InterfaceVector iface;
    iface.readKeys.assign(cfg.readHeads, rng.normalVector(64));
    iface.readStrengths.assign(cfg.readHeads, 5.0);
    iface.writeKey = rng.normalVector(64);
    iface.writeStrength = 5.0;
    iface.eraseVector = Vector(64, 0.5);
    iface.writeVector = rng.normalVector(64);
    iface.freeGates.assign(cfg.readHeads, 0.1);
    iface.allocationGate = 0.9;
    iface.writeGate = 1.0;
    iface.readModes.assign(cfg.readHeads, ReadMode{0.1, 0.8, 0.1});

    for (auto _ : state)
        benchmark::DoNotOptimize(mu.step(iface));
}
BENCHMARK(BM_MemoryUnitStep)->Arg(256)->Arg(1024);

void
BM_MemoryUnitStepInto(benchmark::State &state)
{
    // The zero-steady-state-allocation path: the readout and every
    // temporary are reused across steps.
    DncConfig cfg;
    cfg.memoryRows = state.range(0);
    cfg.memoryWidth = 64;
    cfg.readHeads = 4;
    MemoryUnit mu(cfg);
    Rng rng(7);

    InterfaceVector iface;
    iface.readKeys.assign(cfg.readHeads, rng.normalVector(64));
    iface.readStrengths.assign(cfg.readHeads, 5.0);
    iface.writeKey = rng.normalVector(64);
    iface.writeStrength = 5.0;
    iface.eraseVector = Vector(64, 0.5);
    iface.writeVector = rng.normalVector(64);
    iface.freeGates.assign(cfg.readHeads, 0.1);
    iface.allocationGate = 0.9;
    iface.writeGate = 1.0;
    iface.readModes.assign(cfg.readHeads, ReadMode{0.1, 0.8, 0.1});

    MemoryReadout out;
    for (auto _ : state) {
        mu.stepInto(iface, out);
        benchmark::DoNotOptimize(out.writeWeighting.data());
    }
}
BENCHMARK(BM_MemoryUnitStepInto)->Arg(256)->Arg(1024);

} // namespace
} // namespace hima
