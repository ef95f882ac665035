/**
 * @file
 * Regenerates Fig. 4: kernel runtime breakdown of DNC inference on a CPU
 * and a GPU for the bAbI-style workload (N x W = 1024 x 64, 1-layer LSTM
 * of 256).
 *
 * CPU series: a *real measurement* — the functional DNC runs on this
 * host with per-kernel wall-clock timers.
 *
 * GPU series: the analytic parallel-processor model of
 * arch/baselines.h, driven by the same measured op counts (no GPU is
 * available offline).
 *
 * Paper reference points: GPU breakdown 72% HistWr / 9% HistRd /
 * 12% Content / 4% Mem / 3% NN; CPU 10% / 4% / 22% / 53% / 11%-ish with
 * memory unit > 95% on both platforms.
 */

#include <iostream>

#include "arch/baselines.h"
#include "common/table.h"
#include "dnc/dnc.h"

namespace hima {
namespace {

void
run()
{
    std::cout << "Fig. 4: DNC kernel runtime breakdown on CPU (measured) "
                 "and GPU (modeled)\n";

    DncConfig cfg; // paper evaluation point
    Dnc dnc(cfg, 1);
    Rng input(3);

    const int steps = 4;
    for (int i = 0; i < steps; ++i)
        dnc.step(input.normalVector(cfg.inputSize));
    const KernelProfiler &prof = dnc.profiler();

    // CPU: measured nanoseconds per category.
    Real cpuTotal = 0.0;
    Real cpuCat[static_cast<int>(KernelCategory::NumCategories)] = {};
    for (int c = 0; c < static_cast<int>(KernelCategory::NumCategories);
         ++c) {
        cpuCat[c] = static_cast<Real>(
            prof.categoryTotal(static_cast<KernelCategory>(c))
                .nanoseconds);
        cpuTotal += cpuCat[c];
    }

    // GPU: analytic model on the same op counts.
    GpuKernelModel gpu;
    const auto gpuSecs = gpu.categorySeconds(prof);
    Real gpuTotal = 0.0;
    for (Real s : gpuSecs)
        gpuTotal += s;

    Table table({"Category", "GPU share", "GPU ms/test", "CPU share",
                 "Paper GPU", "Paper CPU"});
    const Real paperGpu[] = {0.12, 0.04, 0.72, 0.09, 0.03};
    const Real paperCpu[] = {0.22, 0.53, 0.10, 0.04, 0.11};
    for (int c = 0; c < static_cast<int>(KernelCategory::NumCategories);
         ++c) {
        const auto cat = static_cast<KernelCategory>(c);
        table.addRow({categoryName(cat),
                      fmtPercent(gpuSecs[c] / gpuTotal),
                      fmtReal(gpuSecs[c] * 1e3 / steps, 3),
                      fmtPercent(cpuCat[c] / cpuTotal),
                      fmtPercent(paperGpu[c]), fmtPercent(paperCpu[c])});
    }
    table.print(std::cout);

    const Real memUnitCpu = 1.0 -
        cpuCat[static_cast<int>(KernelCategory::Nn)] / cpuTotal;
    const Real memUnitGpu = 1.0 -
        gpuSecs[static_cast<int>(KernelCategory::Nn)] / gpuTotal;
    std::cout << "\nMemory unit share of runtime: CPU "
              << fmtPercent(memUnitCpu) << ", GPU "
              << fmtPercent(memUnitGpu)
              << " (paper: >95% on both platforms)\n";
    std::cout << "Modeled GPU inference: "
              << fmtReal(gpuTotal * 1e3 / steps, 2)
              << " ms/test (paper: 5.16 ms/test)\n";
}

} // namespace
} // namespace hima

int
main()
{
    hima::run();
    return 0;
}
