/**
 * @file
 * Regenerates Fig. 12:
 *   (a) area and power scalability of HiMA-DNC and HiMA-DNC-D over
 *       Nt in {4, 8, 16, 32};
 *   (b)-(d) speed, area, power and the derived area/energy efficiencies
 *       of HiMA (Nt = 16) against Farm, MANNA, GPU and CPU.
 *
 * HiMA numbers are measured from the engine; Farm/MANNA/GPU/CPU are the
 * published anchors reconstructed in arch/baselines.h.
 * Area is normalized to 40 nm by quadratic feature-size scaling, and
 * speedups are normalized to the GPU exactly as in the paper.
 */

#include <iostream>

#include "arch/baselines.h"
#include "common/table.h"

namespace hima {
namespace {

void
panelA()
{
    std::cout << "Fig. 12(a): area and power scalability (normalized to "
                 "Nt = 4)\n";
    Table table({"Nt", "DNC area", "DNC power", "DNC-D area",
                 "DNC-D power"});
    Real baseArea[2] = {0.0, 0.0};
    Real basePower[2] = {0.0, 0.0};
    for (Index nt : {4, 8, 16, 32}) {
        HimaEngine dnc(himaDncConfig(nt));
        HimaEngine dncd(himaDncDConfig(nt));
        const Real area[2] = {dnc.area().totalMm2, dncd.area().totalMm2};
        const Real power[2] = {dnc.power().totalW, dncd.power().totalW};
        if (baseArea[0] == 0.0) {
            baseArea[0] = area[0];
            baseArea[1] = area[1];
            basePower[0] = power[0];
            basePower[1] = power[1];
        }
        table.addRow({std::to_string(nt),
                      fmtRatio(area[0] / baseArea[0]),
                      fmtRatio(power[0] / basePower[0]),
                      fmtRatio(area[1] / baseArea[1]),
                      fmtRatio(power[1] / basePower[1])});
    }
    table.print(std::cout);
    std::cout << "(paper: DNC power grows super-linearly with Nt; DNC-D "
                 "stays near linear)\n";
}

void
panelBcd()
{
    std::cout << "\nFig. 12(b)-(d): comparison with state-of-the-art "
                 "(Nt = 16; speed normalized to GPU, area/power to "
                 "Farm, 40 nm-equivalent)\n";

    HimaEngine baseEngine(himaBaselineConfig(16));
    HimaEngine dncEngine(himaDncConfig(16));
    ArchConfig dncdCfg = himaDncDConfig(16);
    dncdCfg.dnc.skimRate = 0.2;
    dncdCfg.dnc.approximateSoftmax = true;
    HimaEngine dncdEngine(dncdCfg);

    std::vector<PlatformRecord> records = {
        cpuRecord(),
        gpuRecord(),
        farmRecord(),
        mannaRecord(),
        himaRecord("HiMA-baseline", baseEngine),
        himaRecord("HiMA-DNC", dncEngine),
        himaRecord("HiMA-DNC-D", dncdEngine),
    };

    const PlatformRecord &gpu = records[1];
    const PlatformRecord &farm = records[2];

    Table table({"Design", "us/test", "Speed vs GPU", "Area (norm)",
                 "Power (norm)", "Area eff", "Energy eff", "Max N"});
    for (const PlatformRecord &rec : records) {
        const Real speed = gpu.inferenceUsPerTest / rec.inferenceUsPerTest;
        std::string areaStr = "-", powerStr = "-", areaEff = "-",
                    energyEff = "-";
        if (rec.areaMm2 > 0.0) {
            const Real area = normalizedArea(rec, 40.0) / farm.areaMm2;
            const Real power = rec.powerW / farm.powerW;
            areaStr = fmtRatio(area);
            powerStr = fmtRatio(power);
            // Efficiency = throughput / resource, normalized to Farm.
            const Real farmThroughput = 1.0 / farm.inferenceUsPerTest;
            const Real throughput = 1.0 / rec.inferenceUsPerTest;
            areaEff = fmtRatio((throughput / normalizedArea(rec, 40.0)) /
                               (farmThroughput / farm.areaMm2));
            energyEff = fmtRatio((throughput / rec.powerW) /
                                 (farmThroughput / farm.powerW));
        }
        table.addRow({rec.name, fmtReal(rec.inferenceUsPerTest, 1),
                      fmtRatio(speed, 1), areaStr, powerStr, areaEff,
                      energyEff,
                      rec.memoryRows ? std::to_string(rec.memoryRows)
                                     : "-"});
    }
    table.print(std::cout);

    // The paper's headline ratios against MANNA.
    const PlatformRecord &manna = records[3];
    const PlatformRecord &himaDnc = records[5];
    const PlatformRecord &himaDncd = records[6];
    auto ratios = [&](const PlatformRecord &h) {
        const Real speed = manna.inferenceUsPerTest / h.inferenceUsPerTest;
        const Real areaEff = speed * normalizedArea(manna, 40.0) /
                             normalizedArea(h, 40.0);
        const Real energyEff = speed * manna.powerW / h.powerW;
        std::cout << "  " << h.name << " vs MANNA: speed "
                  << fmtRatio(speed) << ", area eff " << fmtRatio(areaEff)
                  << ", energy eff " << fmtRatio(energyEff) << "\n";
    };
    std::cout << "\nHeadline ratios (paper: HiMA-DNC 6.47x/22.8x/6.1x, "
                 "HiMA-DNC-D 39.1x/164.3x/61.2x):\n";
    ratios(himaDnc);
    ratios(himaDncd);
    std::cout << "Speedup vs GPU (paper: up to 437x DNC, 2646x DNC-D): "
              << fmtRatio(gpu.inferenceUsPerTest /
                          himaDnc.inferenceUsPerTest, 0)
              << " and "
              << fmtRatio(gpu.inferenceUsPerTest /
                          himaDncd.inferenceUsPerTest, 0)
              << "\n";
}

} // namespace
} // namespace hima

int
main()
{
    hima::panelA();
    hima::panelBcd();
    return 0;
}
