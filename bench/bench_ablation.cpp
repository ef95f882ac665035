/**
 * @file
 * Ablation harness for design choices beyond the paper's own Fig. 11(a)
 * ladder:
 *
 *   1. stream sharing (tree multicast / in-network reduction) on vs off
 *      at the NoC level — the mechanism behind HiMA's broadcast/collect
 *      and psum traffic;
 *   2. router crossbar transit capacity sweep — how fat a router the
 *      hub-style topologies need before they stop congesting;
 *   3. NoC link width sweep on the full engine;
 *   4. linkage partition sweep on the full engine (beyond the optimum).
 */

#include <iostream>

#include "arch/engine.h"
#include "common/table.h"
#include "noc/traffic.h"

namespace hima {
namespace {

void
ablationStreamSharing()
{
    std::cout << "Ablation 1: stream sharing (multicast/reduction) "
                 "on DNC traffic patterns, 16 tiles, 64-word messages\n";
    Table table({"Topology", "bcast uni", "bcast multi", "gather uni",
                 "gather reduce"});
    for (NocKind kind : {NocKind::HTree, NocKind::Mesh, NocKind::Hima}) {
        const Topology topo = Topology::build(kind, 16);
        Network net(topo);
        table.addRow(
            {nocKindName(kind),
             fmtCount(net.run(broadcast(topo, 64, 0), NocMode::Full)
                          .makespan),
             fmtCount(net.run(broadcast(topo, 64, 1), NocMode::Full)
                          .makespan),
             fmtCount(net.run(gather(topo, 64, 0), NocMode::Full)
                          .makespan),
             fmtCount(net.run(gather(topo, 64, 2), NocMode::Full)
                          .makespan)});
    }
    table.print(std::cout);
}

void
ablationRouterCapacity()
{
    std::cout << "\nAblation 2: router transit capacity vs all-to-all "
                 "makespan (16 tiles, 16-flit messages)\n";
    Table table({"Capacity (flits/cyc)", "H-Tree", "Star", "HiMA"});
    for (std::uint64_t cap : {1, 2, 4, 8, 16}) {
        std::vector<std::string> row = {std::to_string(cap)};
        for (NocKind kind : {NocKind::HTree, NocKind::Star,
                             NocKind::Hima}) {
            const Topology topo = Topology::build(kind, 16);
            Network net(topo, cap);
            row.push_back(fmtCount(
                net.run(allToAll(topo, 16), NocMode::Full).makespan));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "(hub topologies need disproportionate crossbar "
                 "bandwidth; the HiMA mesh+diagonals barely care)\n";
}

void
ablationLinkWidth()
{
    std::cout << "\nAblation 3: NoC link width vs HiMA-DNC step latency "
                 "(Nt = 16)\n";
    Table table({"Link (words/flit)", "Cycles/step", "vs 8-word"});
    // Every width's cycle count first: the ratio column needs the
    // 8-word base before any row can be printed.
    const Index widths[] = {1, 2, 4, 8, 16};
    Cycle cycles[std::size(widths)];
    Cycle base = 0;
    for (std::size_t k = 0; k < std::size(widths); ++k) {
        ArchConfig cfg = himaDncConfig(16);
        cfg.linkWords = widths[k];
        HimaEngine engine(cfg);
        cycles[k] = engine.simulateStep().totalCycles;
        if (widths[k] == 8)
            base = cycles[k];
    }
    for (std::size_t k = 0; k < std::size(widths); ++k)
        table.addRow({std::to_string(widths[k]), fmtCount(cycles[k]),
                      fmtRatio(static_cast<Real>(cycles[k]) /
                               static_cast<Real>(base))});
    table.print(std::cout);
}

void
ablationLinkagePartition()
{
    std::cout << "\nAblation 4: linkage partition vs HiMA-DNC step "
                 "latency (Nt = 16)\n";
    Table table({"Partition (Nh x Nw)", "Cycles/step"});
    for (const Partition &p : enumeratePartitions(16)) {
        ArchConfig cfg = himaDncConfig(16);
        cfg.linkPartition = p;
        HimaEngine engine(cfg);
        table.addRow({std::to_string(p.blockRows) + "x" +
                          std::to_string(p.blockCols),
                      fmtCount(engine.simulateStep().totalCycles)});
    }
    table.print(std::cout);
    std::cout << "(the 4x4 optimum of Eq. 3 is also the engine-level "
                 "winner)\n";
}

} // namespace
} // namespace hima

int
main()
{
    hima::ablationStreamSharing();
    hima::ablationRouterCapacity();
    hima::ablationLinkWidth();
    hima::ablationLinkagePartition();
    return 0;
}
