/**
 * @file
 * Regenerates Fig. 10: DNC-D inference error over DNC across the 20-task
 * suite, for Nt in {4, 16, 32} (top panel) and for usage skimming rates
 * K in {0%, 20%, 50%} at Nt = 16 (bottom panel).
 *
 * Metric (the offline stand-in for the paper's bAbI error; see
 * workload/retrieval.h): both models run identical
 * scripted episodes; "error over DNC" is the retrieval error rate of the
 * DNC-D/skimmed configuration minus the monolithic DNC's on the same
 * episodes. The paper's qualitative findings to reproduce: error grows
 * with Nt (below ~6% average at Nt <= 32), K = 20% adds a few percent,
 * K = 50% pushes past 15% on the harder tasks.
 */

#include <iostream>

#include "common/table.h"
#include "workload/task_suite.h"

namespace hima {
namespace {

DncConfig
benchConfig(Real skim = 0.0)
{
    DncConfig cfg;
    // Small enough to create genuine memory pressure (the regime where
    // DNC-D sharding and skimming cost accuracy), large enough for all
    // Nt in the sweep.
    cfg.memoryRows = 256;
    cfg.memoryWidth = 32;
    cfg.readHeads = 2;
    cfg.skimRate = skim;
    return cfg;
}

struct TaskError
{
    Real dnc = 0.0;
    Real variant = 0.0;
};

/** Mean error over episodes for one task on DNC and one DNC-D config. */
TaskError
evaluateTask(const TaskSpec &spec, Index tiles, Real skim,
             std::uint64_t seed, Index pressure = 1)
{
    // `pressure` multiplies the story length: the skimming study needs
    // episodes long enough to exercise allocation under load (otherwise
    // every shard has spare slots and skimming is free by construction).
    TaskSpec scaled = spec;
    scaled.items *= pressure;
    scaled.distractors *= pressure;
    scaled.queries *= pressure;

    DncConfig plainCfg = benchConfig(0.0);
    DncConfig variantCfg = benchConfig(skim);
    if (pressure > 1) {
        // Tighten capacity so the shards actually fill.
        plainCfg.memoryRows = 128;
        variantCfg.memoryRows = 128;
    }
    const Index vocab = 1024;

    TokenCodebook keys(vocab, plainCfg.memoryWidth / 2, 101);
    TokenCodebook values(vocab, plainCfg.memoryWidth / 2, 202);
    InterfaceScripter scripter(plainCfg, keys, values);

    Dnc dnc(plainCfg, 1);
    DncD dncd(variantCfg, tiles);

    Rng rng(seed);
    const int episodes = 3;
    TaskError err;
    for (int e = 0; e < episodes; ++e) {
        const Episode ep = makeEpisode(scaled, vocab, rng);
        err.dnc += runEpisode(dnc, scripter, ep).errorRate();
        err.variant +=
            runEpisodeDistributed(dncd, scripter, ep).errorRate();
    }
    err.dnc /= episodes;
    err.variant /= episodes;
    return err;
}

void
run()
{
    const auto suite = taskSuite();

    std::cout << "Fig. 10 (top): DNC-D error over DNC per task, by tile "
                 "count (N = 256)\n";
    {
        Table table({"Task", "Name", "Nt=4", "Nt=16", "Nt=32"});
        Real avg[3] = {};
        for (const TaskSpec &spec : suite) {
            std::vector<std::string> row = {std::to_string(spec.id),
                                            spec.name};
            const Index tiles[3] = {4, 16, 32};
            for (int t = 0; t < 3; ++t) {
                const TaskError err =
                    evaluateTask(spec, tiles[t], 0.0, 7000 + spec.id);
                const Real over = std::max(0.0, err.variant - err.dnc);
                avg[t] += over;
                row.push_back(fmtPercent(over));
            }
            table.addRow(row);
        }
        table.addRule();
        table.addRow({"avg", "",
                      fmtPercent(avg[0] / suite.size()),
                      fmtPercent(avg[1] / suite.size()),
                      fmtPercent(avg[2] / suite.size())});
        table.print(std::cout);
        std::cout << "(paper: error grows with Nt; average below ~6% for "
                     "Nt <= 32)\n";
    }

    std::cout << "\nFig. 10 (bottom): DNC-D error over DNC with usage "
                 "skimming, Nt = 16\n";
    {
        Table table({"Task", "Name", "K=0%", "K=20%", "K=50%"});
        Real avg[3] = {};
        const Real rates[3] = {0.0, 0.2, 0.5};
        for (const TaskSpec &spec : suite) {
            std::vector<std::string> row = {std::to_string(spec.id),
                                            spec.name};
            for (int k = 0; k < 3; ++k) {
                const TaskError err =
                    evaluateTask(spec, 16, rates[k], 9000 + spec.id, 4);
                const Real over = std::max(0.0, err.variant - err.dnc);
                avg[k] += over;
                row.push_back(fmtPercent(over));
            }
            table.addRow(row);
        }
        table.addRule();
        table.addRow({"avg", "",
                      fmtPercent(avg[0] / suite.size()),
                      fmtPercent(avg[1] / suite.size()),
                      fmtPercent(avg[2] / suite.size())});
        table.print(std::cout);
        std::cout << "(paper: K = 20% adds ~5.8% error at Nt = 16; "
                     "K = 50% exceeds 15% on the harder tasks)\n";
    }
}

} // namespace
} // namespace hima

int
main()
{
    hima::run();
    return 0;
}
