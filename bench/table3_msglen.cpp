/**
 * @file
 * Reproduces paper Table 3: impact of message length on the look-ahead
 * benefit (uniform traffic, normalized load 0.2).
 *
 * Declared as a campaign grid — model x message length, one
 * independent single-load series per cell — so the eight runs execute
 * across all cores (LAPSES_JOBS) and shard across machines
 * (LAPSES_SHARD=k/M) like the other paper grids.
 */

#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "exp/campaign.hpp"

using namespace lapses;

int
main()
{
    const BenchMode mode = benchModeFromEnv();
    SimConfig base;
    base.routing = RoutingAlgo::DuatoFullyAdaptive;
    base.table = TableKind::Full;
    base.selector = SelectorKind::StaticXY;
    base.traffic = TrafficKind::Uniform;
    base.normalizedLoad = 0.2;
    applyBenchMode(base, mode);

    const std::vector<int> lengths = {5, 10, 20, 50};

    // Model outer, message length inner — results[m * lengths + l].
    CampaignGrid grid;
    grid.base = base;
    grid.axes.models = {RouterModel::LaProud, RouterModel::Proud};
    grid.axes.msgLens = lengths;
    std::vector<CampaignGrid> grids = {grid};

    // LAPSES_SHARD=k/M: emit this machine's slice as JSONL instead of
    // the table (which needs every shard's runs).
    if (runBenchShardFromEnv(grids, "table3"))
        return 0;

    CampaignOptions opts;
    opts.jobs = benchJobsFromEnv();
    opts.progress = [](const RunResult& r) {
        std::fprintf(stderr, "[table3] run %zu: %s\n", r.run.index,
                     r.run.config.describe().c_str());
    };
    const std::vector<RunResult> results =
        runCampaign(expandGrids(grids), opts);

    std::printf("=== Table 3: impact of message length (uniform "
                "traffic, load 0.2, mode: %s) ===\n\n",
                enumName(mode).c_str());
    std::printf("%-10s %-12s %-14s %-10s\n", "Mesg. Len", "Look Ahead",
                "No Look Ahead", "% Improv.");

    for (std::size_t i = 0; i < lengths.size(); ++i) {
        const SimStats& st_la = results[i].stats;
        const SimStats& st_nola = results[lengths.size() + i].stats;
        const double improv = 100.0 *
            (st_nola.meanLatency() - st_la.meanLatency()) /
            st_la.meanLatency();
        std::printf("%-10d %-12.1f %-14.1f %-10.1f\n", lengths[i],
                    st_la.meanLatency(), st_nola.meanLatency(),
                    improv);
    }
    std::printf("\nPaper reference: 18.0 / 15.4 / 11.5 / 6.5 %% for "
                "lengths 5 / 10 / 20 / 50.\n");
    return 0;
}
