/**
 * @file
 * Reproduces paper Figure 6: average latency of the five path-selection
 * heuristics (STATIC-XY, MIN-MUX, LFU, LRU, MAX-CREDIT) versus
 * normalized load for the four traffic patterns.
 */

#include <cstdio>
#include <iterator>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "exp/campaign.hpp"

using namespace lapses;

namespace
{

const SelectorKind kSelectors[] = {
    SelectorKind::StaticXY, SelectorKind::MinMux, SelectorKind::Lfu,
    SelectorKind::Lru, SelectorKind::MaxCredit,
};

struct PatternSpec
{
    TrafficKind traffic;
    std::vector<double> loads;
};

std::vector<PatternSpec>
patterns(BenchMode mode)
{
    std::vector<PatternSpec> specs = {
        {TrafficKind::Uniform,
         {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}},
        {TrafficKind::Transpose,
         {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}},
        {TrafficKind::BitReversal,
         {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}},
        {TrafficKind::PerfectShuffle, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}},
    };
    if (mode == BenchMode::Quick) {
        for (auto& s : specs) {
            std::vector<double> thin;
            for (std::size_t i = 0; i < s.loads.size(); i += 2)
                thin.push_back(s.loads[i]);
            s.loads = thin;
        }
    }
    return specs;
}

} // namespace

int
main()
{
    const BenchMode mode = benchModeFromEnv();
    SimConfig base;
    base.model = RouterModel::LaProud;
    base.routing = RoutingAlgo::DuatoFullyAdaptive;
    base.table = TableKind::Full;
    applyBenchMode(base, mode);

    // One grid per traffic pattern; the selector axis gives one series
    // per heuristic, all sweeping that pattern's load axis in parallel.
    const std::vector<PatternSpec> specs = patterns(mode);
    std::vector<CampaignGrid> grids;
    for (const PatternSpec& spec : specs) {
        CampaignGrid grid;
        grid.base = base;
        grid.base.traffic = spec.traffic;
        grid.axes.selectors.assign(std::begin(kSelectors),
                                   std::end(kSelectors));
        grid.axes.loads = spec.loads;
        grids.push_back(std::move(grid));
    }

    // LAPSES_SHARD=k/M: emit this machine's slice as JSONL instead of
    // the tables (which need every shard's runs) — before anything
    // else touches stdout, which must stay pure records.
    if (runBenchShardFromEnv(grids, "fig6"))
        return 0;

    std::printf("=== Figure 6: path-selection heuristics on a 16x16 "
                "mesh (mode: %s) ===\n",
                enumName(mode).c_str());
    std::printf("LA-PROUD, Duato fully adaptive, 20-flit messages\n\n");

    CampaignOptions opts;
    opts.jobs = benchJobsFromEnv();
    opts.progress = [](const RunResult& r) {
        std::fprintf(stderr, "[fig6] run %zu: %s\n", r.run.index,
                     r.run.config.describe().c_str());
    };
    const std::vector<RunResult> results =
        runCampaign(expandGrids(grids), opts);

    std::size_t offset = 0;
    for (const PatternSpec& spec : specs) {
        const std::size_t n_loads = spec.loads.size();
        std::printf("--- %s traffic: average latency ---\n",
                    enumName(spec.traffic).c_str());
        std::printf("%-12s", "Load");
        for (double load : spec.loads)
            std::printf("%9.1f", load);
        std::printf("\n");
        for (std::size_t s = 0; s < std::size(kSelectors); ++s) {
            std::printf("%-12s",
                        enumName(kSelectors[s]).c_str());
            for (std::size_t i = 0; i < n_loads; ++i) {
                const SimStats& st =
                    results[offset + s * n_loads + i].stats;
                std::printf("%9s", latencyCell(st).c_str());
            }
            std::printf("\n");
        }
        std::printf("\n");
        offset += std::size(kSelectors) * n_loads;
    }
    std::printf("Expected shape (paper): STATIC-XY best for uniform; "
                "LRU/LFU/MAX-CREDIT clearly best for the non-uniform "
                "patterns at medium-high load.\n");
    return 0;
}
