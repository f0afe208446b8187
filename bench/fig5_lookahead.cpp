/**
 * @file
 * Reproduces paper Figure 5: latency of NO-LA-DET, NO-LA-ADAPT and
 * LA-DET relative to LA-ADAPT across normalized load for the four
 * traffic patterns, plus the absolute LA-ADAPT latency table.
 *
 * Scale is controlled by LAPSES_BENCH_MODE=quick|default|paper.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "exp/campaign.hpp"

using namespace lapses;

namespace
{

struct Scheme
{
    const char* label;
    RouterModel model;
    RoutingAlgo routing;
};

// Expansion order of the model x routing axes below: model outer,
// routing inner — the campaign series enumerate exactly this list.
const Scheme kSchemes[] = {
    {"NO LA, DET", RouterModel::Proud, RoutingAlgo::DeterministicXY},
    {"NO LA, ADAPT", RouterModel::Proud,
     RoutingAlgo::DuatoFullyAdaptive},
    {"LA, DET", RouterModel::LaProud, RoutingAlgo::DeterministicXY},
    {"LA, ADAPT", RouterModel::LaProud,
     RoutingAlgo::DuatoFullyAdaptive},
};

struct PatternSpec
{
    TrafficKind traffic;
    std::vector<double> loads; // the paper's x-axis per pattern
};

std::vector<PatternSpec>
patterns(BenchMode mode)
{
    std::vector<PatternSpec> specs = {
        {TrafficKind::Uniform,
         {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}},
        {TrafficKind::Transpose, {0.1, 0.2, 0.3, 0.4}},
        {TrafficKind::BitReversal, {0.1, 0.2, 0.3, 0.4}},
        {TrafficKind::PerfectShuffle, {0.1, 0.2, 0.3, 0.4, 0.5}},
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
    base.table = TableKind::Full;
    base.selector = SelectorKind::StaticXY; // Fig. 5 uses static PS
    applyBenchMode(base, mode);

    // One grid per traffic pattern (the load axes differ); the four
    // schemes are the model x routing cross-product within each grid.
    const std::vector<PatternSpec> specs = patterns(mode);
    std::vector<CampaignGrid> grids;
    for (const PatternSpec& spec : specs) {
        CampaignGrid grid;
        grid.base = base;
        grid.base.traffic = spec.traffic;
        grid.axes.models = {RouterModel::Proud, RouterModel::LaProud};
        grid.axes.routings = {RoutingAlgo::DeterministicXY,
                              RoutingAlgo::DuatoFullyAdaptive};
        grid.axes.loads = spec.loads;
        grids.push_back(std::move(grid));
    }

    // LAPSES_SHARD=k/M: emit this machine's slice as JSONL instead of
    // the tables (which need every shard's runs) — before anything
    // else touches stdout, which must stay pure records.
    if (runBenchShardFromEnv(grids, "fig5"))
        return 0;

    std::printf("=== Figure 5: look-ahead and adaptivity on a 16x16 "
                "mesh (mode: %s) ===\n",
                enumName(mode).c_str());
    std::printf("20-flit messages, 4 VCs/PC, Duato adaptive vs "
                "dimension-order XY, static path selection\n\n");

    CampaignOptions opts;
    opts.jobs = benchJobsFromEnv();
    opts.progress = [](const RunResult& r) {
        std::fprintf(stderr, "[fig5] run %zu: %s\n", r.run.index,
                     r.run.config.describe().c_str());
    };
    const std::vector<RunResult> results =
        runCampaign(expandGrids(grids), opts);

    std::size_t offset = 0;
    const std::size_t n_schemes = std::size(kSchemes);
    for (const PatternSpec& spec : specs) {
        const std::size_t n_loads = spec.loads.size();
        auto at = [&](std::size_t scheme,
                      std::size_t load) -> const SimStats& {
            return results[offset + scheme * n_loads + load].stats;
        };

        std::printf("--- %s traffic: %% latency increase over "
                    "LA,ADAPT ---\n",
                    enumName(spec.traffic).c_str());
        std::printf("%-14s", "Load");
        for (double load : spec.loads)
            std::printf("%9.1f", load);
        std::printf("\n");
        for (std::size_t s = 0; s + 1 < n_schemes; ++s) {
            std::printf("%-14s", kSchemes[s].label);
            for (std::size_t i = 0; i < n_loads; ++i) {
                const SimStats& ref = at(3, i);
                const SimStats& cur = at(s, i);
                if (ref.saturated || cur.saturated) {
                    std::printf("%9s", cur.saturated ? "Sat." : "-");
                } else {
                    const double pct = 100.0 *
                        (cur.meanLatency() - ref.meanLatency()) /
                        ref.meanLatency();
                    std::printf("%8.1f%%", pct);
                }
            }
            std::printf("\n");
        }
        std::printf("%-14s", "LA,ADAPT abs");
        for (std::size_t i = 0; i < n_loads; ++i)
            std::printf("%9s", latencyCell(at(3, i)).c_str());
        std::printf("\n\n");
        offset += n_schemes * n_loads;
    }
    return 0;
}
