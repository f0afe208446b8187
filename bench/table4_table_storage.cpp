/**
 * @file
 * Reproduces paper Table 4: adaptive routing latency under meta-table
 * (maximal and minimal flexibility maps), full-table and economical
 * storage, for uniform / transpose / bit-reversal traffic.
 */

#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "exp/campaign.hpp"

using namespace lapses;

namespace
{

struct Column
{
    const char* label;
    TableKind table;
};

const Column kColumns[] = {
    {"Meta-Tbl Adp.", TableKind::MetaBlockMaximal},
    {"Meta-Tbl Det.", TableKind::MetaRowMinimal},
    {"Full-Tbl", TableKind::Full},
    {"Econ. Storage", TableKind::EconomicalStorage},
};

struct PatternSpec
{
    TrafficKind traffic;
    std::vector<double> loads;
};

} // namespace

int
main()
{
    const BenchMode mode = benchModeFromEnv();
    SimConfig base;
    base.model = RouterModel::LaProud;
    base.routing = RoutingAlgo::DuatoFullyAdaptive;
    base.selector = SelectorKind::StaticXY;
    applyBenchMode(base, mode);

    std::vector<PatternSpec> specs = {
        {TrafficKind::Uniform,
         {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}},
        {TrafficKind::Transpose, {0.1, 0.2, 0.3, 0.4, 0.5}},
        {TrafficKind::BitReversal, {0.1, 0.2, 0.3, 0.4}},
    };
    if (mode == BenchMode::Quick) {
        for (auto& s : specs) {
            std::vector<double> thin;
            for (std::size_t i = 0; i < s.loads.size(); i += 2)
                thin.push_back(s.loads[i]);
            s.loads = thin;
        }
    }

    // One grid per traffic pattern; the table axis yields one series
    // per storage scheme, in kColumns order.
    std::vector<CampaignGrid> grids;
    for (const PatternSpec& spec : specs) {
        CampaignGrid grid;
        grid.base = base;
        grid.base.traffic = spec.traffic;
        for (const Column& col : kColumns)
            grid.axes.tables.push_back(col.table);
        grid.axes.loads = spec.loads;
        grids.push_back(std::move(grid));
    }

    // LAPSES_SHARD=k/M: emit this machine's slice as JSONL instead of
    // the tables (which need every shard's runs) — before anything
    // else touches stdout, which must stay pure records.
    if (runBenchShardFromEnv(grids, "table4"))
        return 0;

    std::printf("=== Table 4: table-storage schemes on a 16x16 mesh "
                "(mode: %s) ===\n",
                enumName(mode).c_str());
    std::printf("LA-PROUD, Duato fully adaptive, static path "
                "selection. \"Sat.\" = network saturated.\n");
    std::printf("The paper folds Full-Tbl and Econ. Storage into one "
                "column because they are identical; both are run here "
                "to demonstrate it.\n\n");

    std::printf("%-10s %-6s", "Traffic", "Load");
    for (const Column& col : kColumns)
        std::printf(" %14s", col.label);
    std::printf("\n");

    CampaignOptions opts;
    opts.jobs = benchJobsFromEnv();
    opts.progress = [](const RunResult& r) {
        std::fprintf(stderr, "[table4] run %zu: %s\n", r.run.index,
                     r.run.config.describe().c_str());
    };
    const std::vector<RunResult> results =
        runCampaign(expandGrids(grids), opts);

    const std::size_t n_cols = std::size(kColumns);
    std::size_t offset = 0;
    for (const PatternSpec& spec : specs) {
        const std::size_t n_loads = spec.loads.size();
        for (std::size_t i = 0; i < n_loads; ++i) {
            std::printf("%-10s %-6.1f",
                        i == 0 ? enumName(spec.traffic).c_str()
                               : "",
                        spec.loads[i]);
            for (std::size_t c = 0; c < n_cols; ++c) {
                const SimStats& st =
                    results[offset + c * n_loads + i].stats;
                std::printf(" %14s", latencyCell(st).c_str());
            }
            std::printf("\n");
        }
        offset += n_cols * n_loads;
    }
    return 0;
}
