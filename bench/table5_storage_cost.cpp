/**
 * @file
 * Reproduces paper Table 5: routing-table storage cost and router
 * properties across full-table, meta-table, interval and economical
 * storage, with concrete sizes for representative networks (including
 * the T3D example of Section 5.2.1).
 */

#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "exp/campaign.hpp"
#include "routing/algorithm_factory.hpp"
#include "tables/interval_table.hpp"
#include "tables/storage_cost.hpp"

using namespace lapses;

namespace
{

void
printNetworkCosts(const Topology& topo, const char* label,
                  TableFeatures f)
{
    // Two-level meta table with radix(0)-node clusters (one row per
    // cluster on the square meshes).
    const StorageCost costs[] = {
        fullTableCost(topo, f),
        metaTableCost(topo, topo.mesh()->radix(0), f),
        intervalCost(topo),
        economicalStorageCost(topo, f),
    };
    std::printf("--- %s (%d nodes, %d-D%s) ---\n", label,
                topo.numNodes(), topo.mesh()->dims(),
                f.lookahead ? ", look-ahead" : "");
    std::printf("%-20s %10s %10s %12s  %s\n", "Scheme", "Entries",
                "Bits/entry", "Bits/router", "Index hardware");
    for (const StorageCost& c : costs) {
        std::printf("%-20s %10zu %10d %12zu  %s\n", c.scheme.c_str(),
                    c.entriesPerRouter, c.bitsPerEntry,
                    c.bitsPerRouter(), c.indexHardware.c_str());
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    // Cost vs measured performance: one campaign grid over the
    // adaptive-capable schemes (interval routing is
    // deterministic-only) on the study mesh, uniform load 0.2. The
    // paper's point is the last column: orders of magnitude less
    // storage at equal latency.
    const BenchMode mode = benchModeFromEnv();
    SimConfig base;
    base.model = RouterModel::LaProud;
    base.routing = RoutingAlgo::DuatoFullyAdaptive;
    base.selector = SelectorKind::StaticXY;
    base.traffic = TrafficKind::Uniform;
    base.normalizedLoad = 0.2;
    applyBenchMode(base, mode);

    const std::vector<TableKind> kinds = {
        TableKind::Full, TableKind::MetaBlockMaximal,
        TableKind::MetaRowMinimal, TableKind::EconomicalStorage};

    CampaignGrid grid;
    grid.base = base;
    grid.axes.tables = kinds;
    std::vector<CampaignGrid> grids = {grid};

    // LAPSES_SHARD=k/M: emit this machine's slice as JSONL instead of
    // the tables (which need every shard's runs) — before anything
    // else touches stdout, which must stay pure records.
    if (runBenchShardFromEnv(grids, "table5"))
        return 0;

    std::printf("=== Table 5: table-storage schemes, properties and "
                "sizes ===\n\n");

    // Qualitative summary (the paper's Table 5 rows).
    std::printf("%-14s %-12s %-14s %-12s %-20s\n", "Property",
                "Full-Table", "2-Lvl Meta", "Interval",
                "Econ. Storage");
    std::printf("%-14s %-12s %-14s %-12s %-20s\n", "Table Size", "2^N",
                "2*2^(N/2)", "#ports", "9 (2-D) / 27 (3-D)");
    std::printf("%-14s %-12s %-14s %-12s %-20s\n", "Scalability",
                "Poor", "Better", "Great", "Great");
    std::printf("%-14s %-12s %-14s %-12s %-20s\n", "Adaptivity", "Yes",
                "Yes (limit.)", "Not-direct", "Yes");
    std::printf("%-14s %-12s %-14s %-12s %-20s\n", "Topology",
                "Arbitrary", "Fairly Arbit.", "Arbitrary",
                "Meshes/Tori");
    std::printf("%-14s %-12s %-14s %-12s %-20s\n", "Commercial",
                "T3D,T3E,S3.mp", "SPIDER,SrvNet", "C-104",
                "None (proposed)");
    std::printf("\n");

    // Concrete sizes: the paper's 16x16 study network...
    const Topology mesh16 = makeSquareMesh(16);
    printNetworkCosts(mesh16, "16x16 study mesh", {true, false});
    printNetworkCosts(mesh16, "16x16 study mesh", {true, true});

    // ... and the Cray T3D example: 2048-entry table -> 27 entries.
    const Topology t3d = makeMeshTopology({16, 16, 8}, false);
    printNetworkCosts(t3d, "Cray T3D-scale 3-D mesh", {true, false});

    // Measured interval counts (interval routing stores per-port
    // label ranges; show the real worst case, not just #ports).
    const RoutingAlgorithmPtr yx =
        makeRoutingAlgorithm(RoutingAlgo::DeterministicYX, mesh16);
    const IntervalTable itable(mesh16, *yx);
    std::printf("Measured interval-table worst case on 16x16 with YX "
                "routing: %zu intervals/router\n",
                itable.entriesPerRouter());

    std::printf("\nEconomical storage keeps full adaptive "
                "programmability at 9 entries -- %zux smaller than the "
                "full table on the study mesh.\n",
                fullTableCost(mesh16, {true, false}).entriesPerRouter /
                    economicalStorageCost(mesh16, {true, false})
                        .entriesPerRouter);

    CampaignOptions opts;
    opts.jobs = benchJobsFromEnv();
    opts.progress = [](const RunResult& r) {
        std::fprintf(stderr, "[table5] run %zu: %s\n", r.run.index,
                     r.run.config.describe().c_str());
    };
    const std::vector<RunResult> results =
        runCampaign(expandGrids(grids), opts);

    // Costs for the measured router: adaptive + look-ahead (LA-PROUD).
    const TableFeatures la{true, true};
    const StorageCost kind_costs[] = {
        fullTableCost(mesh16, la),
        metaTableCost(mesh16, mesh16.mesh()->radix(0), la),
        metaTableCost(mesh16, mesh16.mesh()->radix(0), la),
        economicalStorageCost(mesh16, la),
    };
    std::printf("\n--- Storage cost vs measured latency (16x16, "
                "uniform 0.2, mode: %s) ---\n",
                enumName(mode).c_str());
    std::printf("%-20s %12s %12s\n", "Scheme", "Bits/router",
                "Latency");
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        std::printf("%-20s %12zu %12s\n",
                    enumName(kinds[i]).c_str(),
                    kind_costs[i].bitsPerRouter(),
                    latencyCell(results[i].stats).c_str());
    }
    return 0;
}
