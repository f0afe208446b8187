/**
 * @file
 * Evidence for the paper's Table 4 explanation: "this behavior occurs
 * because of large link contention at the links at cluster boundaries"
 * (Section 5.2.2).
 *
 * Runs transpose traffic under the maximal-flexibility meta-table and
 * under economical storage, then compares the utilization of links
 * that cross 4x4 cluster boundaries against interior links. The
 * meta-table run should show boundary links far hotter than interior
 * ones; ES should spread the load.
 *
 * The (table x load) scenario is also declared as a campaign grid:
 * LAPSES_SHARD=k/M executes one machine's slice of the grid and emits
 * it as JSONL for lapses-merge (standard latency/throughput records;
 * the bespoke per-link utilization table below needs direct router
 * access and renders only in unsharded runs).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "core/lapses.hpp"
#include "exp/campaign.hpp"

namespace
{

using namespace lapses;

SimConfig
boundaryConfig(TableKind table, double load)
{
    SimConfig cfg;
    cfg.model = RouterModel::LaProud;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = table;
    cfg.traffic = TrafficKind::Transpose;
    cfg.normalizedLoad = load;
    cfg.warmupMessages = 300;
    cfg.measureMessages = 4000;
    cfg.latencySatCutoff = 1e9; // observe the congestion, don't stop
    cfg.backlogSatPerNode = 1e9;
    cfg.maxCycles = 150000;
    return cfg;
}

/** The campaign-grid form of the scenario: both table schemes across a
 *  small load ramp around the bespoke measurement's 0.2 point. */
std::vector<CampaignGrid>
boundaryGrids()
{
    CampaignGrid grid;
    grid.base = boundaryConfig(TableKind::EconomicalStorage, 0.2);
    grid.axes.tables = {TableKind::EconomicalStorage,
                        TableKind::MetaBlockMaximal};
    grid.axes.loads = {0.1, 0.2, 0.3};
    return {grid};
}

struct LinkStats
{
    double meanInterior = 0.0;
    double meanBoundary = 0.0;
    double maxBoundary = 0.0;
    double maxInterior = 0.0;
};

/** Utilization (flits/cycle) of boundary vs interior mesh links. */
LinkStats
measure(TableKind table, double load)
{
    Simulation sim(boundaryConfig(table, load));
    (void)sim.run();

    const Topology& topo = sim.topology();
    const ClusterMap map = ClusterMap::blockMap(topo, 4);
    const double cycles = static_cast<double>(sim.network().now());

    double sum_b = 0.0;
    double sum_i = 0.0;
    int n_b = 0;
    int n_i = 0;
    LinkStats out;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const Router& r = sim.network().router(n);
        for (PortId p = 1; p < topo.numPorts(); ++p) {
            const NodeId peer = topo.neighbor(n, p);
            if (peer == kInvalidNode)
                continue;
            const double util =
                static_cast<double>(r.outputUnit(p).useCount) /
                cycles;
            if (map.clusterOf(n) != map.clusterOf(peer)) {
                sum_b += util;
                ++n_b;
                out.maxBoundary = std::max(out.maxBoundary, util);
            } else {
                sum_i += util;
                ++n_i;
                out.maxInterior = std::max(out.maxInterior, util);
            }
        }
    }
    out.meanBoundary = sum_b / n_b;
    out.meanInterior = sum_i / n_i;
    return out;
}

} // namespace

int
main()
{
    using namespace lapses;

    // LAPSES_SHARD=k/M: run this machine's slice of the (table x load)
    // grid and stream JSONL records for lapses-merge.
    if (runBenchShardFromEnv(boundaryGrids(), "boundary_congestion"))
        return 0;

    std::printf("Cluster-boundary congestion, transpose traffic at "
                "load 0.2 (16x16 mesh, 4x4 clusters)\n");
    std::printf("======================================================"
                "===========\n\n");
    std::printf("%-22s %10s %10s %10s %10s\n", "Table scheme",
                "int.mean", "bnd.mean", "int.max", "bnd.max");
    for (TableKind table :
         {TableKind::EconomicalStorage, TableKind::MetaBlockMaximal}) {
        std::fprintf(stderr, "running %s ...\n",
                     enumName(table).c_str());
        const LinkStats ls = measure(table, 0.2);
        std::printf("%-22s %10.3f %10.3f %10.3f %10.3f\n",
                    enumName(table).c_str(), ls.meanInterior,
                    ls.meanBoundary, ls.maxInterior, ls.maxBoundary);
    }
    std::printf("\nUnits: flits/cycle per unidirectional link. The "
                "meta-table's hottest boundary links should run near "
                "saturation while ES keeps the worst link well below "
                "it -- the Table 4 mechanism, observed directly.\n");
    return 0;
}
