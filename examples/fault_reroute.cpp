/**
 * @file
 * Fault-tolerance scenario from the paper's Section 1 motivation: "the
 * ability to use alternate paths improves fault-tolerance properties
 * of the network".
 *
 * PR 5 made faults *dynamic*: links die while traffic is in flight,
 * in-flight messages the dying wire cuts are reinjected at their
 * source, and after a reconfiguration-latency window the full routing
 * tables are reprogrammed onto shortest surviving paths
 * (src/fault/fault_schedule.hpp). This example is the degraded-network
 * campaign: a faults=0,1,2,4 axis on an 8x8 mesh, every fault site
 * derived from the run seed, executed on the campaign engine — so it
 * parallelizes across cores (LAPSES_JOBS) and shards across machines
 * (LAPSES_SHARD=k/M emits this machine's slice as JSONL for
 * lapses-merge) exactly like the paper benches.
 *
 * The table contrasts full-table routing (online reprogramming routes
 * around every failure: no messages lost after reconfiguration) with
 * economical storage (candidates are a pure function of the sign
 * vector, so it cannot be reprogrammed: messages whose surviving
 * candidates all face dead links are dropped) — Table 5's flexibility
 * trade-off, now paid under live faults.
 */

#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "core/lapses.hpp"
#include "exp/campaign.hpp"

namespace
{

using namespace lapses;

constexpr int kFaultCounts[] = {0, 1, 2, 4};

SimConfig
faultBase(TableKind table)
{
    SimConfig cfg;
    cfg.radices = {8, 8};
    cfg.table = table;
    cfg.selector = SelectorKind::MaxCredit;
    cfg.normalizedLoad = 0.25;
    cfg.msgLen = 8;
    cfg.warmupMessages = 400;
    cfg.measureMessages = 4000;
    // Faults land inside the measurement window of a quick run.
    cfg.faultStart = 1200;
    cfg.faultSpacing = 600;
    cfg.reconfigLatency = 200;
    cfg.faultPolicy = FaultPolicy::Reinject;
    return cfg;
}

/** One grid per table kind, sweeping the faults axis; run 4*t + f is
 *  table t at kFaultCounts[f]. */
std::vector<CampaignGrid>
faultGrids()
{
    std::vector<CampaignGrid> grids;
    for (TableKind table :
         {TableKind::Full, TableKind::EconomicalStorage}) {
        CampaignGrid grid;
        grid.base = faultBase(table);
        grid.axes.faultCounts.assign(std::begin(kFaultCounts),
                                     std::end(kFaultCounts));
        grid.campaignSeed = 5;
        grids.push_back(std::move(grid));
    }
    return grids;
}

} // namespace

int
main()
{
    using namespace lapses;

    const std::vector<CampaignGrid> grids = faultGrids();

    // LAPSES_SHARD=k/M: emit this machine's slice as JSONL instead of
    // the table (which needs every shard's runs).
    if (runBenchShardFromEnv(grids, "fault_reroute"))
        return 0;

    CampaignOptions opts;
    opts.jobs = benchJobsFromEnv();
    const std::vector<RunResult> results =
        runCampaign(expandGrids(grids), opts);

    std::printf("Live link failures on an 8x8 mesh (reinject policy, "
                "reconfig latency 200)\n");
    std::printf("====================================================="
                "==================\n\n");
    std::printf("%-20s %6s %9s %9s %9s %9s %9s\n", "table", "faults",
                "latency", "rerouted", "reinject", "dropped",
                "post-fault");

    for (const RunResult& r : results) {
        const SimStats& s = r.stats;
        char post[16] = "-";
        if (s.postFaultLatency.count() > 0) {
            std::snprintf(post, sizeof(post), "%.1f",
                          s.postFaultLatency.mean());
        }
        std::printf("%-20s %6d %9s %9llu %9llu %9llu %9s\n",
                    enumName(r.run.config.table).c_str(),
                    r.run.config.faultCount,
                    latencyCell(s).c_str(),
                    static_cast<unsigned long long>(s.reroutedHeads),
                    static_cast<unsigned long long>(
                        s.reinjectedMessages),
                    static_cast<unsigned long long>(s.droppedMessages),
                    post);
    }

    std::printf(
        "\nFull tables reprogram around every failure (drops stay 0: "
        "cut messages are\nreinjected and re-routed); economical "
        "storage cannot express fault-aware\nentries, so messages "
        "whose candidates all face dead links are dropped --\nthe "
        "flexibility cost in Table 5's trade-off, paid only when "
        "links fail.\n");
    return 0;
}
