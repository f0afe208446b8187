/**
 * @file
 * Path-selection playoff: a compact version of the paper's Section 4
 * study. Runs all seven selection policies (the paper's five plus
 * RANDOM and FIRST-FREE) on one non-uniform operating point and ranks
 * them, printing the per-policy latency distribution tails that the
 * averages in Fig. 6 hide.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/lapses.hpp"

int
main()
{
    using namespace lapses;

    const SelectorKind kinds[] = {
        SelectorKind::StaticXY, SelectorKind::FirstFree,
        SelectorKind::Random,   SelectorKind::MinMux,
        SelectorKind::Lfu,      SelectorKind::Lru,
        SelectorKind::MaxCredit,
    };

    std::printf("Path-selection playoff: bit-reversal traffic, "
                "load 0.35, 16x16 mesh\n");
    std::printf("================================================="
                "=====\n\n");

    struct Row
    {
        std::string name;
        SimStats stats;
    };
    std::vector<Row> rows;

    for (SelectorKind kind : kinds) {
        SimConfig cfg;
        cfg.model = RouterModel::LaProud;
        cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
        cfg.table = TableKind::EconomicalStorage;
        cfg.selector = kind;
        cfg.traffic = TrafficKind::BitReversal;
        cfg.normalizedLoad = 0.35;
        cfg.warmupMessages = 400;
        cfg.measureMessages = 5000;
        std::fprintf(stderr, "running %s ...\n",
                     enumName(kind).c_str());
        Simulation sim(cfg);
        rows.push_back({enumName(kind), sim.run()});
    }

    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) {
                  if (a.stats.saturated != b.stats.saturated)
                      return !a.stats.saturated;
                  return a.stats.meanLatency() < b.stats.meanLatency();
              });

    std::printf("%-4s %-12s %10s %10s %10s %10s\n", "Rank", "Policy",
                "mean", "p50", "p95", "p99");
    int rank = 1;
    for (const Row& row : rows) {
        if (row.stats.saturated) {
            std::printf("%-4d %-12s %10s\n", rank++, row.name.c_str(),
                        "Sat.");
            continue;
        }
        std::printf("%-4d %-12s %10.1f %10.1f %10.1f %10.1f\n", rank++,
                    row.name.c_str(), row.stats.meanLatency(),
                    row.stats.latencyHist.percentile(0.50),
                    row.stats.latencyHist.percentile(0.95),
                    row.stats.latencyHist.percentile(0.99));
    }

    std::printf("\nThe paper's proposed policies (LRU, LFU, "
                "MAX-CREDIT) should occupy the top ranks; STATIC-XY "
                "pays heavily in the tail.\n");
    return 0;
}
