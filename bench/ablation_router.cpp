/**
 * @file
 * Ablation bench for the router design choices DESIGN.md calls out:
 * virtual-channel count, buffer depth, and the escape/adaptive VC
 * split under Duato's protocol. Not a paper figure — this quantifies
 * the sensitivity of the reproduction to its microarchitectural knobs.
 */

#include <cstdio>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "exp/campaign.hpp"

using namespace lapses;

namespace
{

SimConfig
base(BenchMode mode)
{
    SimConfig cfg;
    cfg.model = RouterModel::LaProud;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    cfg.selector = SelectorKind::StaticXY;
    applyBenchMode(cfg, mode);
    if (mode != BenchMode::Paper) {
        // Ablations need less statistical depth than the figures.
        cfg.measureMessages = std::min<std::uint64_t>(
            cfg.measureMessages, 8000);
    }
    return cfg;
}

} // namespace

int
main()
{
    const BenchMode mode = benchModeFromEnv();
    const std::vector<int> vc_counts = {2, 3, 4, 6, 8};
    const std::vector<int> depths = {5, 10, 20, 40};
    const std::vector<int> escapes = {1, 2, 3};
    const std::vector<InjectionKind> injections = {
        InjectionKind::Exponential, InjectionKind::Bernoulli};

    // Every ablation point is an independent single-load series; one
    // campaign of five grids runs them all concurrently.
    std::vector<CampaignGrid> grids;
    {
        CampaignGrid vcs_uniform; // section 1, uniform 0.5 column
        vcs_uniform.base = base(mode);
        vcs_uniform.base.traffic = TrafficKind::Uniform;
        vcs_uniform.base.normalizedLoad = 0.5;
        vcs_uniform.axes.vcCounts = vc_counts;
        grids.push_back(vcs_uniform);

        CampaignGrid vcs_transpose; // section 1, transpose 0.25 column
        vcs_transpose.base = base(mode);
        vcs_transpose.base.traffic = TrafficKind::Transpose;
        vcs_transpose.base.normalizedLoad = 0.25;
        vcs_transpose.axes.vcCounts = vc_counts;
        grids.push_back(vcs_transpose);

        CampaignGrid depth; // section 2
        depth.base = base(mode);
        depth.base.traffic = TrafficKind::Uniform;
        depth.base.normalizedLoad = 0.5;
        depth.axes.bufferDepths = depths;
        grids.push_back(depth);

        CampaignGrid escape; // section 3
        escape.base = base(mode);
        escape.base.traffic = TrafficKind::Transpose;
        escape.base.normalizedLoad = 0.3;
        escape.axes.escapeVcs = escapes;
        grids.push_back(escape);

        CampaignGrid injection; // section 4
        injection.base = base(mode);
        injection.base.traffic = TrafficKind::Uniform;
        injection.base.normalizedLoad = 0.5;
        injection.axes.injections = injections;
        grids.push_back(injection);
    }

    // LAPSES_SHARD=k/M: emit this machine's slice as JSONL instead of
    // the tables (which need every shard's runs) — before anything
    // else touches stdout, which must stay pure records.
    if (runBenchShardFromEnv(grids, "ablation"))
        return 0;

    std::printf("=== Router design ablations (16x16 mesh, mode: %s) "
                "===\n\n",
                enumName(mode).c_str());

    CampaignOptions opts;
    opts.jobs = benchJobsFromEnv();
    opts.progress = [](const RunResult& r) {
        std::fprintf(stderr, "[ablation] run %zu: %s\n", r.run.index,
                     r.run.config.describe().c_str());
    };
    const std::vector<RunResult> results =
        runCampaign(expandGrids(grids), opts);

    std::size_t offset = 0;

    // 1. VC count at fixed buffer budget per port (paper assumes 4).
    std::printf("--- VCs per physical channel (uniform 0.5 / "
                "transpose 0.25, 20-flit buffers) ---\n");
    std::printf("%-6s %12s %12s\n", "VCs", "uniform", "transpose");
    for (std::size_t i = 0; i < vc_counts.size(); ++i) {
        const SimStats& u = results[offset + i].stats;
        const SimStats& t = results[offset + vc_counts.size() + i].stats;
        std::printf("%-6d %12s %12s\n", vc_counts[i],
                    latencyCell(u).c_str(), latencyCell(t).c_str());
    }
    offset += 2 * vc_counts.size();

    // 2. Buffer depth (Table 2 uses 20 flits).
    std::printf("\n--- In/out buffer depth in flits (uniform 0.5) "
                "---\n");
    std::printf("%-8s %12s\n", "Depth", "latency");
    for (std::size_t i = 0; i < depths.size(); ++i) {
        std::printf("%-8d %12s\n", depths[i],
                    latencyCell(results[offset + i].stats).c_str());
    }
    offset += depths.size();

    // 3. Escape/adaptive split of the 4 VCs under Duato's protocol.
    std::printf("\n--- Escape VCs out of 4 (transpose 0.3) ---\n");
    std::printf("%-8s %12s\n", "Escape", "latency");
    for (std::size_t i = 0; i < escapes.size(); ++i) {
        std::printf("%-8d %12s\n", escapes[i],
                    latencyCell(results[offset + i].stats).c_str());
    }
    offset += escapes.size();

    // 4. Injection process (the paper's exponential vs Bernoulli).
    std::printf("\n--- Injection process (uniform 0.5) ---\n");
    for (std::size_t i = 0; i < injections.size(); ++i) {
        std::printf("%-12s %12s\n",
                    enumName(injections[i]).c_str(),
                    latencyCell(results[offset + i].stats).c_str());
    }
    return 0;
}
