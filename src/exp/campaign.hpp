/**
 * @file
 * Declarative experiment campaigns: a cross-product of configuration
 * axes expanded into independent simulation runs, executed across a
 * thread pool with deterministic per-run seeding.
 *
 * Every result in the paper (Fig. 5/6, Tables 3-5) is such a grid —
 * router model x routing algorithm x table x selector x traffic x
 * load. The engine guarantees that campaign output is byte-identical
 * regardless of --jobs or thread schedule:
 *
 *  - run i's seed is deriveSeed(campaign_seed, i), fixed at expansion
 *    time, so results depend only on the grid, never on the schedule;
 *  - sinks receive results in ascending run-index order through a
 *    reorder buffer, so streamed CSV/JSONL files are stable too.
 *
 * Runs sharing every axis value except load form a *series*. A series
 * executes in ascending-load order on one thread so that once a load
 * saturates, the heavier loads are marked saturated without simulating
 * (the paper prints "Sat." beyond the saturation point); parallelism
 * comes from running many series concurrently.
 */

#ifndef LAPSES_EXP_CAMPAIGN_HPP
#define LAPSES_EXP_CAMPAIGN_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "stats/sim_stats.hpp"

namespace lapses
{

class ResultSink;

/**
 * Value lists for the swept axes. An empty axis means "use the grid's
 * base value" (an axis of one). Each vector is one grid-axis row of
 * the config-field table (exp/config_fields.hpp), whose nesting rank
 * fixes the expansion order; load varies fastest, so consecutive
 * indices of one series walk its load axis.
 */
struct CampaignAxes
{
    std::vector<TopologySpec> topologies;
    std::vector<RouterModel> models;
    std::vector<RoutingAlgo> routings;
    std::vector<TableKind> tables;
    std::vector<SelectorKind> selectors;
    std::vector<TrafficKind> traffics;
    std::vector<int> msgLens;
    std::vector<InjectionKind> injections;
    std::vector<int> vcCounts;
    std::vector<int> bufferDepths;
    std::vector<int> escapeVcs;
    std::vector<int> faultCounts;
    std::vector<std::uint64_t> faultSeeds;
    std::vector<Cycle> telemetryWindows;
    std::vector<WorkloadKind> workloads;
    std::vector<double> loads;

    /** Number of runs the cross-product expands to (>= 1). */
    std::size_t runCount() const;

    /** Runs per series (the load-axis length, >= 1). */
    std::size_t loadsPerSeries() const;
};

/** One fully resolved run of a campaign. */
struct CampaignRun
{
    std::size_t index = 0;  //!< global run index (also the seed stream)
    std::size_t series = 0; //!< id of the all-axes-but-load combination
    SimConfig config;       //!< resolved config, seed included
};

/** A declarative cross-product of simulation runs. */
struct CampaignGrid
{
    /** Template configuration; axis values overwrite its fields. */
    SimConfig base;
    CampaignAxes axes;

    /** Base seed every run seed is derived from. */
    std::uint64_t campaignSeed = 1;

    /**
     * When true (the default) run i gets seed
     * deriveSeed(campaignSeed, i); when false every run keeps
     * base.seed (legacy single-sweep semantics).
     */
    bool deriveSeeds = true;

    /**
     * Expand into runs, validating each config. Offsets shift the
     * global run/series numbering when several grids form one campaign.
     * Throws ConfigError on an invalid combination.
     */
    std::vector<CampaignRun> expand(std::size_t index_offset = 0,
                                    std::size_t series_offset = 0) const;
};

/** Concatenate several grids into one campaign with global numbering. */
std::vector<CampaignRun>
expandGrids(const std::vector<CampaignGrid>& grids);

/** Outcome of one campaign run. */
struct RunResult
{
    CampaignRun run;
    SimStats stats;

    /** False when the run was skipped because --resume found it done. */
    bool executed = true;

    /** True when saturation was inferred from a lighter load in the
     *  same series rather than simulated. */
    bool inferredSaturated = false;
};

/**
 * One machine's slice of a campaign. The campaign's run indices are
 * dealt round-robin over `count` weight units; a shard owns `weight`
 * consecutive units starting at `index`, i.e. the run indices i with
 * i % count in [index, index + weight). With weight 1 this is the
 * classic "shard k of M" split; heterogeneous hosts agree on a total
 * unit count M and take proportional unit ranges (CLI "k/M:w" — e.g. a
 * 3x-faster host takes --shard 1/4:3, its slower peer --shard 4/4:1).
 * Global run indices and the deriveSeed(campaign_seed, i) scheme are
 * untouched, so a shard's output records are byte-for-byte the lines
 * the unsharded campaign would have written for those indices, and
 * lapses-merge reassembles the canonical file from any set of shard
 * files that covers the grid exactly once.
 */
struct ShardSpec
{
    std::size_t index = 0;  //!< first owned unit (CLI "k/M:w" is 1-based)
    std::size_t count = 1;  //!< total weight units; 1 = whole campaign
    std::size_t weight = 1; //!< consecutive units this shard owns

    /** Does this shard execute (and emit) run index i? */
    bool
    owns(std::size_t run_index) const
    {
        const std::size_t unit = run_index % count;
        return unit >= index && unit < index + weight;
    }

    /** True for the degenerate whole-campaign shard. */
    bool
    isAll() const
    {
        return count == 1 || weight == count;
    }

    /** Throws ConfigError unless 1 <= weight, index + weight <= count. */
    void validate() const;

    /** CLI form with 1-based numbering, e.g. "1/3" or "2/4:3". */
    std::string str() const;
};

/**
 * Parse the CLI form "k/M" or "k/M:w" (1-based k; w weight units, 1
 * when omitted) into a ShardSpec. Throws ConfigError on malformed
 * input.
 */
ShardSpec parseShardSpec(const std::string& spec);

/** Completed-run information recovered from a previous output file. */
struct ResumeState
{
    std::unordered_set<std::size_t> completed;
    std::unordered_set<std::size_t> saturated; //!< subset of completed

    /** Raw record line per completed run, for validateResume(). */
    std::unordered_map<std::size_t, std::string> records;

    bool
    isDone(std::size_t index) const
    {
        return completed.count(index) != 0;
    }
};

/** Execution knobs for runCampaign(). */
struct CampaignOptions
{
    /** Worker threads; 0 means hardware concurrency. Never more than
     *  the campaign's series count are started. */
    unsigned jobs = 1;

    /** Mark heavier loads of a saturated series without simulating. */
    bool skipSaturatedTail = true;

    /**
     * Slice of the campaign this host executes; only owned runs are
     * simulated for their results, emitted to the sinks, and returned
     * with executed=true. Non-owned runs come back with executed=false
     * and default stats.
     *
     * Determinism across shards: with skipSaturatedTail on, whether a
     * run is simulated or marked "Sat." by inference depends on the
     * lighter loads of its series, which another shard may own. To keep
     * shard output byte-identical to the unsharded run, a shard
     * re-simulates (probes) those lighter loads without emitting them.
     * Probing stops at the shard's last owned run of the series and
     * never happens once the series is known saturated — but for a
     * zero-redundancy split, pair --shard with --no-skip-saturated.
     */
    ShardSpec shard;

    /** Runs already present in the output files (see scanResume);
     *  they are neither simulated nor re-emitted. */
    ResumeState resume;

    /** Called once per emitted result, in run-index order. */
    std::function<void(const RunResult&)> progress;
};

/**
 * Execute a campaign (or, with opts.shard, one shard of it). Results
 * stream to the sinks (and the progress callback) in ascending
 * run-index order as they become available, and the full result vector
 * (run-index order; resumed and non-owned runs included with
 * executed=false) is returned at the end. Exceptions thrown by a run
 * (e.g. SimulationError from the deadlock watchdog) abort the campaign
 * and are rethrown after in-flight series finish.
 */
std::vector<RunResult>
runCampaign(const std::vector<CampaignRun>& runs,
            const CampaignOptions& opts,
            const std::vector<ResultSink*>& sinks = {});

} // namespace lapses

#endif // LAPSES_EXP_CAMPAIGN_HPP
