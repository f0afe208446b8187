/**
 * @file
 * Sweep drivers and formatting shared by the paper-reproduction benches.
 */

#ifndef LAPSES_CORE_EXPERIMENT_HPP
#define LAPSES_CORE_EXPERIMENT_HPP

#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "exp/campaign.hpp"
#include "stats/sim_stats.hpp"

namespace lapses
{

/** One (load, result) pair of a sweep. */
struct SweepPoint
{
    double load = 0.0;
    SimStats stats;
};

/**
 * Run the same configuration across a list of normalized loads. Once a
 * load saturates, higher loads are marked saturated without simulating
 * (the paper reports "Sat." beyond the saturation point).
 *
 * @param base      configuration (normalizedLoad is overwritten)
 * @param loads     ascending normalized loads
 * @param progress  optional callback after each point (may be null)
 */
std::vector<SweepPoint>
runLoadSweep(SimConfig base, const std::vector<double>& loads,
             const std::function<void(const SweepPoint&)>& progress = {});

/** Scale presets for bench runtime, selected by LAPSES_BENCH_MODE. */
enum class BenchMode
{
    Quick,   //!< smoke-test scale
    Default, //!< minutes-scale, shape-faithful
    Paper,   //!< the paper's 10k warm-up / 400k measured messages
};

/** Parse LAPSES_BENCH_MODE (quick|default|paper); Default if unset. */
BenchMode benchModeFromEnv();

/** Parse "quick"/"default"/"paper"; ConfigError otherwise. Shared by
 *  the lapses-sim and lapses-campaign --mode flags. */
BenchMode parseBenchModeName(const std::string& name);

/**
 * Checked numeric parsers for CLI value flags (same contract as the
 * grid-spec axis parsers): the whole token must be numeric and lie
 * within [lo, hi] — NaN included in the rejection — otherwise
 * ConfigError names the flag. std::atof/atoi would silently turn
 * garbage into 0 and run a wrong campaign.
 */
double parseCheckedDouble(const std::string& flag,
                          const std::string& value, double lo,
                          double hi);
int parseCheckedInt(const std::string& flag, const std::string& value,
                    int lo, int hi);
std::uint64_t parseCheckedU64(const std::string& flag,
                              const std::string& value);

/** Loads LO, LO+STEP, ... <= HI (+1e-9) of a LO:HI:STEP range (the
 *  --sweep flag, the load grid axis). The whole token must parse into
 *  three finite numbers with LO > 0, STEP > 0 and HI >= LO; otherwise
 *  ConfigError names the flag or axis and the spec. */
std::vector<double> parseLoadRange(const std::string& flag,
                                   const std::string& spec);

/**
 * Checked parser for mesh radices ("16x16", "4x4x4"): every
 * 'x'-separated part must be a plain decimal integer in [2, INT_MAX]
 * — no sign, no whitespace, no empty part, no trailing text —
 * otherwise ConfigError names the flag and the whole spec. Shared by
 * the lapses-sim and lapses-campaign --mesh flags.
 */
std::vector<int> parseMeshRadices(const std::string& flag,
                                  const std::string& spec);

/**
 * Worker-thread count for campaign-driven benches: LAPSES_JOBS if set
 * (0 = hardware concurrency), otherwise all hardware threads. Results
 * are byte-identical for any value; this only sets the pace. A value
 * that is not an integer in [0, INT_MAX] is a ConfigError.
 */
unsigned benchJobsFromEnv();

/**
 * Campaign shard for grid-driven benches, from LAPSES_SHARD="k/M"
 * (unset -> the whole campaign). Throws ConfigError on a malformed
 * value.
 */
ShardSpec benchShardFromEnv();

/**
 * Distributed-bench escape hatch. When LAPSES_SHARD=k/M is set,
 * execute only that shard of the bench's grids (LAPSES_JOBS workers)
 * and stream the owned records as JSON Lines on stdout — reassemble
 * and aggregate the M machines' outputs with lapses-merge — then
 * return true; the bench should skip its table rendering, which would
 * need the runs other shards own. Returns false (running nothing)
 * when LAPSES_SHARD is unset.
 */
bool runBenchShardFromEnv(const std::vector<CampaignGrid>& grids,
                          const char* tag);

/** Human-readable mode name. */
std::string benchModeName(BenchMode mode);

/** Apply a mode's warm-up and measurement message budgets. */
void applyBenchMode(SimConfig& cfg, BenchMode mode);

/** Format a latency cell: "74.0" or "Sat." like the paper's tables. */
std::string latencyCell(const SimStats& stats);

} // namespace lapses

#endif // LAPSES_CORE_EXPERIMENT_HPP
