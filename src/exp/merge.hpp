/**
 * @file
 * Shard-file merging and aggregation: the host-side half of campaign
 * sharding. M machines each run `lapses-campaign --shard k/M` into
 * their own JSONL/CSV file; this module validates those files against
 * the campaign they claim to slice, reassembles the canonical
 * run-index-ordered output (byte-identical to an unsharded run), finds
 * the gaps a crashed shard left for `--resume`-style refill, and
 * aggregates the merged records over grid axes (mean / p50 / p99 of
 * the latency and throughput columns).
 *
 * Parsing here is deliberately stricter than the resume scanner: a
 * resume scan *tolerates* a torn trailing record because the campaign
 * will re-run it, but merging is a finalization step — a truncated or
 * malformed line means the shard is incomplete and is rejected with a
 * pointer at the offending file:line instead of being silently
 * dropped.
 */

#ifndef LAPSES_EXP_MERGE_HPP
#define LAPSES_EXP_MERGE_HPP

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/result_sink.hpp"

namespace lapses
{

/** One strictly parsed shard output file. */
struct ShardFile
{
    std::string label; //!< path, for error messages
    SinkFormat format = SinkFormat::Jsonl;
    std::map<std::size_t, std::string> records; //!< index -> line
};

/**
 * Strictly parse one shard output stream. Every non-empty line must be
 * a complete record (JSONL: a closed object with a "run" key; CSV: the
 * exact campaign header first, then rows whose final saturated cell is
 * intact). Throws ConfigError naming label:line on a truncated or
 * malformed record, and on a duplicate run index within the file.
 */
ShardFile parseShardStream(std::istream& is, const std::string& label,
                           SinkFormat format);

/** parseShardStream over a file path; throws ConfigError if unreadable. */
ShardFile readShardFile(const std::string& path, SinkFormat format);

/**
 * Validate a set of shard files against the expanded campaign:
 *  - every JSONL record carries every coordinate column — a shard
 *    written before a coordinate existed is rejected naming the file
 *    and the column instead of producing a mixed-schema merge (CSV
 *    shards are covered by the exact-header check at parse time);
 *  - no run index appears in two files (overlapping shards);
 *  - every record's index is a run of this campaign (foreign grid);
 *  - every record starts with the exact coordinate prefix the campaign
 *    would write at that index (mis-seeded shard / changed grid).
 * Throws ConfigError naming the offending file(s) and run index.
 */
void validateShardFiles(const std::vector<ShardFile>& shards,
                        const std::vector<CampaignRun>& runs);

/** Outcome of a merge. */
struct MergeReport
{
    std::size_t total = 0;  //!< runs the campaign expands to
    std::size_t merged = 0; //!< records written
    std::vector<std::size_t> missing; //!< uncovered run indices (gaps)

    bool
    complete() const
    {
        return missing.empty();
    }
};

/**
 * Coverage of the campaign by the shard files, without writing
 * anything: which runs are provided and which are gaps. The cheap
 * first half of mergeShardFiles, for --check and for refusing a merge
 * before formatting any output.
 */
MergeReport shardCoverage(const std::vector<ShardFile>& shards,
                          const std::vector<CampaignRun>& runs);

/**
 * Merge validated shard files into canonical run-index order, writing
 * to `os` (with the CSV header first for SinkFormat::Csv). Gaps are
 * skipped and reported in the returned MergeReport so the caller can
 * refuse or refill them (`lapses-campaign --shard k/M --resume`).
 * When every run is covered the output is byte-identical to the file
 * an unsharded campaign would have produced.
 */
MergeReport mergeShardFiles(const std::vector<ShardFile>& shards,
                            const std::vector<CampaignRun>& runs,
                            std::ostream& os, SinkFormat format);

/**
 * The value a --group-by axis takes for one run, rendered exactly as
 * the sinks render it (e.g. "uniform", "0.2", "la-proud"). Any record
 * coordinate column or grid-axis name is accepted (coordinateNames()
 * in exp/config_fields.hpp). Throws ConfigError on an unknown name.
 */
std::string runAxisValue(const CampaignRun& run,
                         const std::string& axis);

/** The aggregate CSV's columns after the grouped axes, comma-separated:
 *  runs, saturated, then those of each statistic the stat-field table
 *  folds (stats/stat_fields.hpp). */
std::string aggregateColumns();

/**
 * Aggregate shard records over grid axes and write a tidy CSV: one row
 * per distinct group_by value combination (in first-appearance
 * run-index order) with columns
 *
 *   <axes...>,runs,saturated,latency_mean,latency_p50,latency_p99,
 *   throughput_mean,throughput_p50,throughput_p99,
 *   request_latency_p99,request_latency_p999
 *
 * folded over the group's unsaturated runs (saturated runs are
 * counted, not averaged — their latency is unbounded): mean / p50 /
 * p99 of each run's mean latency and accepted flit rate, and the means
 * of its request-latency percentiles (empty for open loop). A missing,
 * unparsable or non-finite value is a ConfigError naming the file, the
 * run and the key or column. Missing runs are absent from their groups.
 */
void writeAggregateCsv(const std::vector<ShardFile>& shards,
                       const std::vector<CampaignRun>& runs,
                       const std::vector<std::string>& group_by,
                       std::ostream& os);

} // namespace lapses

#endif // LAPSES_EXP_MERGE_HPP
