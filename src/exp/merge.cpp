#include "exp/merge.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "exp/config_fields.hpp"
#include "stats/aggregate.hpp"
#include "stats/report.hpp"
#include "stats/stat_fields.hpp"

namespace lapses
{

namespace
{

std::string
at(const std::string& label, std::size_t line_no)
{
    return label + ':' + std::to_string(line_no);
}

using RecordLines =
    std::unordered_map<std::size_t,
                       std::pair<const ShardFile*, const std::string*>>;

/** index -> (shard, record line) across all shards (validated: no
 *  duplicates). */
RecordLines
recordLines(const std::vector<ShardFile>& shards)
{
    RecordLines lines;
    for (const ShardFile& shard : shards) {
        for (const auto& [index, line] : shard.records)
            lines.emplace(index, std::make_pair(&shard, &line));
    }
    return lines;
}

std::string
number(double v)
{
    std::ostringstream os;
    os << v; // matches the sinks' default double formatting
    return os.str();
}

/** The statistics --group-by aggregates, in aggregate column order. */
std::vector<const StatField*>
aggregatedStats()
{
    std::vector<const StatField*> stats;
    for (const StatField& f : statFields()) {
        if (f.fold != Fold::None)
            stats.push_back(&f);
    }
    return stats;
}

/**
 * Run `index`'s value of each aggregated statistic, NaN where its
 * record leaves the cell empty (CSV) or null (JSONL). A missing,
 * unparsable or non-finite value is a ConfigError naming the file, the
 * run and the key or column.
 */
std::vector<double>
readAggregated(const ShardFile& shard, std::size_t index,
               const std::string& line,
               const std::vector<const StatField*>& stats)
{
    const bool json = shard.format == SinkFormat::Jsonl;
    // Stats cells are never quoted, so a CSV row's last cells are its
    // stats columns and the saturated flag, whatever its coordinates.
    std::vector<std::string> cells;
    std::istringstream row(json ? "" : line);
    for (std::string cell; std::getline(row, cell, ',');)
        cells.push_back(cell);
    const std::string where =
        shard.label + ": run " + std::to_string(index) + ": ";
    const double max = std::numeric_limits<double>::max();
    std::vector<double> values;
    for (const StatField* f : stats) {
        const std::string name = json ? f->key : f->csvName();
        std::optional<std::string> cell;
        const std::size_t back = statCsvFields().size() + 1 - f->rank;
        if (json) {
            const std::string key = '"' + name + "\":";
            const std::size_t pos = line.find(key);
            if (pos != std::string::npos) {
                const std::size_t start = pos + key.size();
                cell = line.substr(start,
                                   line.find_first_of(",}", start) - start);
            }
        } else if (back <= cells.size()) {
            cell = cells[cells.size() - back];
        }
        if (!cell)
            throw ConfigError(where + "no " + name + " value");
        if (*cell == (json ? "null" : "")) {
            values.push_back(std::numeric_limits<double>::quiet_NaN());
            continue;
        }
        try {
            values.push_back(parseCheckedDouble(name, *cell, -max, max));
        } catch (const ConfigError& e) {
            throw ConfigError(where + e.what());
        }
    }
    return values;
}

} // namespace

ShardFile
parseShardStream(std::istream& is, const std::string& label,
                 SinkFormat format)
{
    ShardFile shard{label, format, {}};
    std::string line;
    std::size_t line_no = 0;
    if (format == SinkFormat::Csv) {
        if (!std::getline(is, line))
            return shard; // empty file: a shard that owns nothing yet
        if (line != campaignCsvHeader()) {
            throw ConfigError(
                "bad CSV header at " + at(label, 1) +
                " (not a lapses-campaign output, or a stale schema)");
        }
        line_no = 1;
    }
    while (std::getline(is, line)) {
        ++line_no;
        const std::optional<RecordLine> record =
            parseRecordLine(line, format);
        if (!record) {
            throw ConfigError(
                "truncated or malformed record at " + at(label, line_no) +
                " (shard killed mid-write? finish it with "
                "lapses-campaign --shard ... --resume)");
        }
        if (!shard.records.emplace(record->index, line).second) {
            throw ConfigError("duplicate record for run " +
                              std::to_string(record->index) + " at " +
                              at(label, line_no) +
                              " (was the shard run twice into one file?)");
        }
    }
    return shard;
}

ShardFile
readShardFile(const std::string& path, SinkFormat format)
{
    std::ifstream is(path);
    if (!is)
        throw ConfigError("cannot read shard file " + path);
    return parseShardStream(is, path, format);
}

namespace
{

/**
 * Reject JSONL records that lack a coordinate column (a shard written
 * before the coordinate existed), naming the file and the column,
 * before the prefix check can report a generic mismatch. CSV shards
 * are held to the current header by parseShardStream.
 */
void
checkCoordinateColumns(const std::vector<ShardFile>& shards)
{
    std::vector<std::string> keys;
    for (const ConfigField& f : configFields()) {
        if (f.column != nullptr)
            keys.push_back('"' + std::string(f.column) + "\":");
    }
    for (const ShardFile& shard : shards) {
        if (shard.format != SinkFormat::Jsonl)
            continue;
        for (const auto& [index, line] : shard.records) {
            for (const std::string& key : keys) {
                if (line.find(key) != std::string::npos)
                    continue;
                throw ConfigError(
                    "stale shard: the record for run " +
                    std::to_string(index) + " in " + shard.label +
                    " has no " + key.substr(0, key.size() - 1) +
                    " coordinate (written by an older lapses-campaign? "
                    "re-run it with the current one)");
            }
        }
    }
}

} // namespace

void
validateShardFiles(const std::vector<ShardFile>& shards,
                   const std::vector<CampaignRun>& runs)
{
    checkCoordinateColumns(shards);

    std::unordered_map<std::size_t, const CampaignRun*> by_index;
    by_index.reserve(runs.size());
    for (const CampaignRun& run : runs)
        by_index.emplace(run.index, &run);

    std::unordered_map<std::size_t, const ShardFile*> owner;
    for (const ShardFile& shard : shards) {
        for (const auto& [index, line] : shard.records) {
            const auto prev = owner.emplace(index, &shard);
            if (!prev.second) {
                throw ConfigError(
                    "overlapping shards: run " + std::to_string(index) +
                    " appears in both " + prev.first->second->label +
                    " and " + shard.label +
                    " (same --shard run twice?)");
            }
            const auto it = by_index.find(index);
            if (it == by_index.end()) {
                throw ConfigError(
                    "foreign shard: " + shard.label +
                    " contains run " + std::to_string(index) +
                    ", which this campaign does not expand to "
                    "(different --grid?)");
            }
            const std::string prefix =
                runRecordPrefix(*it->second, shard.format);
            if (line.compare(0, prefix.size(), prefix) != 0) {
                throw ConfigError(
                    "mismatched shard: record for run " +
                    std::to_string(index) + " in " + shard.label +
                    " was not produced by this campaign (--seed or "
                    "grid changed?)");
            }
        }
    }
}

MergeReport
shardCoverage(const std::vector<ShardFile>& shards,
              const std::vector<CampaignRun>& runs)
{
    const auto lines = recordLines(shards);
    MergeReport report;
    report.total = runs.size();
    for (const CampaignRun& run : runs) {
        if (lines.count(run.index) != 0)
            ++report.merged;
        else
            report.missing.push_back(run.index);
    }
    return report;
}

MergeReport
mergeShardFiles(const std::vector<ShardFile>& shards,
                const std::vector<CampaignRun>& runs,
                std::ostream& os, SinkFormat format)
{
    const auto lines = recordLines(shards);
    if (format == SinkFormat::Csv)
        os << campaignCsvHeader() << '\n';
    for (const CampaignRun& run : runs) {
        const auto it = lines.find(run.index);
        if (it != lines.end())
            os << *it->second.second << '\n';
    }
    return shardCoverage(shards, runs);
}

std::string
runAxisValue(const CampaignRun& run, const std::string& axis)
{
    const ConfigField* field = findCoordinate(axis);
    if (field == nullptr) {
        throw ConfigError("unknown --group-by axis '" + axis +
                          "' (want " + coordinateNames() + ")");
    }
    return field->format(run);
}

std::string
aggregateColumns()
{
    std::string columns = "runs,saturated";
    for (const StatField* f : aggregatedStats()) {
        const std::string name = f->aggregate ? f->aggregate : f->csvName();
        columns += f->fold == Fold::Mean
                       ? ',' + name
                       : ',' + name + "_mean," + name + "_p50," + name +
                             "_p99";
    }
    return columns;
}

void
writeAggregateCsv(const std::vector<ShardFile>& shards,
                  const std::vector<CampaignRun>& runs,
                  const std::vector<std::string>& group_by,
                  std::ostream& os)
{
    if (group_by.empty())
        throw ConfigError("--group-by needs at least one axis");

    const std::vector<const StatField*> stats = aggregatedStats();
    struct Group
    {
        std::vector<std::string> axes;
        std::size_t records = 0;
        std::size_t saturated = 0;
        std::vector<std::vector<double>> samples; //!< per statistic
    };

    const auto lines = recordLines(shards);

    // Groups in first-appearance order of the run-index walk, so the
    // aggregate is deterministic and follows the grid's own ordering.
    std::vector<Group> groups;
    std::unordered_map<std::string, std::size_t> group_pos;
    for (const CampaignRun& run : runs) {
        const auto it = lines.find(run.index);
        if (it == lines.end())
            continue;
        std::vector<std::string> axes;
        axes.reserve(group_by.size());
        std::string key;
        for (const std::string& axis : group_by) {
            axes.push_back(runAxisValue(run, axis));
            key += axes.back();
            key += '\x1f';
        }
        const auto pos =
            group_pos.emplace(std::move(key), groups.size());
        if (pos.second) {
            groups.push_back({std::move(axes), 0, 0, {}});
            groups.back().samples.resize(stats.size());
        }
        Group& group = groups[pos.first->second];
        const auto& [shard, line] = it->second;
        const std::vector<double> values =
            readAggregated(*shard, run.index, *line, stats);
        ++group.records;
        // Saturated runs are counted, not averaged: their latency is
        // unbounded.
        if (parseRecordLine(*line, shard->format).value().saturated) {
            ++group.saturated;
            continue;
        }
        for (std::size_t i = 0; i < stats.size(); ++i) {
            if (!std::isnan(values[i]))
                group.samples[i].push_back(values[i]);
        }
    }

    for (const std::string& axis : group_by)
        os << csvEscape(axis) << ',';
    os << aggregateColumns() << '\n';
    for (const Group& group : groups) {
        for (const std::string& value : group.axes)
            os << csvEscape(value) << ',';
        os << group.records << ',' << group.saturated;
        // Like the sinks, a cell without samples stays empty ("Sat."
        // for an all-saturated group, open loop for request tails).
        for (std::size_t i = 0; i < stats.size(); ++i) {
            const SampleSummary sum = summarize(group.samples[i]);
            const bool summary = stats[i]->fold == Fold::Summary;
            if (sum.count == 0)
                os << (summary ? ",,," : ",");
            else if (summary)
                os << ',' << number(sum.mean) << ',' << number(sum.p50)
                   << ',' << number(sum.p99);
            else
                os << ',' << number(sum.mean);
        }
        os << '\n';
    }
}

} // namespace lapses
