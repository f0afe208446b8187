#include "exp/merge.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/assert.hpp"
#include "exp/config_fields.hpp"
#include "stats/aggregate.hpp"
#include "stats/report.hpp"

namespace lapses
{

namespace
{

std::string
at(const std::string& label, std::size_t line_no)
{
    return label + ':' + std::to_string(line_no);
}

/** Parse the digits after `pos`; false when none are there. */
bool
parseIndexAt(const std::string& line, std::size_t pos,
             std::size_t& out)
{
    if (pos >= line.size() ||
        !std::isdigit(static_cast<unsigned char>(line[pos])))
        return false;
    out = std::strtoull(line.c_str() + pos, nullptr, 10);
    return true;
}

void
insertRecord(ShardFile& shard, std::size_t index,
             const std::string& line, std::size_t line_no)
{
    if (!shard.records.emplace(index, line).second) {
        throw ConfigError("duplicate record for run " +
                          std::to_string(index) + " at " +
                          at(shard.label, line_no) +
                          " (was the shard run twice into one file?)");
    }
}

void
parseJsonlShard(std::istream& is, ShardFile& shard)
{
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line.front() != '{' ||
            line.back() != '}') {
            throw ConfigError(
                "truncated or malformed record at " +
                at(shard.label, line_no) +
                " (shard killed mid-write? finish it with "
                "lapses-campaign --shard ... --resume)");
        }
        const std::size_t run_key = line.find("\"run\":");
        std::size_t index = 0;
        if (run_key == std::string::npos ||
            !parseIndexAt(line, run_key + 6, index)) {
            throw ConfigError("record without a run index at " +
                              at(shard.label, line_no));
        }
        insertRecord(shard, index, line, line_no);
    }
}

void
parseCsvShard(std::istream& is, ShardFile& shard)
{
    std::string line;
    if (!std::getline(is, line))
        return; // empty file: a shard that owns nothing yet
    if (line != campaignCsvHeader()) {
        throw ConfigError(
            "bad CSV header at " + at(shard.label, 1) +
            " (not a lapses-campaign output, or a stale schema)");
    }
    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        std::size_t index = 0;
        if (!parseIndexAt(line, 0, index)) {
            throw ConfigError("malformed record at " +
                              at(shard.label, line_no));
        }
        // A complete row ends in the saturated cell; anything else was
        // cut short by a kill.
        const std::size_t comma = line.rfind(',');
        const std::string tail =
            comma == std::string::npos ? "" : line.substr(comma + 1);
        if (tail != "true" && tail != "false") {
            throw ConfigError(
                "truncated record at " + at(shard.label, line_no) +
                " (shard killed mid-write? finish it with "
                "lapses-campaign --shard ... --resume)");
        }
        insertRecord(shard, index, line, line_no);
    }
}

} // namespace

ShardFile
parseShardStream(std::istream& is, const std::string& label,
                 SinkFormat format)
{
    ShardFile shard;
    shard.label = label;
    shard.format = format;
    if (format == SinkFormat::Jsonl)
        parseJsonlShard(is, shard);
    else
        parseCsvShard(is, shard);
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
 * are held to the current header by parseCsvShard.
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

namespace
{

/** index -> record line across all shards (validated: no duplicates). */
std::unordered_map<std::size_t, const std::string*>
recordLines(const std::vector<ShardFile>& shards)
{
    std::unordered_map<std::size_t, const std::string*> lines;
    for (const ShardFile& shard : shards) {
        for (const auto& [index, line] : shard.records)
            lines.emplace(index, &line);
    }
    return lines;
}

} // namespace

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
    MergeReport report;
    report.total = runs.size();
    if (format == SinkFormat::Csv)
        os << campaignCsvHeader() << '\n';
    for (const CampaignRun& run : runs) {
        const auto it = lines.find(run.index);
        if (it == lines.end()) {
            report.missing.push_back(run.index);
            continue;
        }
        os << *it->second << '\n';
        ++report.merged;
    }
    return report;
}

namespace
{

std::string
number(double v)
{
    std::ostringstream os;
    os << v; // matches the sinks' default double formatting
    return os.str();
}

/** Extract a numeric JSON field; false when absent or null. */
bool
jsonNumberField(const std::string& line, const std::string& key,
                double& out)
{
    const std::string needle = '"' + key + "\":";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    const char* start = line.c_str() + pos + needle.size();
    if (std::strncmp(start, "null", 4) == 0)
        return false;
    char* end = nullptr;
    out = std::strtod(start, &end);
    return end != start;
}

/** Split a CSV row into cells (quote-aware, matching csvEscape). */
std::vector<std::string>
splitCsvRow(const std::string& line)
{
    std::vector<std::string> cells;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cell += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cell += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            cells.push_back(std::move(cell));
            cell.clear();
        } else {
            cell += c;
        }
    }
    cells.push_back(std::move(cell));
    return cells;
}

/** Column position of `name` in the campaign CSV header. */
std::size_t
csvColumn(const std::string& name)
{
    const std::vector<std::string> cols =
        splitCsvRow(campaignCsvHeader());
    for (std::size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] == name)
            return i;
    }
    throw ConfigError("internal: no CSV column '" + name + "'");
}

/** Per-record metrics the aggregation consumes. */
struct RecordMetrics
{
    bool saturated = false;
    bool hasLatency = false;
    double latency = 0.0;
    bool hasThroughput = false;
    double throughput = 0.0;
    bool hasRequestP99 = false;
    double requestP99 = 0.0;
    bool hasRequestP999 = false;
    double requestP999 = 0.0;
};

RecordMetrics
extractMetrics(const std::string& line, SinkFormat format)
{
    RecordMetrics m;
    if (format == SinkFormat::Jsonl) {
        m.saturated =
            line.find("\"saturated\":true") != std::string::npos;
        m.hasLatency = jsonNumberField(line, "latency_mean", m.latency);
        m.hasThroughput =
            jsonNumberField(line, "accepted_flit_rate", m.throughput);
        m.hasRequestP99 =
            jsonNumberField(line, "request_latency_p99", m.requestP99);
        m.hasRequestP999 = jsonNumberField(
            line, "request_latency_p999", m.requestP999);
    } else {
        static const std::size_t latency_col = csvColumn("latency");
        static const std::size_t accepted_col = csvColumn("accepted");
        static const std::size_t req_p99_col =
            csvColumn("request_latency_p99");
        static const std::size_t req_p999_col =
            csvColumn("request_latency_p999");
        static const std::size_t saturated_col =
            csvColumn("saturated");
        const std::vector<std::string> cells = splitCsvRow(line);
        if (saturated_col < cells.size())
            m.saturated = cells[saturated_col] == "true";
        if (latency_col < cells.size() &&
            !cells[latency_col].empty()) {
            m.hasLatency = true;
            m.latency = std::atof(cells[latency_col].c_str());
        }
        if (accepted_col < cells.size() &&
            !cells[accepted_col].empty()) {
            m.hasThroughput = true;
            m.throughput = std::atof(cells[accepted_col].c_str());
        }
        if (req_p99_col < cells.size() &&
            !cells[req_p99_col].empty()) {
            m.hasRequestP99 = true;
            m.requestP99 = std::atof(cells[req_p99_col].c_str());
        }
        if (req_p999_col < cells.size() &&
            !cells[req_p999_col].empty()) {
            m.hasRequestP999 = true;
            m.requestP999 = std::atof(cells[req_p999_col].c_str());
        }
    }
    return m;
}

} // namespace

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

void
writeAggregateCsv(const std::vector<ShardFile>& shards,
                  const std::vector<CampaignRun>& runs,
                  const std::vector<std::string>& group_by,
                  std::ostream& os)
{
    if (group_by.empty())
        throw ConfigError("--group-by needs at least one axis");

    struct Group
    {
        std::vector<std::string> axes;
        std::size_t records = 0;
        std::size_t saturated = 0;
        std::vector<double> latency;
        std::vector<double> throughput;
        std::vector<double> requestP99;
        std::vector<double> requestP999;
    };

    std::unordered_map<std::size_t,
                       std::pair<const std::string*, SinkFormat>>
        lines;
    for (const ShardFile& shard : shards) {
        for (const auto& [index, line] : shard.records)
            lines.emplace(index,
                          std::make_pair(&line, shard.format));
    }

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
            groups.emplace_back();
            groups.back().axes = std::move(axes);
        }
        Group& group = groups[pos.first->second];
        const RecordMetrics m =
            extractMetrics(*it->second.first, it->second.second);
        ++group.records;
        if (m.saturated) {
            ++group.saturated;
        } else {
            if (m.hasLatency)
                group.latency.push_back(m.latency);
            if (m.hasThroughput)
                group.throughput.push_back(m.throughput);
            if (m.hasRequestP99)
                group.requestP99.push_back(m.requestP99);
            if (m.hasRequestP999)
                group.requestP999.push_back(m.requestP999);
        }
    }

    for (const std::string& axis : group_by)
        os << csvEscape(axis) << ',';
    os << "runs,saturated,latency_mean,latency_p50,latency_p99,"
          "throughput_mean,throughput_p50,throughput_p99,"
          "request_latency_p99,request_latency_p999\n";
    for (const Group& group : groups) {
        for (const std::string& value : group.axes)
            os << csvEscape(value) << ',';
        os << group.records << ',' << group.saturated << ',';
        const SampleSummary lat = summarize(group.latency);
        const SampleSummary thr = summarize(group.throughput);
        const SampleSummary req99 = summarize(group.requestP99);
        const SampleSummary req999 = summarize(group.requestP999);
        // Like the sinks, all-saturated cells stay empty ("Sat.").
        if (lat.count > 0) {
            os << number(lat.mean) << ',' << number(lat.p50) << ','
               << number(lat.p99);
        } else {
            os << ",,";
        }
        os << ',';
        if (thr.count > 0) {
            os << number(thr.mean) << ',' << number(thr.p50) << ','
               << number(thr.p99);
        } else {
            os << ",,";
        }
        os << ',';
        // SLO columns: group means of the per-run request-latency
        // percentiles; empty for open-loop groups.
        if (req99.count > 0)
            os << number(req99.mean);
        os << ',';
        if (req999.count > 0)
            os << number(req999.mean);
        os << '\n';
    }
}

} // namespace lapses
