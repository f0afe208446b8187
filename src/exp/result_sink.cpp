#include "exp/result_sink.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <unordered_set>

#include "exp/config_fields.hpp"
#include "stats/report.hpp"

namespace lapses
{

std::string
meshName(const SimConfig& cfg)
{
    // Non-mesh fabrics carry their shape in the topology token; the
    // radices would be stale defaults here.
    if (!cfg.topology.isMeshKind())
        return cfg.topology.str();
    std::string s;
    for (std::size_t i = 0; i < cfg.radices.size(); ++i) {
        if (i)
            s += 'x';
        s += std::to_string(cfg.radices[i]);
    }
    if (cfg.topology.kind == TopologyKind::Torus)
        s += " torus";
    return s;
}

std::string
topologyName(const SimConfig& cfg)
{
    return cfg.topology.str();
}

namespace
{

/** A JSON string's body: quotes, backslashes and control characters
 *  escaped. */
std::string
jsonEscape(const std::string& value)
{
    std::string out;
    for (const char c : value) {
        if (static_cast<unsigned char>(c) < 0x20) {
            char hex[8];
            std::snprintf(hex, sizeof(hex), "\\u%04x", c);
            out += hex;
            continue;
        }
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** The coordinate columns as JSON members or CSV cells. */
std::string
coordinates(const CampaignRun& run, SinkFormat format)
{
    std::string s;
    for (const ConfigField& f : configFields()) {
        if (f.column == nullptr)
            continue;
        if (!s.empty())
            s += ',';
        const std::string value = f.format(run);
        if (format == SinkFormat::Csv)
            s += f.quoted ? csvEscape(value) : value;
        else
            s += std::string("\"") + f.column + "\":" +
                 (f.quoted ? '"' + jsonEscape(value) + '"' : value);
    }
    return s;
}

} // namespace

std::string
runResultJson(const RunResult& result)
{
    return '{' + coordinates(result.run, SinkFormat::Jsonl) + ',' +
           statsJsonFields(result.stats) + '}';
}

std::string
campaignCsvHeader()
{
    std::string header;
    for (const ConfigField& f : configFields()) {
        if (f.column != nullptr)
            header += std::string(f.column) + ',';
    }
    return header + statsCsvHeader();
}

std::string
runResultCsvRow(const RunResult& result)
{
    return coordinates(result.run, SinkFormat::Csv) + ',' +
           statsToCsvRow(result.stats);
}

std::string
runRecordPrefix(const CampaignRun& run, SinkFormat format)
{
    const std::string cells = coordinates(run, format) + ',';
    return format == SinkFormat::Jsonl ? '{' + cells : cells;
}

void
JsonlSink::write(const RunResult& result)
{
    os_ << runResultJson(result) << '\n';
    os_.flush(); // one durable record per run: kill-safe, resumable
}

void
JsonlSink::flush()
{
    os_.flush();
}

void
CsvSink::write(const RunResult& result)
{
    if (write_header_) {
        os_ << campaignCsvHeader() << '\n';
        write_header_ = false;
    }
    os_ << runResultCsvRow(result) << '\n';
    os_.flush();
}

void
CsvSink::flush()
{
    os_.flush();
}

std::optional<RecordLine>
parseRecordLine(const std::string& line, SinkFormat format)
{
    // Every record opens with its run index and ends in the saturated
    // flag, so a line a kill cut short fails the second test.
    const bool json = format == SinkFormat::Jsonl;
    const std::string open = json ? "{\"run\":" : "";
    const std::string flag = json ? ",\"saturated\":" : ",";
    const std::string close = json ? "}" : "";
    if (line.compare(0, open.size(), open) != 0 ||
        !std::isdigit(static_cast<unsigned char>(line[open.size()])))
        return std::nullopt;
    RecordLine record;
    record.index = std::strtoull(line.c_str() + open.size(), nullptr, 10);
    record.saturated = line.ends_with(flag + "true" + close);
    if (!record.saturated && !line.ends_with(flag + "false" + close))
        return std::nullopt;
    return record;
}

ResumeState
scanResume(std::istream& is, SinkFormat format)
{
    ResumeState state;
    std::string line;
    while (std::getline(is, line)) {
        // Skip a torn record (the campaign re-runs that point) and the
        // CSV header.
        const std::optional<RecordLine> record =
            parseRecordLine(line, format);
        if (!record)
            continue;
        state.completed.insert(record->index);
        if (record->saturated)
            state.saturated.insert(record->index);
        state.records.emplace(record->index, line);
    }
    return state;
}

void
validateResume(const ResumeState& state,
               const std::vector<CampaignRun>& runs, SinkFormat format,
               const ShardSpec& shard)
{
    std::unordered_set<std::size_t> known;
    known.reserve(runs.size());
    for (const CampaignRun& run : runs)
        known.insert(run.index);
    for (std::size_t index : state.completed) {
        if (known.count(index) == 0) {
            throw ConfigError(
                "resume record for run " + std::to_string(index) +
                " is not part of this campaign (different grid?); "
                "remove the output file or rerun with the original "
                "campaign");
        }
        if (!shard.owns(index)) {
            throw ConfigError(
                "resume record for run " + std::to_string(index) +
                " is outside shard " + shard.str() +
                " (was the file written with a different --shard?); "
                "resume it with the original shard spec or merge the "
                "shards first");
        }
    }
    for (const CampaignRun& run : runs) {
        auto it = state.records.find(run.index);
        if (it == state.records.end())
            continue;
        // The record's coordinate section is deterministic, so the
        // expected prefix must match byte-for-byte.
        const std::string prefix = runRecordPrefix(run, format);
        if (it->second.compare(0, prefix.size(), prefix) != 0) {
            throw ConfigError(
                "resume record for run " + std::to_string(run.index) +
                " does not match this campaign (grid or --seed "
                "changed?); remove the output file or rerun with the "
                "original campaign");
        }
    }
}

} // namespace lapses
