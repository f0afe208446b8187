#include "exp/result_sink.hpp"

#include <cctype>
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
    if (cfg.torus)
        s += " torus";
    return s;
}

std::string
topologyName(const SimConfig& cfg)
{
    return cfg.resolvedTopology().str();
}

namespace
{

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
        const char* quote = f.quoted ? "\"" : "";
        if (format == SinkFormat::Csv)
            s += f.quoted ? csvEscape(value) : value;
        else
            s += std::string("\"") + f.column + "\":" + quote + value + quote;
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

namespace
{

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

} // namespace

ResumeState
scanResumeJsonl(std::istream& is)
{
    ResumeState state;
    std::string line;
    while (std::getline(is, line)) {
        // A record the kill cut short has no closing brace: ignore it,
        // the campaign will re-run that point.
        if (line.empty() || line.front() != '{' || line.back() != '}')
            continue;
        const std::size_t run_key = line.find("\"run\":");
        std::size_t index = 0;
        if (run_key == std::string::npos ||
            !parseIndexAt(line, run_key + 6, index))
            continue;
        state.completed.insert(index);
        if (line.find("\"saturated\":true") != std::string::npos)
            state.saturated.insert(index);
        state.records.emplace(index, line);
    }
    return state;
}

ResumeState
scanResumeCsv(std::istream& is)
{
    ResumeState state;
    std::string line;
    while (std::getline(is, line)) {
        std::size_t index = 0;
        if (!parseIndexAt(line, 0, index)) // header or torn line
            continue;
        // The saturated flag is the final cell.
        const std::size_t comma = line.rfind(',');
        if (comma == std::string::npos)
            continue;
        const std::string tail = line.substr(comma + 1);
        if (tail != "true" && tail != "false")
            continue; // torn mid-record: re-run it
        state.completed.insert(index);
        if (tail == "true")
            state.saturated.insert(index);
        state.records.emplace(index, line);
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
