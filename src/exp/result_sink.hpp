/**
 * @file
 * Streaming result sinks for campaign runs: one record per run,
 * flushed incrementally so a killed campaign can be resumed from the
 * partial file (--resume re-scans it and skips the runs found there).
 *
 * Record layout is identical across formats: the run's coordinates
 * (index, series, every axis value, seed) followed by the shared
 * SimStats columns from stats/report.hpp. Sinks are driven in
 * ascending run-index order by the campaign engine, so output files
 * are byte-identical for any --jobs value.
 */

#ifndef LAPSES_EXP_RESULT_SINK_HPP
#define LAPSES_EXP_RESULT_SINK_HPP

#include <iosfwd>
#include <optional>
#include <string>

#include "exp/campaign.hpp"

namespace lapses
{

/** Consumer of campaign results, called in run-index order. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Record one finished run. */
    virtual void write(const RunResult& result) = 0;

    /** Force buffered records out (end of campaign). */
    virtual void flush() {}
};

/** One JSON object per line (JSON Lines); flushed after every record. */
class JsonlSink : public ResultSink
{
  public:
    /** Stream must outlive the sink; opened in append mode to resume. */
    explicit JsonlSink(std::ostream& os) : os_(os) {}

    void write(const RunResult& result) override;
    void flush() override;

  private:
    std::ostream& os_;
};

/** Tidy CSV with a header row; flushed after every record. */
class CsvSink : public ResultSink
{
  public:
    /** Pass write_header=false when appending to a resumed file. */
    explicit CsvSink(std::ostream& os, bool write_header = true)
        : os_(os), write_header_(write_header)
    {
    }

    void write(const RunResult& result) override;
    void flush() override;

  private:
    std::ostream& os_;
    bool write_header_;
};

/** Record format of a campaign output file. */
enum class SinkFormat
{
    Jsonl,
    Csv,
};

/** The record's "mesh" coordinate, e.g. "16x16" or "4x4x4 torus";
 *  the topology token (e.g. "fattree4x3") on non-mesh fabrics. */
std::string meshName(const SimConfig& cfg);

/** The record's "topology" coordinate: the resolved spec token, e.g.
 *  "mesh", "torus", "fattree4x3", "dragonfly6x2x12", "file:<path>". */
std::string topologyName(const SimConfig& cfg);

/** The JSON line a JsonlSink writes for one run (no newline). */
std::string runResultJson(const RunResult& result);

/** Column names of the campaign CSV schema. */
std::string campaignCsvHeader();

/** The CSV row a CsvSink writes for one run (no newline). */
std::string runResultCsvRow(const RunResult& result);

/**
 * The deterministic coordinate section of a run's record — everything
 * up to and including the separator before the stats columns. A record
 * produced by this exact campaign (same grid, --seed, measurement
 * scale) starts with these bytes; anything else is a foreign record.
 */
std::string runRecordPrefix(const CampaignRun& run, SinkFormat format);

/** A complete record's run index and saturated flag. */
struct RecordLine
{
    std::size_t index = 0;
    bool saturated = false;
};

/**
 * Parse one line of a campaign output file in `format`. A complete
 * record opens with its run index (`{"run":N,` or `N,`) and ends in the
 * saturated flag; anything else, such as a record cut short by a kill
 * or the CSV header, gives nullopt.
 */
std::optional<RecordLine> parseRecordLine(const std::string& line,
                                          SinkFormat format);

/**
 * Recover completed-run indices (and their saturation flags) from a
 * partial campaign output file, for CampaignOptions::resume. Lines
 * parseRecordLine rejects are skipped.
 */
ResumeState scanResume(std::istream& is, SinkFormat format);

/**
 * Check that every resumed record belongs to this exact campaign
 * slice; throws ConfigError on a mismatch. Three things are verified
 * per record: its index is a run of the expanded campaign (catches a
 * foreign or shrunk grid), the requested shard owns it (catches
 * resuming a file written with a different --shard), and its
 * coordinate section (axis values, seed) matches the run the campaign
 * would execute at that index (catches a changed grid or --seed,
 * which would silently mix incompatible records).
 */
void validateResume(const ResumeState& state,
                    const std::vector<CampaignRun>& runs,
                    SinkFormat format, const ShardSpec& shard = {});

} // namespace lapses

#endif // LAPSES_EXP_RESULT_SINK_HPP
