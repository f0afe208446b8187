/**
 * @file
 * Pins on the statistic writers and the --group-by aggregate.
 *
 * StatDigest folds statsToJson, statsToCsvRow, statsCsvHeader,
 * writeSweepCsv and the aggregate CSV (built from JSONL and from CSV
 * shards) into FNV-1a digests over a panel of SimStats that reaches
 * every blank rule: healthy, saturated, faulted with post-fault data,
 * closed-loop, saturated closed-loop, closed-loop with completions
 * only, an empty run and one with counts of 10^6 and more. The digests
 * fix every key, column, column order, number format and aggregate
 * cell. When a change intentionally alters any of them, regenerate the
 * pins with
 *
 *   LAPSES_GOLDEN_REGEN=1 ./lapses_tests --gtest_filter='StatDigest.*'
 *
 * and paste the printed rows over kPinned below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/grid_spec.hpp"
#include "exp/merge.hpp"
#include "exp/result_sink.hpp"
#include "stats/report.hpp"
#include "stats/stat_fields.hpp"

namespace lapses
{
namespace
{

/** 64-bit FNV-1a over a sequence of newline-terminated strings. */
class Digest
{
  public:
    void
    fold(const std::string& s)
    {
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
        byte('\n');
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 1099511628211ull;
    }

    std::uint64_t h_ = 14695981039346656037ull;
};

/** An open-loop run; `scale` spreads the panel's values apart. */
SimStats
healthyStats(double scale)
{
    SimStats st;
    for (double v : {40.0, 55.5, 71.25, 90.0, 333.0}) {
        v *= scale;
        st.totalLatency.add(v);
        st.networkLatency.add(v - 12.5);
        st.hops.add(v / 11.0);
        st.latencyHist.add(v);
    }
    st.injectedMessages = 6;
    st.deliveredMessages = 5;
    st.deliveredFlits = 100;
    st.measuredCycles = 4321;
    st.acceptedFlitRate = 0.123456789 * scale;
    st.offeredFlitRate = 0.125 * scale;
    return st;
}

SimStats
closedLoopStats(double scale)
{
    SimStats st = healthyStats(scale);
    for (double v : {180.0, 240.5, 310.0, 2900.0}) {
        st.requestLatency.add(v * scale);
        st.requestLatencyHist.add(v * scale);
    }
    st.requestsIssued = 50;
    st.requestsCompleted = 48;
    st.requestsFailed = 2;
    st.requestTimeouts = 6;
    st.requestRetries = 4;
    st.duplicateRequests = 1;
    st.duplicateReplies = 3;
    st.suppressedReinjects = 5;
    st.requestGoodput = 0.0123;
    st.requestOffered = 1.0 / 79.0;
    st.postFaultRequestLatency.add(412.0);
    return st;
}

/**
 * The panel, ordered so that the 12-run campaign below puts runs r and
 * r + 6 in one (traffic, load) group with a mix of kinds, one group
 * all saturated.
 */
std::vector<SimStats>
statPanel()
{
    SimStats saturated = healthyStats(0.9);
    saturated.saturated = true;
    saturated.acceptedFlitRate = 0.31;
    saturated.offeredFlitRate = 0.45;

    SimStats faulted = healthyStats(1.3);
    faulted.linkDownEvents = 2;
    faulted.linkUpEvents = 1;
    faulted.reconfigurations = 2;
    faulted.droppedMessages = 3;
    faulted.droppedFlits = 17;
    faulted.reinjectedMessages = 5;
    faulted.reroutedHeads = 7;
    faulted.postFaultLatency.add(120.0);
    faulted.postFaultLatency.add(133.0);

    SimStats sat_closed = closedLoopStats(1.1);
    sat_closed.saturated = true;

    SimStats completed_only = closedLoopStats(1.7);
    completed_only.requestsIssued = 0;

    SimStats big = healthyStats(2.1);
    big.measuredCycles = 1510904;
    big.deliveredMessages = 2000001;
    big.deliveredFlits = 40000020;

    return {sat_closed, healthyStats(1.0),    saturated,
            faulted,    closedLoopStats(0.8), big,
            SimStats{}, completed_only};
}

/** 2 models x 2 traffics x 3 loads, run i carrying panel[i % 8]. */
std::vector<RunResult>
panelCampaign()
{
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.campaignSeed = 3;
    applyGridSpec("model=proud,la-proud; traffic=uniform,transpose;"
                  "load=0.1,0.2,0.3",
                  grid);
    const std::vector<SimStats> panel = statPanel();
    std::vector<RunResult> results;
    for (const CampaignRun& run : grid.expand())
        results.push_back({run, panel[run.index % panel.size()]});
    return results;
}

/** The aggregate CSVs of the panel campaign's records in `format`. */
std::string
aggregates(const std::vector<RunResult>& results, SinkFormat format)
{
    std::string text =
        format == SinkFormat::Csv ? campaignCsvHeader() + '\n' : "";
    std::vector<CampaignRun> runs;
    for (const RunResult& r : results) {
        text += (format == SinkFormat::Csv ? runResultCsvRow(r)
                                           : runResultJson(r)) +
                '\n';
        runs.push_back(r.run);
    }
    std::istringstream is(text);
    const std::vector<ShardFile> shards = {
        parseShardStream(is, "panel", format)};
    std::ostringstream os;
    writeAggregateCsv(shards, runs, {"model"}, os);
    writeAggregateCsv(shards, runs, {"traffic", "load"}, os);
    return os.str();
}

struct DigestRow
{
    std::string name;
    std::uint64_t digest;
};

std::vector<DigestRow>
computeDigests()
{
    const std::vector<SimStats> panel = statPanel();
    Digest json;
    Digest csv_row;
    for (const SimStats& st : panel) {
        json.fold(statsToJson(st));
        csv_row.fold(statsToCsvRow(st));
    }
    Digest header;
    header.fold(statsCsvHeader());

    SweepSeries a{"la-proud", {}, panel};
    SweepSeries b{"proud, \"xy\"", {}, panel};
    for (std::size_t i = 0; i < panel.size(); ++i) {
        a.loads.push_back(0.05 * static_cast<double>(i + 1));
        b.loads.push_back(1.0 / static_cast<double>(i + 3));
    }
    std::ostringstream sweep_os;
    writeSweepCsv(sweep_os, {a, b});
    Digest sweep;
    sweep.fold(sweep_os.str());

    const std::vector<RunResult> results = panelCampaign();
    Digest agg_jsonl;
    agg_jsonl.fold(aggregates(results, SinkFormat::Jsonl));
    Digest agg_csv;
    agg_csv.fold(aggregates(results, SinkFormat::Csv));

    return {{"json", json.value()},
            {"csv-row", csv_row.value()},
            {"csv-header", header.value()},
            {"sweep-csv", sweep.value()},
            {"aggregate-jsonl", agg_jsonl.value()},
            {"aggregate-csv", agg_csv.value()}};
}

struct PinnedRow
{
    const char* name;
    std::uint64_t digest;
};

// LAPSES_GOLDEN_REGEN=1 prints this table fresh (see file header).
const PinnedRow kPinned[] = {
    {"json", 0x039210e516c63846ull},
    {"csv-row", 0x67885529806f0b94ull},
    {"csv-header", 0x7f00b965f63eb164ull},
    {"sweep-csv", 0xc62bb618e11b8d7aull},
    {"aggregate-jsonl", 0x903077b730b793afull},
    {"aggregate-csv", 0x903077b730b793afull},
};

TEST(StatDigest, WritersAndAggregatePinned)
{
    const std::vector<DigestRow> rows = computeDigests();
    // JSONL and CSV shards of one campaign aggregate alike.
    EXPECT_EQ(rows[4].digest, rows[5].digest)
        << rows[4].name << " vs " << rows[5].name;
    if (std::getenv("LAPSES_GOLDEN_REGEN") != nullptr) {
        for (const DigestRow& row : rows) {
            std::printf("    {\"%s\", 0x%016llxull},\n",
                        row.name.c_str(),
                        static_cast<unsigned long long>(row.digest));
        }
        return;
    }
    ASSERT_EQ(rows.size(), std::size(kPinned));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, kPinned[i].name) << "row " << i;
        EXPECT_EQ(rows[i].digest, kPinned[i].digest) << rows[i].name;
    }
}

TEST(StatDigest, CsvRanksAreColumnPositions)
{
    // The merge reader finds a CSV cell by its rank, and --group-by
    // reads only statistics with a CSV column.
    const std::vector<const StatField*>& columns = statCsvFields();
    for (std::size_t i = 0; i < columns.size(); ++i)
        EXPECT_EQ(columns[i]->rank, static_cast<int>(i)) << columns[i]->key;
    for (const StatField& f : statFields())
        EXPECT_TRUE(f.fold == Fold::None || f.rank >= 0) << f.key;
}

} // namespace
} // namespace lapses
