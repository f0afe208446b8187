/**
 * @file
 * Campaign sharding and merge tests: the distributed-determinism
 * guarantee (a grid run as 1/3 + 2/3 + 3/3 shards and merged is
 * byte-identical to the unsharded run, JSONL and CSV, for any job
 * count), shard-spec parsing, the merge validator's negative paths
 * (overlapping shards, wrong campaign seed, foreign grid, truncated
 * trailing record), shard-aware resume validation, gap detection, and
 * --group-by aggregation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/merge.hpp"
#include "exp/result_sink.hpp"

namespace lapses
{
namespace
{

/** A fast 4x4-mesh campaign with 104 runs (8 series x 13 loads). */
std::vector<CampaignRun>
smallCampaign(std::uint64_t campaign_seed = 99)
{
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.msgLen = 4;
    grid.base.warmupMessages = 10;
    grid.base.measureMessages = 60;
    grid.campaignSeed = campaign_seed;
    grid.axes.models = {RouterModel::Proud, RouterModel::LaProud};
    grid.axes.selectors = {SelectorKind::StaticXY,
                           SelectorKind::Random};
    grid.axes.traffics = {TrafficKind::Uniform,
                          TrafficKind::Transpose};
    grid.axes.loads = {0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.23,
                       0.26, 0.29, 0.32, 0.35, 0.38, 0.41};
    return grid.expand();
}

struct ShardOutput
{
    std::string jsonl;
    std::string csv;
};

ShardOutput
runShard(const std::vector<CampaignRun>& runs, const ShardSpec& shard,
         unsigned jobs)
{
    std::ostringstream json_os;
    std::ostringstream csv_os;
    JsonlSink json_sink(json_os);
    CsvSink csv_sink(csv_os);
    CampaignOptions opts;
    opts.jobs = jobs;
    opts.shard = shard;
    runCampaign(runs, opts, {&json_sink, &csv_sink});
    return {json_os.str(), csv_os.str()};
}

/** The campaign's outputs, unsharded and as three shards, run once. */
struct ShardFixture
{
    std::vector<CampaignRun> runs;
    ShardOutput whole;
    ShardOutput shard[3]; //!< 1/3, 2/3, 3/3 at different job counts
};

const ShardFixture&
fixture()
{
    static const ShardFixture f = [] {
        ShardFixture fx;
        fx.runs = smallCampaign();
        fx.whole = runShard(fx.runs, ShardSpec{}, 4);
        // Deliberately different --jobs per shard: the merged result
        // must not depend on any of them.
        const unsigned jobs[3] = {1, 2, 4};
        for (std::size_t k = 0; k < 3; ++k)
            fx.shard[k] =
                runShard(fx.runs, ShardSpec{k, 3}, jobs[k]);
        return fx;
    }();
    return f;
}

ShardFile
parseString(const std::string& text, const std::string& label,
            SinkFormat format)
{
    std::istringstream is(text);
    return parseShardStream(is, label, format);
}

std::string
mergeAll(const std::vector<ShardFile>& shards,
         const std::vector<CampaignRun>& runs, SinkFormat format,
         MergeReport* report_out = nullptr)
{
    std::ostringstream os;
    const MergeReport report =
        mergeShardFiles(shards, runs, os, format);
    if (report_out != nullptr)
        *report_out = report;
    return os.str();
}

TEST(ShardSpec, ParsesTheCliForm)
{
    const ShardSpec one_of_three = parseShardSpec("1/3");
    EXPECT_EQ(one_of_three.index, 0u);
    EXPECT_EQ(one_of_three.count, 3u);
    const ShardSpec last = parseShardSpec("3/3");
    EXPECT_EQ(last.index, 2u);
    EXPECT_EQ(last.str(), "3/3");
    const ShardSpec whole = parseShardSpec("1/1");
    EXPECT_TRUE(whole.isAll());

    EXPECT_THROW(parseShardSpec("0/3"), ConfigError);
    EXPECT_THROW(parseShardSpec("4/3"), ConfigError);
    EXPECT_THROW(parseShardSpec("1/0"), ConfigError);
    EXPECT_THROW(parseShardSpec("3"), ConfigError);
    EXPECT_THROW(parseShardSpec("a/b"), ConfigError);
    EXPECT_THROW(parseShardSpec("1/3/5"), ConfigError);
    EXPECT_THROW(parseShardSpec(""), ConfigError);
}

TEST(ShardSpec, OwnershipPartitionsRunIndices)
{
    const ShardSpec shards[3] = {{0, 3}, {1, 3}, {2, 3}};
    for (std::size_t i = 0; i < 100; ++i) {
        int owners = 0;
        for (const ShardSpec& s : shards)
            owners += s.owns(i) ? 1 : 0;
        EXPECT_EQ(owners, 1) << "run " << i;
    }
    EXPECT_THROW((ShardSpec{3, 3}.validate()), ConfigError);
    EXPECT_THROW((ShardSpec{0, 0}.validate()), ConfigError);
}

TEST(ShardSpec, ParsesTheWeightedCliForm)
{
    // k/M:w — M weight units, this shard owns units k-1 .. k-2+w.
    const ShardSpec fast = parseShardSpec("1/4:3");
    EXPECT_EQ(fast.index, 0u);
    EXPECT_EQ(fast.count, 4u);
    EXPECT_EQ(fast.weight, 3u);
    EXPECT_EQ(fast.str(), "1/4:3");
    const ShardSpec slow = parseShardSpec("4/4:1");
    EXPECT_EQ(slow.index, 3u);
    EXPECT_EQ(slow.weight, 1u);
    EXPECT_EQ(slow.str(), "4/4"); // weight 1 prints the classic form
    EXPECT_TRUE(parseShardSpec("1/3:3").isAll());

    EXPECT_THROW(parseShardSpec("1/4:0"), ConfigError);
    EXPECT_THROW(parseShardSpec("2/4:4"), ConfigError); // units 2..5
    EXPECT_THROW(parseShardSpec("1/4:"), ConfigError);
    EXPECT_THROW(parseShardSpec("1:3/4"), ConfigError);
    EXPECT_THROW(parseShardSpec("1/4:x"), ConfigError);
    // k-1+w must not be allowed to wrap around to "fits".
    EXPECT_THROW(parseShardSpec("2/5:18446744073709551615"),
                 ConfigError);
}

TEST(ShardSpec, WeightedOwnershipPartitionsRunIndices)
{
    // A 3x-faster host paired with a 1x host, and an uneven trio:
    // every partition of the unit range covers each run exactly once.
    const std::vector<std::vector<ShardSpec>> partitions = {
        {{0, 4, 3}, {3, 4, 1}},
        {{0, 5, 2}, {2, 5, 1}, {3, 5, 2}},
    };
    for (const auto& shards : partitions) {
        for (const ShardSpec& s : shards)
            EXPECT_NO_THROW(s.validate());
        for (std::size_t i = 0; i < 100; ++i) {
            int owners = 0;
            for (const ShardSpec& s : shards)
                owners += s.owns(i) ? 1 : 0;
            EXPECT_EQ(owners, 1) << "run " << i;
        }
    }
    EXPECT_THROW((ShardSpec{2, 4, 3}.validate()), ConfigError);
    EXPECT_THROW((ShardSpec{0, 4, 0}.validate()), ConfigError);
}

TEST(ShardMerge, WeightedShardsMergeByteIdenticalToUnsharded)
{
    // Heterogeneous hosts: one takes 3 of 4 weight units, the other 1.
    // The two shard files must partition the runs and reassemble into
    // the canonical unsharded output, JSONL and CSV alike.
    const ShardFixture& fx = fixture();
    const ShardSpec specs[2] = {{0, 4, 3}, {3, 4, 1}};
    const ShardOutput outputs[2] = {runShard(fx.runs, specs[0], 2),
                                    runShard(fx.runs, specs[1], 1)};

    for (SinkFormat format : {SinkFormat::Jsonl, SinkFormat::Csv}) {
        const bool json = format == SinkFormat::Jsonl;
        std::vector<ShardFile> shards;
        for (std::size_t k = 0; k < 2; ++k) {
            shards.push_back(parseString(
                json ? outputs[k].jsonl : outputs[k].csv,
                "weighted" + std::to_string(k), format));
            for (const auto& [index, line] : shards.back().records)
                EXPECT_TRUE(specs[k].owns(index)) << index;
        }
        // The fast shard carries ~3x the slow one's records.
        EXPECT_GT(shards[0].records.size(),
                  2 * shards[1].records.size());
        EXPECT_NO_THROW(validateShardFiles(shards, fx.runs));
        MergeReport report;
        const std::string merged =
            mergeAll(shards, fx.runs, format, &report);
        EXPECT_TRUE(report.complete());
        EXPECT_EQ(merged, json ? fx.whole.jsonl : fx.whole.csv);
    }
}

TEST(ShardMerge, ThreeShardsMergeByteIdenticalToUnsharded)
{
    const ShardFixture& fx = fixture();
    ASSERT_GE(fx.runs.size(), 100u);

    // Each shard emits exactly its slice, in run-index order.
    for (std::size_t k = 0; k < 3; ++k) {
        const ShardFile file = parseString(
            fx.shard[k].jsonl, "shard" + std::to_string(k),
            SinkFormat::Jsonl);
        EXPECT_FALSE(file.records.empty());
        for (const auto& [index, line] : file.records)
            EXPECT_EQ(index % 3, k);
    }

    for (SinkFormat format : {SinkFormat::Jsonl, SinkFormat::Csv}) {
        const bool json = format == SinkFormat::Jsonl;
        std::vector<ShardFile> shards;
        for (std::size_t k = 0; k < 3; ++k) {
            shards.push_back(parseString(
                json ? fx.shard[k].jsonl : fx.shard[k].csv,
                "shard" + std::to_string(k), format));
        }
        EXPECT_NO_THROW(validateShardFiles(shards, fx.runs));
        MergeReport report;
        const std::string merged =
            mergeAll(shards, fx.runs, format, &report);
        EXPECT_TRUE(report.complete());
        EXPECT_EQ(report.merged, fx.runs.size());
        EXPECT_EQ(merged, json ? fx.whole.jsonl : fx.whole.csv);
    }
}

TEST(ShardMerge, SaturationInferenceSurvivesSharding)
{
    // A series driven far past saturation: the unsharded run infers
    // the heavy-load tail from the lighter loads. Shards must emit
    // the exact same inferred records even when another shard owns
    // the run that actually saturated.
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.msgLen = 8;
    grid.base.warmupMessages = 10;
    grid.base.measureMessages = 120;
    grid.base.latencySatCutoff = 200.0;
    grid.axes.loads = {0.3, 2.0, 3.0, 4.0};
    const auto runs = grid.expand();

    const ShardOutput whole = runShard(runs, ShardSpec{}, 1);
    ASSERT_NE(whole.jsonl.find("\"saturated\":true"),
              std::string::npos);

    std::vector<ShardFile> shards;
    for (std::size_t k = 0; k < 2; ++k) {
        shards.push_back(
            parseString(runShard(runs, ShardSpec{k, 2}, 1).jsonl,
                        "shard" + std::to_string(k),
                        SinkFormat::Jsonl));
    }
    EXPECT_NO_THROW(validateShardFiles(shards, runs));
    EXPECT_EQ(mergeAll(shards, runs, SinkFormat::Jsonl), whole.jsonl);
}

TEST(ShardMerge, TelemetryWindowAxisShardsMergeByteIdentical)
{
    // telemetry_window as a first-class grid axis: sharded execution
    // with per-run telemetry enabled must still reassemble into the
    // unsharded campaign's bytes (the window is pure observation).
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.msgLen = 4;
    grid.base.warmupMessages = 10;
    grid.base.measureMessages = 60;
    grid.campaignSeed = 7;
    grid.axes.telemetryWindows = {0, 64};
    grid.axes.loads = {0.1, 0.2};
    const std::vector<CampaignRun> runs = grid.expand();
    ASSERT_EQ(runs.size(), 4u);

    const ShardOutput whole = runShard(runs, ShardSpec{}, 2);
    EXPECT_NE(whole.jsonl.find("\"telemetry_window\":0"),
              std::string::npos);
    EXPECT_NE(whole.jsonl.find("\"telemetry_window\":64"),
              std::string::npos);
    EXPECT_NE(whole.csv.find(",telemetry_window,"),
              std::string::npos);

    for (SinkFormat format : {SinkFormat::Jsonl, SinkFormat::Csv}) {
        const bool json = format == SinkFormat::Jsonl;
        std::vector<ShardFile> shards;
        for (std::size_t k = 0; k < 2; ++k) {
            const ShardOutput out =
                runShard(runs, ShardSpec{k, 2}, 1);
            shards.push_back(parseString(json ? out.jsonl : out.csv,
                                         "telem" + std::to_string(k),
                                         format));
        }
        EXPECT_NO_THROW(validateShardFiles(shards, runs));
        MergeReport report;
        const std::string merged =
            mergeAll(shards, runs, format, &report);
        EXPECT_TRUE(report.complete());
        EXPECT_EQ(merged, json ? whole.jsonl : whole.csv);
    }
}

TEST(ShardMerge, WorkloadAxisClosedLoopShardsMergeByteIdentical)
{
    // workload as a first-class grid axis: a campaign mixing open-loop
    // and closed-loop (request/reply, with mid-run faults) runs,
    // executed as two shards, must reassemble into the unsharded
    // bytes — the reliability layer's retries, timeouts, and SLO
    // percentiles included.
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.msgLen = 4;
    grid.base.warmupMessages = 10;
    grid.base.measureMessages = 60;
    grid.base.table = TableKind::Full;
    grid.base.servers = 4;
    grid.base.inflightWindow = 2;
    grid.base.requestTimeout = 300;
    grid.base.serviceTime = 8;
    grid.base.faultCount = 1;
    grid.base.faultStart = 300;
    grid.base.faultPolicy = FaultPolicy::Drop;
    grid.campaignSeed = 11;
    grid.axes.workloads = {WorkloadKind::Open,
                           WorkloadKind::RequestReply};
    grid.axes.loads = {0.1, 0.2};
    const std::vector<CampaignRun> runs = grid.expand();
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(runs[0].config.workload, WorkloadKind::Open);
    EXPECT_EQ(runs[2].config.workload, WorkloadKind::RequestReply);

    const ShardOutput whole = runShard(runs, ShardSpec{}, 2);
    EXPECT_NE(whole.jsonl.find("\"workload\":\"open\""),
              std::string::npos);
    EXPECT_NE(whole.jsonl.find("\"workload\":\"request-reply\""),
              std::string::npos);
    EXPECT_NE(whole.jsonl.find("\"request_latency_p99\":"),
              std::string::npos);
    EXPECT_NE(whole.csv.find(",workload,"), std::string::npos);

    for (SinkFormat format : {SinkFormat::Jsonl, SinkFormat::Csv}) {
        const bool json = format == SinkFormat::Jsonl;
        std::vector<ShardFile> shards;
        for (std::size_t k = 0; k < 2; ++k) {
            const ShardOutput out =
                runShard(runs, ShardSpec{k, 2}, 1);
            shards.push_back(parseString(json ? out.jsonl : out.csv,
                                         "wl" + std::to_string(k),
                                         format));
        }
        EXPECT_NO_THROW(validateShardFiles(shards, runs));
        MergeReport report;
        const std::string merged =
            mergeAll(shards, runs, format, &report);
        EXPECT_TRUE(report.complete());
        EXPECT_EQ(merged, json ? whole.jsonl : whole.csv);
    }

    // --group-by workload folds the load axis and reports the request
    // SLO percentiles: populated for the request-reply group, empty
    // cells for the open-loop group.
    std::vector<ShardFile> shards;
    for (std::size_t k = 0; k < 2; ++k) {
        const ShardOutput out = runShard(runs, ShardSpec{k, 2}, 1);
        shards.push_back(parseString(out.jsonl,
                                     "ag" + std::to_string(k),
                                     SinkFormat::Jsonl));
    }
    std::ostringstream os;
    writeAggregateCsv(shards, runs, {"workload"}, os);
    std::istringstream lines(os.str());
    std::string header;
    std::string open_row;
    std::string rr_row;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, open_row));
    ASSERT_TRUE(std::getline(lines, rr_row));
    EXPECT_EQ(open_row.compare(0, 5, "open,"), 0) << open_row;
    EXPECT_EQ(rr_row.compare(0, 14, "request-reply,"), 0) << rr_row;
    // The last two columns are request_latency_p99/p999.
    EXPECT_EQ(open_row.substr(open_row.size() - 2), ",,") << open_row;
    EXPECT_NE(rr_row.substr(rr_row.size() - 2), ",,") << rr_row;
}

/** Drop every `column` field from JSONL text, imitating a shard file
 *  written before that coordinate existed. */
std::string
stripField(std::string text, const std::string& column)
{
    const std::string key = '"' + column + "\":";
    for (std::size_t pos = text.find(key); pos != std::string::npos;
         pos = text.find(key, pos)) {
        const std::size_t end = text.find(',', pos);
        text.erase(pos, end - pos + 1);
    }
    return text;
}

TEST(MergeValidator, RejectsStalePreWorkloadShards)
{
    const ShardFixture& fx = fixture();
    const std::vector<ShardFile> mixed = {
        parseString(stripField(fx.shard[0].jsonl, "workload"),
                    "pre-workload.jsonl", SinkFormat::Jsonl),
        parseString(fx.shard[1].jsonl, "fresh.jsonl",
                    SinkFormat::Jsonl),
    };
    try {
        validateShardFiles(mixed, fx.runs);
        FAIL() << "mixed workload schema not rejected";
    } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("workload"), std::string::npos) << what;
        EXPECT_NE(what.find("pre-workload.jsonl"), std::string::npos)
            << what;
    }
}

TEST(MergeValidator, RejectsStalePreTelemetryShards)
{
    const ShardFixture& fx = fixture();

    // A bare (pre-telemetry) shard next to a current one: rejected
    // with the bare file named.
    const std::vector<ShardFile> mixed = {
        parseString(stripField(fx.shard[0].jsonl, "telemetry_window"),
                    "stale.jsonl", SinkFormat::Jsonl),
        parseString(fx.shard[1].jsonl, "fresh.jsonl",
                    SinkFormat::Jsonl),
    };
    try {
        validateShardFiles(mixed, fx.runs);
        FAIL() << "mixed telemetry schema not rejected";
    } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("telemetry"), std::string::npos) << what;
        EXPECT_NE(what.find("stale.jsonl"), std::string::npos) << what;
    }

    // A single file whose records straddle the schema boundary.
    const std::size_t first_eol = fx.shard[0].jsonl.find('\n');
    ASSERT_NE(first_eol, std::string::npos);
    const std::string straddling =
        stripField(fx.shard[0].jsonl.substr(0, first_eol + 1),
                   "telemetry_window") +
        fx.shard[0].jsonl.substr(first_eol + 1);
    const std::vector<ShardFile> inner = {
        parseString(straddling, "torn.jsonl", SinkFormat::Jsonl),
    };
    try {
        validateShardFiles(inner, fx.runs);
        FAIL() << "intra-file schema mix not rejected";
    } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("telemetry"), std::string::npos) << what;
        EXPECT_NE(what.find("torn.jsonl"), std::string::npos) << what;
    }
}

TEST(MergeValidator, RejectsAShardMissingAnyCoordinate)
{
    // Every record coordinate, in column order: a shard without any one
    // of them is stale, and the error names the column and the file
    // rather than reporting a generic mismatch.
    const ShardFixture& fx = fixture();
    for (const char* column :
         {"run", "series", "mesh", "topology", "model", "routing",
          "table", "selector", "traffic", "injection", "msglen", "vcs",
          "buffers", "escape_vcs", "faults", "fault_seed",
          "telemetry_window", "workload", "load", "seed", "warmup",
          "measure"}) {
        try {
            const std::vector<ShardFile> shards = {
                parseString(stripField(fx.shard[0].jsonl, column),
                            "stale.jsonl", SinkFormat::Jsonl),
                parseString(fx.shard[1].jsonl, "fresh.jsonl",
                            SinkFormat::Jsonl),
            };
            validateShardFiles(shards, fx.runs);
            FAIL() << "shard without " << column << " not rejected";
        } catch (const ConfigError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(column), std::string::npos) << what;
            EXPECT_NE(what.find("stale.jsonl"), std::string::npos)
                << what;
        }
    }
}

TEST(ShardMerge, NonOwnedRunsComeBackUnexecuted)
{
    const ShardFixture& fx = fixture();
    CampaignOptions opts;
    opts.shard = ShardSpec{1, 3};
    const auto results = runCampaign(fx.runs, opts);
    ASSERT_EQ(results.size(), fx.runs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].run.index, i);
        EXPECT_EQ(results[i].executed, opts.shard.owns(i));
    }
}

TEST(MergeValidator, RejectsOverlappingShards)
{
    const ShardFixture& fx = fixture();
    // Shard 2/3 presented twice under different names.
    const std::vector<ShardFile> shards = {
        parseString(fx.shard[1].jsonl, "a.jsonl", SinkFormat::Jsonl),
        parseString(fx.shard[1].jsonl, "b.jsonl", SinkFormat::Jsonl),
    };
    try {
        validateShardFiles(shards, fx.runs);
        FAIL() << "overlap not rejected";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("overlapping"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MergeValidator, RejectsAMisSeededShard)
{
    const ShardFixture& fx = fixture();
    // The same grid expanded under a different campaign seed: every
    // record's seed coordinate is stale.
    const std::vector<CampaignRun> other = smallCampaign(1234);
    const std::vector<ShardFile> shards = {
        parseString(fx.shard[0].jsonl, "s1.jsonl", SinkFormat::Jsonl),
    };
    try {
        validateShardFiles(shards, other);
        FAIL() << "mis-seeded shard not rejected";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("mismatched"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MergeValidator, RejectsAForeignGridShard)
{
    const ShardFixture& fx = fixture();
    // A campaign that expands to fewer runs than the shard covers —
    // an exact prefix of the big grid, so the overflowing indices
    // (not mismatched coordinates) are what gets caught.
    CampaignGrid narrow;
    narrow.base.radices = {4, 4};
    narrow.base.msgLen = 4;
    narrow.base.warmupMessages = 10;
    narrow.base.measureMessages = 60;
    narrow.campaignSeed = 99;
    narrow.axes.models = {RouterModel::Proud};
    narrow.axes.selectors = {SelectorKind::StaticXY};
    narrow.axes.traffics = {TrafficKind::Uniform};
    narrow.axes.loads = {0.05, 0.08};
    const std::vector<CampaignRun> runs = narrow.expand();
    const std::vector<ShardFile> shards = {
        parseString(fx.shard[0].jsonl, "s1.jsonl", SinkFormat::Jsonl),
    };
    try {
        validateShardFiles(shards, runs);
        FAIL() << "foreign shard not rejected";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("foreign"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MergeValidator, RejectsATruncatedTrailingRecord)
{
    const ShardFixture& fx = fixture();
    const std::string cut =
        fx.shard[0].jsonl.substr(0, fx.shard[0].jsonl.size() - 10);
    try {
        parseString(cut, "cut.jsonl", SinkFormat::Jsonl);
        FAIL() << "truncated JSONL record not rejected";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }

    const std::string cut_csv =
        fx.shard[0].csv.substr(0, fx.shard[0].csv.size() - 3);
    EXPECT_THROW(parseString(cut_csv, "cut.csv", SinkFormat::Csv),
                 ConfigError);
}

TEST(MergeValidator, RejectsDuplicateRecordsWithinOneFile)
{
    const ShardFixture& fx = fixture();
    const std::string doubled = fx.shard[0].jsonl + fx.shard[0].jsonl;
    EXPECT_THROW(parseString(doubled, "dup.jsonl", SinkFormat::Jsonl),
                 ConfigError);
}

TEST(MergeValidator, RejectsABadCsvHeader)
{
    EXPECT_THROW(parseString("not,a,campaign,header\n1,2,3,4\n",
                             "bad.csv", SinkFormat::Csv),
                 ConfigError);
    // An empty file is a valid (if useless) shard, not an error.
    EXPECT_TRUE(parseString("", "empty.csv", SinkFormat::Csv)
                    .records.empty());
    EXPECT_TRUE(parseString("", "empty.jsonl", SinkFormat::Jsonl)
                    .records.empty());
}

TEST(MergeValidator, ReportsGapsForRefill)
{
    const ShardFixture& fx = fixture();
    // Shard 2/3 never came back from its machine.
    const std::vector<ShardFile> shards = {
        parseString(fx.shard[0].jsonl, "s1.jsonl", SinkFormat::Jsonl),
        parseString(fx.shard[2].jsonl, "s3.jsonl", SinkFormat::Jsonl),
    };
    EXPECT_NO_THROW(validateShardFiles(shards, fx.runs));
    MergeReport report;
    const std::string merged =
        mergeAll(shards, fx.runs, SinkFormat::Jsonl, &report);
    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.merged + report.missing.size(), report.total);
    for (std::size_t index : report.missing)
        EXPECT_EQ(index % 3, 1u) << "gap not from the lost shard";
    // What did merge is still ordered and clean: refilling the gaps
    // (lapses-campaign --shard 2/3) completes the canonical file.
    EXPECT_LT(merged.size(), fx.whole.jsonl.size());
}

TEST(ResumeValidation, CatchesAFileFromADifferentShard)
{
    const ShardFixture& fx = fixture();
    std::istringstream is(fx.shard[0].jsonl);
    const ResumeState state = scanResume(is, SinkFormat::Jsonl);
    ASSERT_FALSE(state.completed.empty());

    // Resuming shard 1/3's file as shard 1/3: fine.
    EXPECT_NO_THROW(validateResume(state, fx.runs, SinkFormat::Jsonl,
                                   ShardSpec{0, 3}));
    // As shard 2/3 (or unsharded-but-different splits): every record
    // is outside the requested shard.
    EXPECT_THROW(validateResume(state, fx.runs, SinkFormat::Jsonl,
                                ShardSpec{1, 3}),
                 ConfigError);
    EXPECT_THROW(validateResume(state, fx.runs, SinkFormat::Jsonl,
                                ShardSpec{1, 2}),
                 ConfigError);
    // The unsharded campaign owns everything, so the slice resumes.
    EXPECT_NO_THROW(
        validateResume(state, fx.runs, SinkFormat::Jsonl, {}));
}

TEST(ResumeValidation, CatchesARecordOutsideTheCampaign)
{
    const ShardFixture& fx = fixture();
    ResumeState state;
    state.completed.insert(fx.runs.size() + 7);
    state.records.emplace(fx.runs.size() + 7, "{\"run\":111}");
    EXPECT_THROW(
        validateResume(state, fx.runs, SinkFormat::Jsonl, {}),
        ConfigError);
}

TEST(Aggregation, GroupsOverGridAxesWithSummaryColumns)
{
    const ShardFixture& fx = fixture();
    std::vector<ShardFile> shards;
    for (std::size_t k = 0; k < 3; ++k) {
        shards.push_back(parseString(fx.shard[k].jsonl,
                                     "s" + std::to_string(k),
                                     SinkFormat::Jsonl));
    }
    std::ostringstream os;
    writeAggregateCsv(shards, fx.runs, {"traffic", "load"}, os);
    const std::string csv = os.str();

    std::istringstream lines(csv);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header,
              "traffic,load,runs,saturated,latency_mean,latency_p50,"
              "latency_p99,throughput_mean,throughput_p50,"
              "throughput_p99,request_latency_p99,"
              "request_latency_p999");
    std::size_t rows = 0;
    std::string line;
    while (std::getline(lines, line)) {
        ++rows;
        // 2 traffics x 13 loads; each group folds the 4 model x
        // selector series -> "...,4," runs column right after the
        // axis cells.
        EXPECT_NE(line.find(",4,"), std::string::npos) << line;
    }
    EXPECT_EQ(rows, 2u * 13u);

    // CSV-format shards aggregate to the identical table.
    std::vector<ShardFile> csv_shards;
    for (std::size_t k = 0; k < 3; ++k) {
        csv_shards.push_back(parseString(fx.shard[k].csv,
                                         "c" + std::to_string(k),
                                         SinkFormat::Csv));
    }
    std::ostringstream csv_os;
    writeAggregateCsv(csv_shards, fx.runs, {"traffic", "load"},
                      csv_os);
    EXPECT_EQ(csv_os.str(), csv);

    EXPECT_THROW(
        writeAggregateCsv(shards, fx.runs, {"bogus"}, os),
        ConfigError);
    EXPECT_THROW(writeAggregateCsv(shards, fx.runs, {}, os),
                 ConfigError);
}

/** `row` with its n-th cell replaced (the row has no quoted cells). */
std::string
withCell(const std::string& row, std::size_t n, const std::string& value)
{
    std::size_t start = 0;
    for (std::size_t i = 0; i < n; ++i)
        start = row.find(',', start) + 1;
    return row.substr(0, start) + value + row.substr(row.find(',', start));
}

/** Expect aggregating `text` by model to throw a ConfigError naming
 *  each of `names`. */
void
expectAggregateRejects(const std::string& text, SinkFormat format,
                       const std::vector<std::string>& names)
{
    const std::string label =
        format == SinkFormat::Csv ? "bad.csv" : "bad.jsonl";
    const std::vector<ShardFile> shards = {
        parseString(text, label, format)};
    std::ostringstream os;
    try {
        writeAggregateCsv(shards, fixture().runs, {"model"}, os);
        FAIL() << "aggregated a corrupt value:\n" << text << os.str();
    } catch (const ConfigError& e) {
        for (const std::string& name : names) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << name << " not in: " << e.what();
        }
    }
}

TEST(Aggregation, RejectsACorruptCsvCell)
{
    // A 2-run shard whose first latency cell read "garbage" once
    // aggregated to a latency of 0 for its group.
    std::istringstream is(fixture().whole.csv);
    std::string header;
    std::string first;
    std::string second;
    ASSERT_TRUE(std::getline(is, header) && std::getline(is, first) &&
                std::getline(is, second));
    const auto latency = static_cast<std::size_t>(std::count(
        header.begin(), header.begin() + header.find(",latency,") + 1,
        ','));
    for (const char* bad : {"garbage", "inf", "nan", "1e999"}) {
        expectAggregateRejects(
            header + '\n' + withCell(first, latency, bad) + '\n' +
                second + '\n',
            SinkFormat::Csv, {"bad.csv", "run 0:", " latency ", bad});
    }
}

TEST(Aggregation, RejectsACorruptOrMissingJsonlValue)
{
    // "latency_mean":garbage was once dropped silently.
    std::istringstream is(fixture().whole.jsonl);
    std::string first;
    std::string second;
    ASSERT_TRUE(std::getline(is, first) && std::getline(is, second));
    const std::size_t start = first.find("\"latency_mean\":") + 15;
    const std::size_t end = first.find(',', start);
    for (const char* bad : {"garbage", "\"12\"", "nan", "1e999"}) {
        std::string corrupt = first;
        corrupt.replace(start, end - start, bad);
        expectAggregateRejects(
            corrupt + '\n' + second + '\n', SinkFormat::Jsonl,
            {"bad.jsonl", "run 0:", " latency_mean ", bad});
    }
    // A record without an aggregated key is rejected the same way.
    const std::size_t key = first.find("\"accepted_flit_rate\":");
    std::string missing = first;
    missing.erase(key, first.find(',', key) + 1 - key);
    expectAggregateRejects(missing + '\n' + second + '\n',
                           SinkFormat::Jsonl,
                           {"bad.jsonl", "run 0:", "accepted_flit_rate"});
}

TEST(Aggregation, RunAxisValuesMatchTheSinks)
{
    const ShardFixture& fx = fixture();
    const CampaignRun& run = fx.runs.front();
    EXPECT_EQ(runAxisValue(run, "model"), "proud");
    EXPECT_EQ(runAxisValue(run, "traffic"), "uniform");
    EXPECT_EQ(runAxisValue(run, "load"), "0.05");
    EXPECT_EQ(runAxisValue(run, "mesh"), "4x4");
    EXPECT_EQ(runAxisValue(run, "msglen"), "4");
    EXPECT_THROW(runAxisValue(run, "latency"), ConfigError);
}

} // namespace
} // namespace lapses
