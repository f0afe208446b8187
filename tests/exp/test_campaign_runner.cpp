/**
 * @file
 * Campaign-runner tests: the determinism guarantee (byte-identical
 * JSON for --jobs 1 vs --jobs 8 over a 100+ run campaign), ordered
 * emission, saturation short-circuiting, resume, and error
 * propagation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "exp/campaign.hpp"
#include "exp/result_sink.hpp"
#include "topology/spec.hpp"

namespace lapses
{
namespace
{

/** A fast 4x4-mesh campaign with 104 runs (8 series x 13 loads). */
std::vector<CampaignRun>
smallCampaign()
{
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.msgLen = 4;
    grid.base.warmupMessages = 10;
    grid.base.measureMessages = 60;
    grid.campaignSeed = 99;
    grid.axes.models = {RouterModel::Proud, RouterModel::LaProud};
    grid.axes.selectors = {SelectorKind::StaticXY,
                           SelectorKind::Random};
    grid.axes.traffics = {TrafficKind::Uniform,
                          TrafficKind::Transpose};
    grid.axes.loads = {0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.23,
                       0.26, 0.29, 0.32, 0.35, 0.38, 0.41};
    return grid.expand();
}

/** Sixteen one-run series on a 4x4 mesh (2 models x 8 traffics, one
 *  load): cheap runs, many series for the campaign threads to share.
 *  With `bad_hotspot`, the Hotspot series fail at construction. */
std::vector<CampaignRun>
manySeriesCampaign(bool bad_hotspot = false)
{
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.msgLen = 4;
    grid.base.warmupMessages = 5;
    grid.base.measureMessages = 30;
    grid.campaignSeed = 7;
    if (bad_hotspot)
        grid.base.hotspot.hotspots = {NodeId(10'000)};
    grid.axes.models = {RouterModel::Proud, RouterModel::LaProud};
    grid.axes.traffics = {
        TrafficKind::Uniform,       TrafficKind::Transpose,
        TrafficKind::BitReversal,   TrafficKind::PerfectShuffle,
        TrafficKind::BitComplement, TrafficKind::Tornado,
        TrafficKind::Neighbor,      TrafficKind::Hotspot};
    grid.axes.loads = {0.1};
    return grid.expand();
}

std::string
runToJsonl(const std::vector<CampaignRun>& runs, unsigned jobs,
           const ResumeState* resume = nullptr)
{
    std::ostringstream os;
    JsonlSink sink(os);
    CampaignOptions opts;
    opts.jobs = jobs;
    if (resume != nullptr)
        opts.resume = *resume;
    runCampaign(runs, opts, {&sink});
    return os.str();
}

TEST(CampaignRunner, JsonByteIdenticalAcrossJobCounts)
{
    const auto runs = smallCampaign();
    ASSERT_GE(runs.size(), 100u);
    const std::string serial = runToJsonl(runs, 1);
    const std::string parallel = runToJsonl(runs, 8);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'),
              static_cast<long>(runs.size()));

    // Campaign threads that each step a two-shard parallel network:
    // both kinds of thread at once, and still the serial bytes.
    auto sharded = runs;
    for (CampaignRun& run : sharded) {
        run.config.kernel = KernelKind::Parallel;
        run.config.intraJobs = 2;
    }
    EXPECT_EQ(runToJsonl(sharded, 4), serial);
}

TEST(CampaignRunner, ResultsComeBackInRunIndexOrder)
{
    const auto runs = smallCampaign();
    CampaignOptions opts;
    opts.jobs = 8;
    std::vector<std::size_t> seen;
    opts.progress = [&seen](const RunResult& r) {
        seen.push_back(r.run.index);
    };
    const auto results = runCampaign(runs, opts);
    ASSERT_EQ(results.size(), runs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].run.index, i);
        ASSERT_LT(i, seen.size());
        EXPECT_EQ(seen[i], i);
    }
}

TEST(CampaignRunner, SaturatedTailIsInferredNotSimulated)
{
    // Drive a tiny network far past saturation; the heaviest loads
    // must be marked from the lighter ones.
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.msgLen = 8;
    grid.base.warmupMessages = 10;
    grid.base.measureMessages = 120;
    grid.base.latencySatCutoff = 200.0;
    grid.axes.loads = {0.3, 2.0, 3.0, 4.0};
    const auto runs = grid.expand();
    const auto results = runCampaign(runs, CampaignOptions{});
    ASSERT_EQ(results.size(), 4u);
    bool any_inferred = false;
    for (const RunResult& r : results) {
        if (r.inferredSaturated) {
            any_inferred = true;
            EXPECT_TRUE(r.stats.saturated);
        }
    }
    EXPECT_TRUE(any_inferred);
    EXPECT_TRUE(results.back().stats.saturated);
}

TEST(CampaignRunner, ResumeSkipsCompletedRunsAndMatchesFullOutput)
{
    const auto runs = smallCampaign();
    const std::string full = runToJsonl(runs, 4);

    // Simulate a kill after the first 40 records.
    std::istringstream full_is(full);
    std::string partial;
    std::string line;
    for (int i = 0; i < 40 && std::getline(full_is, line); ++i)
        partial += line + '\n';

    std::istringstream partial_is(partial);
    const ResumeState resume =
        scanResume(partial_is, SinkFormat::Jsonl);
    EXPECT_EQ(resume.completed.size(), 40u);

    const std::string rest = runToJsonl(runs, 4, &resume);
    EXPECT_EQ(partial + rest, full);
}

TEST(CampaignRunner, ResumedRunsAreReturnedUnexecuted)
{
    const auto runs = smallCampaign();
    ResumeState resume;
    resume.completed = {0, 1, 2};
    CampaignOptions opts;
    opts.resume = resume;
    const auto results = runCampaign(runs, opts);
    EXPECT_FALSE(results[0].executed);
    EXPECT_FALSE(results[2].executed);
    EXPECT_TRUE(results[3].executed);
}

TEST(CampaignRunner, JobsAreCappedAtTheSeriesCount)
{
    // A worker per requested job used to be allocated up front: a
    // wrapped --jobs -1 (4294967295) died in std::bad_alloc.
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.msgLen = 4;
    grid.base.warmupMessages = 10;
    grid.base.measureMessages = 60;
    grid.axes.models = {RouterModel::Proud, RouterModel::LaProud};
    grid.axes.loads = {0.1, 0.2};
    const auto runs = grid.expand();
    ASSERT_EQ(runs.back().series, 1u);
    EXPECT_EQ(runToJsonl(runs, 4294967295u), runToJsonl(runs, 1));
}

TEST(CampaignRunner, JobsFromTheEnvironmentAreChecked)
{
    ::setenv("LAPSES_JOBS", "3", 1);
    EXPECT_EQ(benchJobsFromEnv(), 3u);
    for (const char* bad : {"-1", "abc", "3x", "99999999999"}) {
        ::setenv("LAPSES_JOBS", bad, 1);
        try {
            benchJobsFromEnv();
            FAIL() << "accepted LAPSES_JOBS=" << bad;
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("LAPSES_JOBS"),
                      std::string::npos)
                << e.what();
        }
    }
    // Empty or unset (and 0) mean every hardware thread.
    ::setenv("LAPSES_JOBS", "", 1);
    EXPECT_GE(benchJobsFromEnv(), 1u);
    ::unsetenv("LAPSES_JOBS");
    EXPECT_GE(benchJobsFromEnv(), 1u);
}

TEST(CampaignRunner, RunErrorsPropagateToTheCaller)
{
    // An unreachable hotspot node id makes the pattern throw.
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.traffic = TrafficKind::Hotspot;
    grid.base.hotspot.hotspots = {NodeId(10'000)};
    grid.base.warmupMessages = 5;
    grid.base.measureMessages = 20;
    grid.axes.models = {RouterModel::Proud, RouterModel::LaProud};
    grid.axes.loads = {0.1, 0.2};
    const auto runs = grid.expand();
    // Two series, so jobs 4 starts a second thread: an error on
    // either thread must still reach the caller.
    for (unsigned jobs : {1u, 4u}) {
        CampaignOptions opts;
        opts.jobs = jobs;
        EXPECT_THROW(runCampaign(runs, opts), ConfigError)
            << "jobs " << jobs;
    }
}

TEST(CampaignRunner, AnErrorInOneSeriesOfManyReachesTheCaller)
{
    // Only the Proud model's Hotspot series (series 7) fails, among
    // fifteen healthy ones. At jobs 16 it most likely runs on a worker
    // thread, not the caller's: the error must still reach the caller,
    // and only after every thread is done and the sinks are flushed.
    // The failure stops the campaign: at jobs 1 series 8-15 never
    // start, so the sink sees runs 0-6 only.
    const auto runs = manySeriesCampaign(true);
    ASSERT_EQ(runs.size(), 16u);
    ASSERT_EQ(runs[7].config.traffic, TrafficKind::Hotspot);
    ASSERT_EQ(runs[15].config.traffic, TrafficKind::Hotspot);
    std::vector<CampaignRun> one_bad = runs;
    one_bad[15].config.hotspot.hotspots.clear(); // the mesh center

    struct FlushCounter : ResultSink
    {
        std::vector<std::size_t> written;
        int flushes = 0;
        void write(const RunResult& r) override
        {
            written.push_back(r.run.index);
        }
        void flush() override { ++flushes; }
    };
    for (unsigned jobs : {1u, 2u, 16u}) {
        CampaignOptions opts;
        opts.jobs = jobs;
        FlushCounter sink;
        try {
            runCampaign(one_bad, opts, {&sink});
            ADD_FAILURE() << "jobs " << jobs << ": no error surfaced";
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("hotspot"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(sink.flushes, 1) << "jobs " << jobs;
        if (jobs == 1) {
            EXPECT_EQ(sink.written,
                      (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
        }
    }
}

TEST(CampaignRunner, CampaignThreadsCountsTheThreadsThatRun)
{
    // The caller plus one thread per further job, never more than the
    // series: a series runs on one thread. lapses-campaign prints this
    // count in its summary.
    const auto runs = smallCampaign();
    ASSERT_EQ(runs.back().series, 7u);
    EXPECT_EQ(campaignThreads(runs, 1), 1u);
    EXPECT_EQ(campaignThreads(runs, 3), 3u);
    EXPECT_EQ(campaignThreads(runs, 8), 8u);
    EXPECT_EQ(campaignThreads(runs, 9), 8u);
    EXPECT_EQ(campaignThreads(runs, 4294967295u), 8u);
    EXPECT_EQ(campaignThreads(runs, 0),
              std::min<std::size_t>(resolveJobs(0), 8));

    // One load sweep is one series, so one thread at any job count.
    const std::vector<CampaignRun> sweep(runs.begin(), runs.begin() + 13);
    ASSERT_EQ(sweep.back().series, 0u);
    EXPECT_EQ(campaignThreads(sweep, 8), 1u);
}

TEST(CampaignRunner, EverySeriesRunsOnceWhateverTheThreadCount)
{
    // Threads take series from one counter until none is left. Thread
    // counts that do not divide the sixteen series make some threads
    // take more than others; jobs 0 takes every hardware thread. Each
    // run must still be emitted exactly once, in run-index order, with
    // the serial bytes.
    const auto runs = manySeriesCampaign();
    ASSERT_EQ(runs.back().series, 15u);
    const std::string serial = runToJsonl(runs, 1);
    for (unsigned jobs : {0u, 2u, 3u, 5u, 7u, 16u}) {
        std::ostringstream os;
        JsonlSink sink(os);
        CampaignOptions opts;
        opts.jobs = jobs;
        std::vector<std::size_t> seen;
        opts.progress = [&seen](const RunResult& r) {
            seen.push_back(r.run.index);
        };
        runCampaign(runs, opts, {&sink});
        ASSERT_EQ(seen.size(), runs.size()) << "jobs " << jobs;
        for (std::size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], i) << "jobs " << jobs;
        EXPECT_EQ(os.str(), serial) << "jobs " << jobs;
    }
}

TEST(CampaignRunner, ResumeRejectsAMismatchedCampaign)
{
    const auto runs = smallCampaign();
    const std::string full = runToJsonl(runs, 1);
    std::istringstream full_is(full);
    const ResumeState resume =
        scanResume(full_is, SinkFormat::Jsonl);

    // Same campaign: fine.
    EXPECT_NO_THROW(validateResume(resume, runs, SinkFormat::Jsonl));

    // Changed campaign seed: every record's seed is stale.
    CampaignGrid other;
    other.base.radices = {4, 4};
    other.campaignSeed = 1234;
    other.axes.loads = {0.05, 0.08};
    EXPECT_THROW(
        validateResume(resume, other.expand(), SinkFormat::Jsonl),
        ConfigError);
}

TEST(ResultSinks, CsvAndJsonlShareTheRecordSchema)
{
    CampaignGrid grid;
    grid.base.radices = {4, 4};
    grid.base.warmupMessages = 5;
    grid.base.measureMessages = 30;
    grid.axes.loads = {0.1};
    const auto runs = grid.expand();

    std::ostringstream json_os;
    std::ostringstream csv_os;
    JsonlSink json_sink(json_os);
    CsvSink csv_sink(csv_os);
    runCampaign(runs, CampaignOptions{}, {&json_sink, &csv_sink});

    const std::string json = json_os.str();
    EXPECT_NE(json.find("\"run\":0"), std::string::npos);
    EXPECT_NE(json.find("\"seed\":"), std::string::npos);
    EXPECT_NE(json.find("\"latency_mean\":"), std::string::npos);

    const std::string csv = csv_os.str();
    EXPECT_NE(csv.find("run,series,mesh,topology,model,"),
              std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);

    // Round-trip: the CSV scanner recovers the completed run.
    std::istringstream csv_is(csv);
    const ResumeState state = scanResume(csv_is, SinkFormat::Csv);
    EXPECT_EQ(state.completed.size(), 1u);
    EXPECT_TRUE(state.isDone(0));
}

TEST(ResultSinks, JsonEscapesStringCoordinates)
{
    // A file path with a quote once made the record
    // {..."topology":"file:a"b/ring.topo"...}, which no JSON parser
    // accepts.
    CampaignGrid grid;
    grid.base.topology =
        parseTopologySpec("--topology", "file:a\"b\\c\td/ring.topo");
    const std::vector<CampaignRun> runs = grid.expand();
    const std::string escaped = "\"file:a\\\"b\\\\c\\u0009d/ring.topo\"";
    const std::string line = runResultJson({runs[0], SimStats{}});
    EXPECT_NE(line.find("\"topology\":" + escaped), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"mesh\":" + escaped), std::string::npos)
        << line;

    // The resume scan and the prefix check read the escaped record.
    std::istringstream is(line + '\n');
    const ResumeState state = scanResume(is, SinkFormat::Jsonl);
    EXPECT_TRUE(state.isDone(0));
    EXPECT_NO_THROW(validateResume(state, runs, SinkFormat::Jsonl));
}

} // namespace
} // namespace lapses
