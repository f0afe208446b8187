/**
 * @file
 * Unit tests for the Simulation facade: phases, saturation detection,
 * escape-VC auto-resolution and the sweep driver.
 */

#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "core/experiment.hpp"
#include "core/simulation.hpp"

namespace lapses
{
namespace
{

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.2;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 400;
    return cfg;
}

TEST(Simulation, RunsMeasuresAndDrains)
{
    Simulation sim(smallConfig());
    const SimStats st = sim.run();
    EXPECT_FALSE(st.saturated);
    EXPECT_GE(st.injectedMessages, 400u);
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    EXPECT_GT(st.meanLatency(), 0.0);
    EXPECT_GT(st.measuredCycles, 0u);
    EXPECT_GT(st.acceptedFlitRate, 0.0);
}

TEST(Simulation, OfferedRateMatchesLoadModel)
{
    SimConfig cfg = smallConfig();
    Simulation sim(cfg);
    // 4x4 mesh: bisection saturation 4k/N = 1.0 flits/node/cycle, so
    // load 0.2 offers 0.2.
    EXPECT_NEAR(sim.run().offeredFlitRate, 0.2, 1e-12);
}

TEST(Simulation, AcceptedTracksOfferedBelowSaturation)
{
    Simulation sim(smallConfig());
    const SimStats st = sim.run();
    EXPECT_NEAR(st.acceptedFlitRate, st.offeredFlitRate,
                0.015);
}

TEST(Simulation, EscapeVcAutoResolution)
{
    SimConfig cfg = smallConfig();
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::Full;
    EXPECT_EQ(Simulation(cfg).effectiveEscapeVcs(), 1);

    cfg.table = TableKind::MetaBlockMaximal;
    EXPECT_EQ(Simulation(cfg).effectiveEscapeVcs(), 2);

    cfg.table = TableKind::MetaRowMinimal;
    EXPECT_EQ(Simulation(cfg).effectiveEscapeVcs(), 2);

    cfg.table = TableKind::Full;
    cfg.escapeVcs = 3;
    EXPECT_EQ(Simulation(cfg).effectiveEscapeVcs(), 3);
}

TEST(Simulation, MetaTableNeedsThreeVcs)
{
    SimConfig cfg = smallConfig();
    cfg.table = TableKind::MetaBlockMaximal;
    cfg.vcsPerPort = 2; // 2 escape VCs leave no adaptive VC
    EXPECT_THROW(Simulation{cfg}, ConfigError);
}

TEST(Simulation, SaturationDetectedUnderOverload)
{
    SimConfig cfg = smallConfig();
    cfg.traffic = TrafficKind::Transpose;
    cfg.normalizedLoad = 2.0; // far beyond capacity
    cfg.measureMessages = 2000;
    cfg.maxCycles = 200000;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_TRUE(st.saturated);
}

TEST(Simulation, StatsExposeDistribution)
{
    Simulation sim(smallConfig());
    const SimStats st = sim.run();
    EXPECT_GT(st.latencyHist.count(), 0u);
    EXPECT_GE(st.latencyHist.percentile(0.99),
              st.latencyHist.percentile(0.5));
    EXPECT_GE(st.totalLatency.max(), st.totalLatency.mean());
    EXPECT_LE(st.totalLatency.min(), st.totalLatency.mean());
    EXPECT_GE(st.hops.min(), 1.0);
}

TEST(Simulation, NetworkLatencyNeverExceedsTotal)
{
    Simulation sim(smallConfig());
    const SimStats st = sim.run();
    EXPECT_LE(st.meanNetworkLatency(), st.meanLatency() + 1e-9);
}

TEST(Simulation, StepCyclesAdvancesClock)
{
    Simulation sim(smallConfig());
    sim.stepCycles(123);
    EXPECT_EQ(sim.network().now(), 123u);
}

TEST(Simulation, AccessorsExposeConfiguration)
{
    SimConfig cfg = smallConfig();
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    Simulation sim(cfg);
    EXPECT_EQ(sim.topology().numNodes(), 16);
    EXPECT_EQ(sim.algorithm().name(), "duato");
    EXPECT_EQ(sim.table().name(), "economical-storage");
    EXPECT_EQ(sim.config().msgLen, 4);
}

TEST(Experiment, LoadSweepStopsSimulatingAfterSaturation)
{
    SimConfig cfg = smallConfig();
    cfg.traffic = TrafficKind::Transpose;
    cfg.measureMessages = 300;
    cfg.maxCycles = 100000;
    const std::vector<double> loads = {0.1, 2.5, 3.0};
    const auto points = runLoadSweep(cfg, loads);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_FALSE(points[0].stats.saturated);
    EXPECT_TRUE(points[1].stats.saturated);
    // The third point is marked saturated without simulation.
    EXPECT_TRUE(points[2].stats.saturated);
    EXPECT_EQ(points[2].stats.deliveredMessages, 0u);
}

TEST(Experiment, LoadSweepInvokesProgress)
{
    SimConfig cfg = smallConfig();
    cfg.measureMessages = 100;
    int calls = 0;
    runLoadSweep(cfg, {0.1, 0.2},
                 [&](const SweepPoint&) { ++calls; });
    EXPECT_EQ(calls, 2);
}

TEST(Experiment, BenchModesScaleBudgets)
{
    SimConfig cfg;
    applyBenchMode(cfg, BenchMode::Quick);
    const auto quick = cfg.measureMessages;
    applyBenchMode(cfg, BenchMode::Default);
    const auto def = cfg.measureMessages;
    applyBenchMode(cfg, BenchMode::Paper);
    EXPECT_LT(quick, def);
    // Paper scale per Section 2.2.
    EXPECT_EQ(cfg.measureMessages, 400000u);
    EXPECT_EQ(cfg.warmupMessages, 10000u);
}

TEST(Experiment, ResolveJobsTakesZeroAsEveryHardwareThread)
{
    // The one fallback every jobs option shares (--jobs, --intra-jobs,
    // LAPSES_JOBS): 0 asks for every hardware thread, and an unknown
    // hardware count still leaves one thread to run on.
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(resolveJobs(0), hw != 0 ? hw : 1u);
    // Any other request is taken as given; callers do their own caps.
    for (const unsigned n :
         {1u, 2u, 7u, std::numeric_limits<unsigned>::max()})
        EXPECT_EQ(resolveJobs(n), n) << n;
}

TEST(Simulation, SeedMakesRunsReproducible)
{
    // The CLI's --seed threads through SimConfig: identical seeds
    // reproduce a run bit-for-bit, distinct seeds decorrelate it.
    SimConfig cfg = smallConfig();
    cfg.seed = 123;
    Simulation a(cfg);
    const SimStats sa = a.run();
    Simulation b(cfg);
    const SimStats sb = b.run();
    EXPECT_EQ(sa.meanLatency(), sb.meanLatency());
    EXPECT_EQ(sa.deliveredMessages, sb.deliveredMessages);
    EXPECT_EQ(sa.measuredCycles, sb.measuredCycles);

    cfg.seed = 124;
    Simulation c(cfg);
    const SimStats sc = c.run();
    EXPECT_NE(sa.meanLatency(), sc.meanLatency());
}

TEST(Experiment, LatencyCellFormatsLikeThePaper)
{
    SimStats st;
    st.totalLatency.add(74.04);
    EXPECT_EQ(latencyCell(st), "74.0");
    st.saturated = true;
    EXPECT_EQ(latencyCell(st), "Sat.");
}

} // namespace
} // namespace lapses
