/**
 * @file
 * Network-level tests: delivery, conservation, backpressure, and exact
 * contention-free latency through the full NIC-router-link stack.
 */

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.model = RouterModel::LaProud;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::Full;
    cfg.selector = SelectorKind::StaticXY;
    cfg.traffic = TrafficKind::Uniform;
    cfg.normalizedLoad = 0.1;
    cfg.msgLen = 4;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 500;
    return cfg;
}

TEST(Network, DeliversEveryMeasuredMessage)
{
    Simulation sim(tinyConfig());
    const SimStats st = sim.run();
    EXPECT_FALSE(st.saturated);
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    EXPECT_GE(st.deliveredMessages, 500u);
    EXPECT_EQ(st.deliveredFlits, st.deliveredMessages * 4);
}

TEST(Network, FlitConservationAfterDrain)
{
    // After the run drains, nothing may remain buffered anywhere.
    SimConfig cfg = tinyConfig();
    Simulation sim(cfg);
    (void)sim.run();
    Network& net = sim.network();
    // Stop injection by stepping without new arrivals is not possible
    // in open loop, so check a weaker invariant: delivered totals can
    // never exceed created totals, and occupancy is bounded by what is
    // still in flight.
    EXPECT_LE(net.deliveredTotal(), net.createdTotal());
    EXPECT_LE(net.totalOccupancy(),
              (net.createdTotal() - net.deliveredTotal() +
               net.totalBacklog() + 64) * 4);
}

TEST(Network, ContentionFreeLatencyFormulaLaProud)
{
    // At near-zero load the measured network latency must match the
    // pipeline model exactly: (4 router stages + 1 link) per hop, the
    // 2-cycle injection link, and serialization (L-1).
    SimConfig cfg = tinyConfig();
    cfg.normalizedLoad = 0.02;
    cfg.msgLen = 4;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    ASSERT_FALSE(st.saturated);
    const double expected =
        2.0 + 5.0 * st.hops.mean() + (cfg.msgLen - 1);
    EXPECT_NEAR(st.meanNetworkLatency(), expected, 1.0);
}

TEST(Network, ContentionFreeLatencyFormulaProud)
{
    // PROUD spends one extra stage per router: 6 cycles per hop
    // (Table 2: router latency 5 + link delay 1).
    SimConfig cfg = tinyConfig();
    cfg.model = RouterModel::Proud;
    cfg.normalizedLoad = 0.02;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    ASSERT_FALSE(st.saturated);
    const double expected =
        2.0 + 6.0 * st.hops.mean() + (cfg.msgLen - 1);
    EXPECT_NEAR(st.meanNetworkLatency(), expected, 1.0);
}

TEST(Network, LookaheadSavesOneCyclePerHop)
{
    SimConfig cfg = tinyConfig();
    cfg.normalizedLoad = 0.02;
    cfg.seed = 77;
    Simulation la(cfg);
    const SimStats st_la = la.run();
    cfg.model = RouterModel::Proud;
    Simulation proud(cfg);
    const SimStats st_pr = proud.run();
    // Same seed, same traffic: the gap is exactly one cycle per hop.
    EXPECT_NEAR(st_pr.meanNetworkLatency() - st_la.meanNetworkLatency(),
                st_la.hops.mean(), 0.5);
}

TEST(Network, HopsMatchMinimalDistancePlusOne)
{
    // Minimal routing: hops = Manhattan distance + 1 (the destination
    // router also forwards to its NIC). Mean distance on a k-mesh
    // under uniform traffic is 2*(k^2-1)/(3k) (excluding self).
    SimConfig cfg = tinyConfig();
    Simulation sim(cfg);
    const SimStats st = sim.run();
    const double k = 4.0;
    const double mean_dist =
        2.0 * (k * k - 1.0) / (3.0 * k) * (16.0 / 15.0);
    EXPECT_NEAR(st.hops.mean(), mean_dist + 1.0, 0.25);
}

TEST(Network, ProgressCounterAdvances)
{
    SimConfig cfg = tinyConfig();
    Simulation sim(cfg);
    Network& net = sim.network();
    const std::uint64_t before = net.progressCounter();
    sim.stepCycles(200);
    EXPECT_GT(net.progressCounter(), before);
}

TEST(Network, TotalLatencyIncludesSourceQueueing)
{
    // At saturating load the source queues grow, so total latency
    // must exceed network latency.
    SimConfig cfg = tinyConfig();
    cfg.traffic = TrafficKind::Transpose;
    cfg.normalizedLoad = 1.2;
    cfg.measureMessages = 800;
    cfg.latencySatCutoff = 1e9; // let queues build for the check
    cfg.backlogSatPerNode = 1e9;
    cfg.maxCycles = 30000;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_GT(st.totalLatency.mean(), st.networkLatency.mean());
}

TEST(Network, BackpressureNeverOverflowsBuffers)
{
    // Overload the network; LAPSES_ASSERT in FifoSet aborts on any
    // credit accounting error, so surviving the run is the assertion.
    SimConfig cfg = tinyConfig();
    cfg.traffic = TrafficKind::BitReversal;
    cfg.normalizedLoad = 1.5;
    cfg.measureMessages = 500;
    cfg.maxCycles = 20000;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_TRUE(st.saturated || st.deliveredMessages > 0);
}

TEST(Network, DeterministicAcrossRuns)
{
    SimConfig cfg = tinyConfig();
    cfg.seed = 1234;
    Simulation a(cfg);
    Simulation b(cfg);
    const SimStats sa = a.run();
    const SimStats sb = b.run();
    EXPECT_DOUBLE_EQ(sa.meanLatency(), sb.meanLatency());
    EXPECT_EQ(sa.deliveredMessages, sb.deliveredMessages);
    EXPECT_EQ(sa.deliveredFlits, sb.deliveredFlits);
}

TEST(Network, SeedChangesTraffic)
{
    SimConfig cfg = tinyConfig();
    cfg.seed = 1;
    Simulation a(cfg);
    cfg.seed = 2;
    Simulation b(cfg);
    EXPECT_NE(a.run().meanLatency(), b.run().meanLatency());
}

} // namespace
} // namespace lapses
