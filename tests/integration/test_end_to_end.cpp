/**
 * @file
 * Integration tests: every (router model x algorithm x table x
 * selector) combination delivers traffic end to end.
 */

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

SimConfig
baseConfig()
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.25;
    cfg.warmupMessages = 40;
    cfg.measureMessages = 300;
    return cfg;
}

/** (model, routing, table, selector) combination under test. */
using Combo = std::tuple<RouterModel, RoutingAlgo, TableKind,
                         SelectorKind>;

class EndToEnd : public ::testing::TestWithParam<Combo>
{
};

TEST_P(EndToEnd, DeliversAllMeasuredTraffic)
{
    const auto [model, routing, table, selector] = GetParam();
    SimConfig cfg = baseConfig();
    cfg.model = model;
    cfg.routing = routing;
    cfg.table = table;
    cfg.selector = selector;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_FALSE(st.saturated) << cfg.describe();
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    EXPECT_GT(st.meanLatency(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndTables, EndToEnd,
    ::testing::Combine(
        ::testing::Values(RouterModel::Proud, RouterModel::LaProud),
        ::testing::Values(RoutingAlgo::DuatoFullyAdaptive),
        ::testing::Values(TableKind::Full, TableKind::MetaRowMinimal,
                          TableKind::MetaBlockMaximal,
                          TableKind::EconomicalStorage),
        ::testing::Values(SelectorKind::StaticXY)));

INSTANTIATE_TEST_SUITE_P(
    Selectors, EndToEnd,
    ::testing::Combine(
        ::testing::Values(RouterModel::LaProud),
        ::testing::Values(RoutingAlgo::DuatoFullyAdaptive),
        ::testing::Values(TableKind::Full),
        ::testing::Values(SelectorKind::StaticXY,
                          SelectorKind::FirstFree, SelectorKind::Random,
                          SelectorKind::MinMux, SelectorKind::Lfu,
                          SelectorKind::Lru, SelectorKind::MaxCredit)));

INSTANTIATE_TEST_SUITE_P(
    Algorithms, EndToEnd,
    ::testing::Combine(
        ::testing::Values(RouterModel::Proud, RouterModel::LaProud),
        ::testing::Values(RoutingAlgo::DeterministicXY,
                          RoutingAlgo::DeterministicYX,
                          RoutingAlgo::NorthLast, RoutingAlgo::WestFirst,
                          RoutingAlgo::NegativeFirst),
        ::testing::Values(TableKind::Full,
                          TableKind::EconomicalStorage),
        ::testing::Values(SelectorKind::StaticXY)));

TEST(EndToEndExtra, IntervalTableRunsDeterministicTraffic)
{
    SimConfig cfg = baseConfig();
    cfg.routing = RoutingAlgo::DeterministicXY;
    cfg.table = TableKind::Interval;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
}

TEST(EndToEndExtra, SingleFlitMessages)
{
    SimConfig cfg = baseConfig();
    cfg.msgLen = 1;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    EXPECT_EQ(st.deliveredFlits, st.deliveredMessages);
}

TEST(EndToEndExtra, MessagesLongerThanBuffers)
{
    // 50-flit messages through 20-flit buffers: true wormhole
    // (a message spans several routers).
    SimConfig cfg = baseConfig();
    cfg.msgLen = 50;
    cfg.normalizedLoad = 0.15;
    cfg.measureMessages = 150;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    EXPECT_GT(st.meanNetworkLatency(), 49.0); // at least serialization
}

TEST(EndToEndExtra, ThreeDimensionalMesh)
{
    SimConfig cfg = baseConfig();
    cfg.radices = {3, 3, 3};
    cfg.traffic = TrafficKind::Uniform;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
}

TEST(EndToEndExtra, RectangularMesh)
{
    SimConfig cfg = baseConfig();
    cfg.radices = {8, 2};
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
}

TEST(EndToEndExtra, TorusWithDeterministicTables)
{
    // Torus + XY-with-wrap is not deadlock-free in general, but at
    // very low load with short messages the run completes; this
    // exercises wrap-link wiring. (Adaptive/ES configs reject tori.)
    SimConfig cfg = baseConfig();
    cfg.topology.kind = TopologyKind::Torus;
    cfg.routing = RoutingAlgo::DeterministicXY;
    cfg.table = TableKind::Full;
    cfg.normalizedLoad = 0.05;
    cfg.measureMessages = 100;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    // Wrap links shorten paths: mean hops below the mesh value.
    EXPECT_LT(st.hops.mean(), 3.2);
}

TEST(EndToEndExtra, EveryTrafficPatternRuns)
{
    for (TrafficKind kind :
         {TrafficKind::Uniform, TrafficKind::Transpose,
          TrafficKind::BitReversal, TrafficKind::PerfectShuffle,
          TrafficKind::BitComplement, TrafficKind::Tornado,
          TrafficKind::Neighbor, TrafficKind::Hotspot}) {
        SimConfig cfg = baseConfig();
        cfg.normalizedLoad = 0.1;
        cfg.measureMessages = 150;
        cfg.traffic = kind;
        Simulation sim(cfg);
        const SimStats st = sim.run();
        EXPECT_EQ(st.deliveredMessages, st.injectedMessages)
            << enumName(kind);
    }
}

} // namespace
} // namespace lapses
