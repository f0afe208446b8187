/**
 * @file
 * Deadlock-freedom property tests.
 *
 * These runs push configurations to loads beyond saturation — the
 * regime where wormhole deadlock would manifest — and rely on the
 * simulation's progress watchdog: if any configuration can deadlock,
 * run() throws SimulationError. Saturated results are fine; deadlock is
 * a failure.
 */

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

/** (routing, table, traffic, load) stress combination. */
using Stress = std::tuple<RoutingAlgo, TableKind, TrafficKind, double>;

class DeadlockFreedom : public ::testing::TestWithParam<Stress>
{
};

TEST_P(DeadlockFreedom, SurvivesOverload)
{
    const auto [routing, table, traffic, load] = GetParam();
    SimConfig cfg;
    cfg.radices = {6, 6};
    cfg.msgLen = 8;
    cfg.bufferDepth = 8; // small buffers tighten dependency chains
    cfg.routing = routing;
    cfg.table = table;
    cfg.traffic = traffic;
    cfg.normalizedLoad = load;
    cfg.warmupMessages = 100;
    cfg.measureMessages = 1500;
    cfg.maxCycles = 150000;
    cfg.deadlockCycles = 8000;
    cfg.seed = 99;
    Simulation sim(cfg);
    // Saturation is acceptable; SimulationError (deadlock) is not.
    EXPECT_NO_THROW({
        const SimStats st = sim.run();
        (void)st;
    }) << cfg.describe();
}

INSTANTIATE_TEST_SUITE_P(
    DuatoTables, DeadlockFreedom,
    ::testing::Combine(
        ::testing::Values(RoutingAlgo::DuatoFullyAdaptive),
        ::testing::Values(TableKind::Full, TableKind::MetaRowMinimal,
                          TableKind::MetaBlockMaximal,
                          TableKind::EconomicalStorage),
        ::testing::Values(TrafficKind::Uniform, TrafficKind::Transpose,
                          TrafficKind::Tornado),
        ::testing::Values(0.8, 1.4)));

INSTANTIATE_TEST_SUITE_P(
    TurnModels, DeadlockFreedom,
    ::testing::Combine(
        ::testing::Values(RoutingAlgo::NorthLast, RoutingAlgo::WestFirst,
                          RoutingAlgo::NegativeFirst,
                          RoutingAlgo::DeterministicXY),
        ::testing::Values(TableKind::EconomicalStorage),
        ::testing::Values(TrafficKind::Transpose, TrafficKind::Tornado),
        ::testing::Values(1.2)));

TEST(DeadlockFreedom, MinimalVcBudget)
{
    // Duato's theorem holds with 2 VCs (1 escape + 1 adaptive) on a
    // 2-D mesh; the tightest configuration we support.
    SimConfig cfg;
    cfg.radices = {5, 5};
    cfg.vcsPerPort = 2;
    cfg.escapeVcs = 1;
    cfg.msgLen = 6;
    cfg.bufferDepth = 6;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    cfg.traffic = TrafficKind::Transpose;
    cfg.normalizedLoad = 1.5;
    cfg.warmupMessages = 100;
    cfg.measureMessages = 1200;
    cfg.maxCycles = 120000;
    cfg.deadlockCycles = 8000;
    Simulation sim(cfg);
    EXPECT_NO_THROW((void)sim.run());
}

TEST(DeadlockFreedom, MetaTableWithThreeVcs)
{
    // Meta tables need 2 escape VCs; with 3 total there is a single
    // adaptive VC left — still deadlock-free.
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.vcsPerPort = 3;
    cfg.msgLen = 6;
    cfg.bufferDepth = 6;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::MetaBlockMaximal;
    cfg.traffic = TrafficKind::Transpose;
    cfg.normalizedLoad = 1.5;
    cfg.warmupMessages = 100;
    cfg.measureMessages = 1000;
    cfg.maxCycles = 100000;
    cfg.deadlockCycles = 8000;
    Simulation sim(cfg);
    EXPECT_NO_THROW((void)sim.run());
}

TEST(DeadlockFreedom, TorusAdaptiveSurvivesOverload)
{
    // Dateline escape classes on a torus: tornado traffic is the
    // adversarial ring workload; the run may saturate but must not
    // deadlock.
    for (TrafficKind traffic :
         {TrafficKind::Tornado, TrafficKind::Transpose,
          TrafficKind::Uniform}) {
        SimConfig cfg;
        cfg.radices = {6, 6};
        cfg.topology.kind = TopologyKind::Torus;
        cfg.routing = RoutingAlgo::TorusAdaptive;
        cfg.table = TableKind::Full;
        cfg.msgLen = 8;
        cfg.bufferDepth = 8;
        cfg.traffic = traffic;
        cfg.normalizedLoad = 1.3;
        cfg.warmupMessages = 100;
        cfg.measureMessages = 1500;
        cfg.maxCycles = 150000;
        cfg.deadlockCycles = 8000;
        Simulation sim(cfg);
        EXPECT_NO_THROW((void)sim.run()) << enumName(traffic);
    }
}

TEST(DeadlockFreedom, TorusAdaptiveDelivers)
{
    SimConfig cfg;
    cfg.radices = {6, 6};
    cfg.topology.kind = TopologyKind::Torus;
    cfg.routing = RoutingAlgo::TorusAdaptive;
    cfg.table = TableKind::Full;
    cfg.msgLen = 8;
    cfg.traffic = TrafficKind::Uniform;
    cfg.normalizedLoad = 0.3;
    cfg.warmupMessages = 100;
    cfg.measureMessages = 1000;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_FALSE(st.saturated);
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    // Wrap links roughly halve the average distance vs a mesh.
    EXPECT_LT(st.hops.mean(), 4.5);
    EXPECT_EQ(sim.effectiveEscapeVcs(), 2);
}

TEST(DeadlockFreedom, WatchdogCatchesRealDeadlock)
{
    // Sanity-check the watchdog itself: XY routing on a torus *can*
    // deadlock around the wrap cycle at high load. The watchdog must
    // either see saturation or fire — the run must terminate. (If the
    // run neither saturates nor deadlocks, that is fine too; the point
    // is no hang.)
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.topology.kind = TopologyKind::Torus;
    cfg.routing = RoutingAlgo::DeterministicXY;
    cfg.table = TableKind::Full;
    cfg.traffic = TrafficKind::Uniform;
    cfg.vcsPerPort = 1;
    cfg.bufferDepth = 2;
    cfg.msgLen = 8;
    cfg.normalizedLoad = 1.8;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 2000;
    cfg.maxCycles = 120000;
    cfg.deadlockCycles = 5000;
    Simulation sim(cfg);
    try {
        const SimStats st = sim.run();
        SUCCEED() << (st.saturated ? "saturated" : "completed");
    } catch (const SimulationError& e) {
        // Expected possibility: the watchdog identified the deadlock.
        EXPECT_NE(std::string(e.what()).find("deadlock"),
                  std::string::npos);
    }
}

} // namespace
} // namespace lapses
