/**
 * @file
 * Unit tests for LinkFaults, the owner of link faults on a live
 * network: the fault and reconfiguration boundaries it reports, the
 * order of an event and its zero-latency reconfiguration, which purge
 * path drops an unroutable head, and the schedule's cycle bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

/** A 4x4 mesh with (5)->(6) down at cycle 100 and (9)->(13) at 120. */
SimConfig
twoDowns(Cycle latency)
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.3;
    cfg.reconfigLatency = latency;
    cfg.faultEvents = {{100, 5, 1, true}, {120, 9, 3, true}};
    return cfg;
}

TEST(LinkFaults, BoundariesAreEventsThenReconfigurations)
{
    Simulation sim(twoDowns(50));
    Network& net = sim.network();
    // (cycle the value was first seen at, next boundary)
    std::vector<std::pair<Cycle, Cycle>> seen;
    while (net.now() < 300) {
        const Cycle next = net.faults().nextCycle();
        if (seen.empty() || seen.back().second != next)
            seen.emplace_back(net.now(), next);
        net.step();
    }
    const std::vector<std::pair<Cycle, Cycle>> want = {
        {0, 100}, {101, 120}, {121, 150}, {151, 170}, {171, kNeverCycle}};
    EXPECT_EQ(seen, want);
    EXPECT_EQ(net.faults().counters().linkDownEvents, 2u);
    EXPECT_EQ(net.faults().counters().reconfigurations, 2u);
}

TEST(LinkFaults, IdleFastForwardStopsAtEveryBoundary)
{
    Simulation sim(twoDowns(50));
    Network& net = sim.network();
    net.setInjectionEnabled(false);
    std::vector<Cycle> landed;
    while (net.now() < 300) {
        net.stepUntil(300);
        landed.push_back(net.now());
    }
    for (const Cycle boundary : {100, 120, 150, 170}) {
        EXPECT_NE(std::find(landed.begin(), landed.end(), boundary),
                  landed.end())
            << "fast-forward skipped cycle " << boundary;
    }
    EXPECT_EQ(net.faults().counters().reconfigurations, 2u);
}

TEST(LinkFaults, ZeroLatencyReconfiguresAfterTheEventInItsCycle)
{
    SimConfig cfg = twoDowns(0);
    cfg.table = TableKind::Full;
    Simulation sim(cfg);
    Network& net = sim.network();
    const RoutingTable& table = sim.table();
    const auto routes_east_of_5 = [&] {
        for (NodeId d = 0; d < sim.topology().numNodes(); ++d) {
            if (d != 5 && table.lookup(5, d).contains(1))
                return true;
        }
        return false;
    };
    while (net.now() < 100)
        net.step();
    ASSERT_EQ(net.faults().counters().linkDownEvents, 0u);
    ASSERT_TRUE(routes_east_of_5());

    net.step(); // cycle 100: the event, then its reconfiguration
    EXPECT_EQ(net.faults().counters().linkDownEvents, 1u);
    EXPECT_EQ(net.faults().counters().reconfigurations, 1u);
    EXPECT_EQ(net.faults().lastFaultCycle(), 100u);
    EXPECT_EQ(net.faults().nextCycle(), 120u);
    // The table was reprogrammed around the link that just died.
    EXPECT_FALSE(routes_east_of_5());

    while (net.now() < 121)
        net.step();
    EXPECT_EQ(net.faults().counters().linkDownEvents, 2u);
    EXPECT_EQ(net.faults().counters().reconfigurations, 2u);
    EXPECT_EQ(net.faults().nextCycle(), kNeverCycle);
}

TEST(LinkFaults, SweepsThenStepsDropUnroutableHeads)
{
    // Economical storage cannot be reprogrammed, so XY heads bound
    // through a dead link stay unroutable. While a reconfiguration is
    // pending they stall; each sweep drops the held ones; once the
    // last window closes, the routers' own reports drop the rest.
    for (const auto& [name, kernel] :
         {std::pair{"scan", KernelKind::Scan},
          std::pair{"active", KernelKind::Active},
          std::pair{"parallel/3", KernelKind::Parallel}}) {
        SimConfig cfg;
        cfg.radices = {6, 6};
        cfg.msgLen = 8;
        cfg.normalizedLoad = 0.3;
        cfg.table = TableKind::EconomicalStorage;
        cfg.routing = RoutingAlgo::DeterministicXY;
        cfg.faultPolicy = FaultPolicy::Reinject;
        cfg.reconfigLatency = 50;
        cfg.faultEvents = {{100, 14, 1, true}, {120, 15, 1, true}};
        cfg.kernel = kernel;
        cfg.intraJobs = 3;
        Simulation sim(cfg);
        Network& net = sim.network();
        const LinkFaults& faults = net.faults();
        while (net.now() < 150) {
            net.step();
            ASSERT_EQ(faults.counters().droppedMessages, 0u)
                << name << " cycle " << net.now() - 1;
        }
        net.step(); // cycle 150: the first sweep
        EXPECT_EQ(faults.counters().reconfigurations, 1u) << name;
        EXPECT_EQ(faults.counters().droppedMessages, 7u) << name;
        while (net.now() < 170) {
            net.step();
            ASSERT_EQ(faults.counters().droppedMessages, 7u)
                << name << " cycle " << net.now() - 1;
        }
        net.step(); // cycle 170: the second sweep closes the window
        EXPECT_EQ(faults.counters().reconfigurations, 2u) << name;
        EXPECT_EQ(faults.counters().droppedMessages, 10u) << name;
        while (net.now() < 400)
            net.step();
        EXPECT_EQ(faults.counters().reconfigurations, 2u) << name;
        EXPECT_GT(faults.counters().droppedMessages, 10u) << name;
    }
}

/** The ConfigError message building `cfg`'s network throws. */
std::string
configError(const SimConfig& cfg)
{
    try {
        Simulation sim(cfg);
    } catch (const ConfigError& e) {
        return e.what();
    }
    return "no error";
}

TEST(LinkFaults, ReconfigurationPastTheLastCycleRejected)
{
    SimConfig cfg = twoDowns(kNeverCycle);
    EXPECT_EQ(configError(cfg),
              "fault event 9:3@120 + --reconfig-latency "
              "18446744073709551615 passes the last cycle "
              "(18446744073709551614)");
    // The latest event's reconfiguration may land on the last cycle.
    cfg.reconfigLatency = kNeverCycle - 1 - 120;
    EXPECT_EQ(configError(cfg), "no error");
}

TEST(LinkFaults, RandomFaultPastTheLastCycleRejected)
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.faultCount = 2;
    cfg.faultStart = 18446744073709551000u;
    cfg.faultSpacing = 1000;
    cfg.reconfigLatency = 0;
    EXPECT_EQ(configError(cfg),
              "--fault-start 18446744073709551000 + 1 x --fault-spacing "
              "1000 passes the last cycle (18446744073709551614)");
    cfg.faultSpacing = 614; // the second fault lands on the last cycle
    EXPECT_EQ(configError(cfg), "no error");
}

} // namespace
} // namespace lapses
