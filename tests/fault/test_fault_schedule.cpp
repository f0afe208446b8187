/**
 * @file
 * Unit tests for the fault-event subsystem: event parsing, seeded
 * random-schedule determinism, schedule validation (illegal
 * transitions and network-cutting events rejected with the full cut
 * report), and the upfront connectivity check shared with
 * programFaultAwareTable.
 */

#include <gtest/gtest.h>

#include "fault/fault_schedule.hpp"
#include "tables/fault_aware.hpp"
#include "topology/mesh.hpp"

namespace lapses
{
namespace
{

TEST(FaultEvent, ParsesCliForm)
{
    const FaultEvent down = parseFaultEvent("12:1@2000");
    EXPECT_EQ(down.node, 12);
    EXPECT_EQ(down.port, 1);
    EXPECT_EQ(down.cycle, 2000u);
    EXPECT_TRUE(down.down);
    EXPECT_EQ(down.str(), "12:1@2000");

    const FaultEvent up = parseFaultEvent("3:4@150", /*down=*/false);
    EXPECT_FALSE(up.down);
    EXPECT_EQ(up.str(), "+3:4@150");
}

TEST(FaultEvent, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseFaultEvent(""), ConfigError);
    EXPECT_THROW(parseFaultEvent("12"), ConfigError);
    EXPECT_THROW(parseFaultEvent("12:1"), ConfigError);
    EXPECT_THROW(parseFaultEvent("12@1:2000"), ConfigError);
    EXPECT_THROW(parseFaultEvent("a:1@2000"), ConfigError);
    EXPECT_THROW(parseFaultEvent("12:x@2000"), ConfigError);
    EXPECT_THROW(parseFaultEvent("12:1@z"), ConfigError);
    EXPECT_THROW(parseFaultEvent("12:0@2000"), ConfigError); // local
    EXPECT_THROW(parseFaultEvent("12:1@99999999999999999999999"),
                 ConfigError);
    // 2^32 would wrap to node 0 under a silent cast.
    EXPECT_THROW(parseFaultEvent("4294967296:1@500"), ConfigError);
}

TEST(FaultPolicyNames, RoundTrip)
{
    EXPECT_EQ(parseEnum<FaultPolicy>("--fault-policy", "drop"),
              FaultPolicy::Drop);
    EXPECT_EQ(parseEnum<FaultPolicy>("--fault-policy", "reinject"),
              FaultPolicy::Reinject);
    EXPECT_EQ(enumName(FaultPolicy::Drop), "drop");
    EXPECT_EQ(enumName(FaultPolicy::Reinject), "reinject");
    EXPECT_THROW(parseEnum<FaultPolicy>("--fault-policy", "retry"),
                 ConfigError);
}

TEST(FaultScheduleRandom, DeterministicInSeed)
{
    const Topology topo = makeSquareMesh(8);
    FaultSchedule a;
    a.appendRandom(topo, 4, 42, 1000, 500);
    a.validate(topo);
    FaultSchedule b;
    b.appendRandom(topo, 4, 42, 1000, 500);
    b.validate(topo);
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a.events(), b.events());

    FaultSchedule c;
    c.appendRandom(topo, 4, 43, 1000, 500);
    c.validate(topo);
    EXPECT_NE(a.events(), c.events());

    // Cycles are start + i * spacing.
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].cycle, 1000u + 500u * i);
        EXPECT_TRUE(a.events()[i].down);
    }
}

TEST(FaultScheduleRandom, SitesKeepNetworkConnected)
{
    const Topology topo = makeSquareMesh(4);
    FaultSchedule sched;
    sched.appendRandom(topo, 6, 7, 100, 100);
    sched.validate(topo); // would throw if any prefix cut the mesh
    FailureSet failures;
    for (const FaultEvent& e : sched.events()) {
        failures.fail(topo, e.node, e.port);
        EXPECT_TRUE(checkConnectivity(topo, failures).connected);
    }
}

TEST(FaultScheduleValidate, RejectsIllegalTransitions)
{
    const Topology topo = makeSquareMesh(4);

    // Node out of range.
    {
        FaultSchedule s;
        s.addDown(10, 99, 1);
        EXPECT_THROW(s.validate(topo), ConfigError);
    }
    // Mesh-edge port: node 3 is the +X corner of row 0.
    {
        FaultSchedule s;
        s.addDown(10, 3, 1);
        EXPECT_THROW(s.validate(topo), ConfigError);
    }
    // Double down on one link.
    {
        FaultSchedule s;
        s.addDown(10, 5, 1);
        s.addDown(20, 5, 1);
        EXPECT_THROW(s.validate(topo), ConfigError);
    }
    // Repair of a healthy link.
    {
        FaultSchedule s;
        s.addUp(10, 5, 1);
        EXPECT_THROW(s.validate(topo), ConfigError);
    }
    // Down + repair + down again is legal.
    {
        FaultSchedule s;
        s.addDown(10, 5, 1);
        s.addUp(20, 5, 1);
        s.addDown(30, 5, 1);
        EXPECT_NO_THROW(s.validate(topo));
    }
}

TEST(FaultScheduleValidate, RejectsCutsWithFullReport)
{
    const Topology topo = makeSquareMesh(4);
    // Cut node 0's both links: ports +X (1) and +Y (3).
    FaultSchedule s;
    s.addDown(10, 0, 1);
    s.addDown(20, 0, 3);
    try {
        s.validate(topo);
        FAIL() << "disconnecting schedule accepted";
    } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cuts the network"), std::string::npos)
            << what;
        // The report names the whole cut (node 0 alone on one side,
        // the other 15 across it), not just one (node, dest) pair.
        EXPECT_NE(what.find("15 node(s) unreachable from the other 1"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("15 disconnected node pairs"),
                  std::string::npos)
            << what;
    }
}

TEST(CheckConnectivity, ReportsBothSidesOfTheCut)
{
    const Topology topo = makeSquareMesh(4);
    FailureSet failures;
    EXPECT_TRUE(checkConnectivity(topo, failures).connected);

    // Sever the whole first column: links (0,1), (4,1), (8,1), (12,1)
    // cut x=0 from the rest... plus the vertical links stay inside the
    // column, so the column {0,4,8,12} becomes its own component.
    for (NodeId n : {0, 4, 8, 12})
        failures.fail(topo, n, 1);
    const ConnectivityReport report = checkConnectivity(topo, failures);
    EXPECT_FALSE(report.connected);
    EXPECT_EQ(report.reachable.size(), 4u); // node 0's column
    EXPECT_EQ(report.unreachable.size(), 12u);
    EXPECT_EQ(report.unreachablePairs(), 48u);
    EXPECT_NE(report.describe().find("cuts the network"),
              std::string::npos);
}

TEST(ProgramFaultAwareTable, RejectsPartitionUpfrontWithCut)
{
    const Topology topo = makeSquareMesh(4);
    FailureSet failures;
    failures.fail(topo, 0, 1);
    failures.fail(topo, 0, 3);
    try {
        programFaultAwareTable(topo, failures);
        FAIL() << "partitioned failure set accepted";
    } catch (const ConfigError& e) {
        // Full cut report, not the first (node, dest) pair a BFS
        // happens to trip over.
        EXPECT_NE(std::string(e.what()).find("cuts the network"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FailureSet, RepairRestoresTheLink)
{
    const Topology topo = makeSquareMesh(4);
    FailureSet failures;
    failures.fail(topo, 5, 1);
    EXPECT_TRUE(failures.isFailed(5, 1));
    EXPECT_TRUE(failures.isFailed(6, 2)); // symmetric direction
    failures.repair(topo, 5, 1);
    EXPECT_FALSE(failures.isFailed(5, 1));
    EXPECT_FALSE(failures.isFailed(6, 2));
    EXPECT_TRUE(failures.empty());
    EXPECT_THROW(failures.repair(topo, 5, 1), ConfigError);
}

TEST(DeriveFaultSeed, DecorrelatesFromRunSeed)
{
    EXPECT_NE(deriveFaultSeed(1), 1u);
    EXPECT_NE(deriveFaultSeed(1), deriveFaultSeed(2));
    EXPECT_EQ(deriveFaultSeed(7), deriveFaultSeed(7));
}

} // namespace
} // namespace lapses
