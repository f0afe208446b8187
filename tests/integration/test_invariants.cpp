/**
 * @file
 * Cross-module invariant properties: credit conservation, quiescence,
 * wormhole contiguity observed end-to-end, and parameterized delivery
 * sweeps over mesh size / message length / VC count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

/** Stop injection and step until the network holds no flits. */
void
drainNetwork(Simulation& sim, Cycle budget = 20000)
{
    Network& net = sim.network();
    net.setInjectionEnabled(false);
    for (Cycle c = 0; c < budget; ++c) {
        if (net.totalOccupancy() == 0 && net.totalBacklog() == 0)
            return;
        net.step();
    }
}

TEST(Invariants, CreditsRestoredAtQuiescence)
{
    // After the network fully drains, every network-port output VC
    // must have exactly bufferDepth credits again and no VC may remain
    // allocated: credits are conserved end to end.
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.3;
    cfg.warmupMessages = 30;
    cfg.measureMessages = 300;
    Simulation sim(cfg);
    (void)sim.run();
    drainNetwork(sim);

    Network& net = sim.network();
    ASSERT_EQ(net.totalOccupancy(), 0u);
    const Topology& topo = sim.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const Router& r = net.router(n);
        for (PortId p = 1; p < topo.numPorts(); ++p) {
            if (!topo.hasNeighbor(n, p))
                continue;
            for (VcId v = 0; v < cfg.vcsPerPort; ++v) {
                EXPECT_EQ(r.outputVc(p, v).credits, cfg.bufferDepth)
                    << "router " << n << " port " << int(p) << " vc "
                    << int(v);
                EXPECT_FALSE(r.outputVc(p, v).busy);
            }
        }
    }
}

/** 6x6 runs with (14)->(15) and (20)->(19) down and the first link
 *  repaired, over every kernel x fault policy x table x routing. */
std::vector<SimConfig>
faultedCreditCases()
{
    std::vector<SimConfig> cases;
    for (const KernelKind kernel :
         {KernelKind::Scan, KernelKind::Active, KernelKind::Parallel}) {
        for (const FaultPolicy policy :
             {FaultPolicy::Drop, FaultPolicy::Reinject}) {
            for (const TableKind table :
                 {TableKind::Full, TableKind::EconomicalStorage}) {
                for (const RoutingAlgo routing :
                     {RoutingAlgo::DeterministicXY,
                      RoutingAlgo::DuatoFullyAdaptive}) {
                    SimConfig cfg;
                    cfg.radices = {6, 6};
                    cfg.vcsPerPort = 2;
                    cfg.bufferDepth = 4;
                    cfg.msgLen = 8;
                    cfg.normalizedLoad = 0.3;
                    cfg.warmupMessages = 50;
                    cfg.measureMessages = 800;
                    cfg.kernel = kernel;
                    cfg.intraJobs = 3;
                    cfg.faultPolicy = policy;
                    cfg.table = table;
                    cfg.routing = routing;
                    cfg.faultEvents = {{150, 14, 1, true},
                                       {180, 20, 2, true},
                                       {400, 14, 1, false}};
                    cases.push_back(cfg);
                }
            }
        }
    }
    return cases;
}

TEST(Invariants, CreditsRestoredAtQuiescenceThroughFaults)
{
    // The fault path sets credits by hand: a purge credits each freed
    // slot's upstream hop directly, a dying link's ports drop to zero
    // and a repair resets them to full. After a faulted run drains,
    // every live output VC must again hold bufferDepth credits with no
    // VC allocated, and each dead port must hold none.
    for (const SimConfig& cfg : faultedCreditCases()) {
        const std::string name =
            enumName(cfg.kernel) + ": " + cfg.describe();
        Simulation sim(cfg);
        (void)sim.run();
        drainNetwork(sim);

        Network& net = sim.network();
        ASSERT_EQ(net.totalOccupancy(), 0u) << name;
        ASSERT_EQ(net.totalOccupancySlow(), 0u) << name;
        ASSERT_EQ(net.faults().counters().linkUpEvents, 1u) << name;
        const FailureSet& dead = net.faults().failures();
        ASSERT_EQ(dead.count(), 1u) << name;
        const Topology& topo = sim.topology();
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            const Router& r = net.router(n);
            for (PortId p = 1; p < topo.numPorts(); ++p) {
                if (!topo.hasNeighbor(n, p))
                    continue;
                const bool down = dead.isFailed(n, p);
                ASSERT_EQ(r.portDead(p), down)
                    << name << " router " << n << " port " << int(p);
                for (VcId v = 0; v < cfg.vcsPerPort; ++v) {
                    EXPECT_EQ(r.outputVc(p, v).credits,
                              down ? 0 : cfg.bufferDepth)
                        << name << " router " << n << " port " << int(p)
                        << " vc " << int(v);
                    EXPECT_FALSE(r.outputVc(p, v).busy) << name;
                }
            }
        }
    }
}

TEST(Invariants, NoRouteStateLeaksAtQuiescence)
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 6;
    cfg.normalizedLoad = 0.4;
    cfg.warmupMessages = 30;
    cfg.measureMessages = 400;
    Simulation sim(cfg);
    (void)sim.run();
    drainNetwork(sim);

    Network& net = sim.network();
    ASSERT_EQ(net.totalOccupancy(), 0u);
    const Topology& topo = sim.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const Router& r = net.router(n);
        for (PortId p = 0; p < topo.numPorts(); ++p) {
            for (VcId v = 0; v < cfg.vcsPerPort; ++v) {
                EXPECT_EQ(r.inputVc(p, v).state, RouteState::Idle);
                EXPECT_EQ(r.inputFlits(p, v), 0u);
            }
        }
    }
}

TEST(Invariants, DeliveredFlitsMatchMessageLengths)
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 7;
    cfg.normalizedLoad = 0.2;
    cfg.warmupMessages = 20;
    cfg.measureMessages = 250;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_EQ(st.deliveredFlits, st.deliveredMessages * 7);
}

TEST(Invariants, BurstyInjectionDeliversEverything)
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.injection = InjectionKind::Bursty;
    cfg.burst.meanOnCycles = 50;
    cfg.burst.meanOffCycles = 200;
    cfg.normalizedLoad = 0.3;
    cfg.warmupMessages = 30;
    cfg.measureMessages = 400;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    // Bursts should hurt latency relative to smooth exponential
    // injection at the same mean rate.
    SimConfig smooth = cfg;
    smooth.injection = InjectionKind::Exponential;
    Simulation sim2(smooth);
    const SimStats st2 = sim2.run();
    EXPECT_GT(st.meanLatency(), st2.meanLatency());
}

TEST(Invariants, FlitHopConservationAtQuiescence)
{
    // Every crossbar traversal must eventually become exactly one link
    // (or ejection) transmission: at quiescence the sum of per-port
    // use counts equals the sum of forwarded flits.
    SimConfig cfg;
    cfg.radices = {5, 5};
    cfg.msgLen = 5;
    cfg.normalizedLoad = 0.3;
    cfg.warmupMessages = 40;
    cfg.measureMessages = 400;
    Simulation sim(cfg);
    (void)sim.run();
    drainNetwork(sim);
    ASSERT_EQ(sim.network().totalOccupancy(), 0u);

    std::uint64_t transmissions = 0;
    std::uint64_t forwards = 0;
    const Topology& topo = sim.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const Router& r = sim.network().router(n);
        forwards += r.forwardedFlits();
        for (PortId p = 0; p < topo.numPorts(); ++p)
            transmissions += r.outputUnit(p).useCount;
    }
    EXPECT_EQ(transmissions, forwards);
    EXPECT_GT(forwards, 0u);
}

/** Parameterized delivery sweep: (mesh k, msgLen, vcs, lookahead). */
using SweepParam = std::tuple<int, int, int, bool>;

class DeliverySweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(DeliverySweep, AllTrafficDeliveredAndTimingFormulaHolds)
{
    const auto [k, msg_len, vcs, lookahead] = GetParam();
    SimConfig cfg;
    cfg.radices = {k, k};
    cfg.msgLen = msg_len;
    cfg.vcsPerPort = vcs;
    cfg.model = lookahead ? RouterModel::LaProud : RouterModel::Proud;
    cfg.normalizedLoad = 0.02; // near contention-free
    cfg.warmupMessages = 20;
    cfg.measureMessages = 300;
    Simulation sim(cfg);
    const SimStats st = sim.run();
    ASSERT_FALSE(st.saturated);
    EXPECT_EQ(st.deliveredMessages, st.injectedMessages);
    const double per_hop = lookahead ? 5.0 : 6.0;
    const double expected =
        2.0 + per_hop * st.hops.mean() + (msg_len - 1);
    // Long messages on tiny meshes still see occasional ejection
    // contention; scale the tolerance with the serialization time.
    const double tol = 1.0 + 0.05 * msg_len;
    EXPECT_NEAR(st.meanNetworkLatency(), expected, tol)
        << cfg.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DeliverySweep,
    ::testing::Combine(::testing::Values(3, 4, 6),
                       ::testing::Values(1, 5, 20),
                       ::testing::Values(2, 4),
                       ::testing::Values(false, true)));

} // namespace
} // namespace lapses
