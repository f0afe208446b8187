/**
 * @file
 * Cross-module invariant properties: credit conservation, quiescence,
 * wormhole contiguity observed end-to-end, and parameterized delivery
 * sweeps over mesh size / message length / VC count.
 */

#include <gtest/gtest.h>

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
            const OutputUnit& out = r.outputUnit(p);
            for (VcId v = 0; v < cfg.vcsPerPort; ++v) {
                EXPECT_EQ(out.vc(v).credits, cfg.bufferDepth)
                    << "router " << n << " port " << int(p) << " vc "
                    << int(v);
                EXPECT_FALSE(out.vc(v).busy);
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
            const InputUnit& in = r.inputUnit(p);
            for (VcId v = 0; v < cfg.vcsPerPort; ++v) {
                EXPECT_EQ(in.vc(v).state, RouteState::Idle);
                EXPECT_TRUE(in.buffers().empty(v));
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
            transmissions += r.outputUnit(p).useCount();
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
