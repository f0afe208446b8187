/**
 * @file
 * Tests of the wire-event calendar: each event arrives exactly once at
 * its due cycle, the intra-shard and boundary lists of a bucket drain
 * apart, removal takes exactly the events asked for, and the network's
 * purge and occupancy recount see the flits the calendar holds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/simulation.hpp"
#include "network/wire_calendar.hpp"

namespace lapses
{
namespace
{

/** A flit event whose message handle and seq tag it for the checks. */
WireEvent
flitEvent(MsgRef msg, std::uint16_t seq, bool inject = false)
{
    WireEvent ev;
    ev.flit.msg = msg;
    ev.flit.seq = seq;
    ev.node = 3;
    ev.port = inject ? kLocalPort : PortId{2};
    ev.vc = 1;
    ev.kind = inject ? WireKind::Inject : WireKind::Flit;
    return ev;
}

WireEvent
creditEvent()
{
    WireEvent ev;
    ev.node = 3;
    ev.port = 2;
    ev.vc = 0;
    ev.kind = WireKind::Credit;
    return ev;
}

std::vector<std::uint16_t>
drainSeqs(WireCalendar& cal, Cycle at, bool boundary)
{
    std::vector<std::uint16_t> seqs;
    cal.drain(at, boundary,
              [&](const WireEvent& ev) { seqs.push_back(ev.flit.seq); });
    std::sort(seqs.begin(), seqs.end());
    return seqs;
}

TEST(WireCalendar, DeliversEachEventOnceAtItsDueCycle)
{
    for (const Cycle delay : {Cycle{1}, Cycle{3}}) {
        // Drive the calendar the way a shard does: drain what is due,
        // send, move the cursor on. Every cycle below 40 sends one
        // event tagged with its send cycle, and every third cycle a
        // second one tagged 1000 + send cycle.
        WireCalendar cal(delay);
        std::vector<int> seen(2000, 0);
        for (Cycle now = 0; now < 60; ++now) {
            cal.drain(now, false, [&](const WireEvent& ev) {
                const Cycle sent = ev.flit.seq % 1000;
                EXPECT_EQ(now, sent + delay + 1)
                    << "delay " << delay << " seq " << ev.flit.seq;
                ++seen[ev.flit.seq];
            });
            if (now < 40) {
                const Cycle due = now + delay + 1;
                cal.push(flitEvent(1, static_cast<std::uint16_t>(now)),
                         due, false);
                if (now % 3 == 0) {
                    cal.push(flitEvent(2, static_cast<std::uint16_t>(
                                              1000 + now)),
                             due, false);
                }
                // Everything due by now is drained; the oldest event
                // left was sent at max(0, now - delay).
                EXPECT_EQ(cal.earliestDue(0, false),
                          std::max(now + 1, delay + 1))
                    << "delay " << delay << " cycle " << now;
            }
            cal.advance();
        }
        for (Cycle sent = 0; sent < 40; ++sent) {
            EXPECT_EQ(seen[sent], 1) << "delay " << delay;
            EXPECT_EQ(seen[1000 + sent], sent % 3 == 0 ? 1 : 0)
                << "delay " << delay;
        }
        EXPECT_EQ(cal.earliestDue(0, false), kNeverCycle);
    }
}

TEST(WireCalendar, IntraAndBoundaryListsDrainSeparately)
{
    WireCalendar cal(1);
    cal.push(flitEvent(1, 10), 2, /*boundary=*/false);
    cal.push(flitEvent(1, 11), 2, /*boundary=*/true);
    cal.push(flitEvent(1, 12), 2, /*boundary=*/false);
    EXPECT_EQ(cal.earliestDue(0, false), 2u);
    EXPECT_EQ(cal.earliestDue(0, true), 2u);
    EXPECT_EQ(cal.earliestDue(3, true), kNeverCycle);
    cal.advance();
    cal.advance();

    EXPECT_EQ(drainSeqs(cal, 2, false),
              (std::vector<std::uint16_t>{10, 12}));
    // The boundary event waits for its own drain.
    EXPECT_EQ(cal.earliestDue(0, true), 2u);
    EXPECT_EQ(drainSeqs(cal, 2, false), std::vector<std::uint16_t>{});
    EXPECT_EQ(drainSeqs(cal, 2, true), std::vector<std::uint16_t>{11});
    EXPECT_EQ(cal.earliestDue(0, false), kNeverCycle);

    // And the other way round: a boundary drain leaves intra events.
    cal.push(flitEvent(1, 20), 4, /*boundary=*/false);
    cal.push(flitEvent(1, 21), 4, /*boundary=*/true);
    cal.advance();
    cal.advance();
    EXPECT_EQ(drainSeqs(cal, 4, true), std::vector<std::uint16_t>{21});
    EXPECT_EQ(cal.earliestDue(0, true), kNeverCycle);
    EXPECT_EQ(cal.earliestDue(0, false), 4u);
    EXPECT_EQ(drainSeqs(cal, 4, false), std::vector<std::uint16_t>{20});
}

TEST(WireCalendar, RemoveIfTakesOnlyTheChosenMessage)
{
    // Flits of messages 1 and 2 plus credits spread over every bucket
    // and both lists; removing message 1 must take exactly its flits,
    // show each to the predicate once, and leave the rest due as sent.
    const Cycle delay = 2;
    WireCalendar cal(delay);
    int sent_msg1 = 0;
    for (Cycle now = 0; now <= delay; ++now) {
        const Cycle due = now + delay + 1;
        for (std::uint16_t k = 0; k < 4; ++k) {
            const auto seq = static_cast<std::uint16_t>(10 * now + k);
            const MsgRef msg = k % 2 == 0 ? 1 : 2;
            sent_msg1 += msg == 1 ? 1 : 0;
            cal.push(flitEvent(msg, seq, /*inject=*/k == 2), due,
                     /*boundary=*/k == 3);
            cal.push(creditEvent(), due, /*boundary=*/k == 1);
        }
        cal.advance();
    }

    std::vector<std::uint16_t> offered;
    const std::size_t removed = cal.removeIf([&](const WireEvent& ev) {
        if (ev.kind == WireKind::Credit || ev.flit.msg != 1)
            return false;
        offered.push_back(ev.flit.seq);
        return true;
    });
    EXPECT_EQ(removed, static_cast<std::size_t>(sent_msg1));
    std::sort(offered.begin(), offered.end());
    EXPECT_EQ(offered, (std::vector<std::uint16_t>{0, 2, 10, 12, 20, 22}));

    int credits = 0;
    for (Cycle now = delay + 1; now <= 2 * delay + 1; ++now) {
        std::vector<std::uint16_t> seqs;
        for (const bool boundary : {false, true}) {
            cal.drain(now, boundary, [&](const WireEvent& ev) {
                if (ev.kind == WireKind::Credit) {
                    ++credits;
                    return;
                }
                EXPECT_EQ(ev.flit.msg, 2u);
                seqs.push_back(ev.flit.seq);
            });
        }
        std::sort(seqs.begin(), seqs.end());
        const auto base = static_cast<std::uint16_t>(10 * (now - delay - 1));
        EXPECT_EQ(seqs, (std::vector<std::uint16_t>{
                            static_cast<std::uint16_t>(base + 1),
                            static_cast<std::uint16_t>(base + 3)}))
            << "cycle " << now;
        cal.advance();
    }
    EXPECT_EQ(credits, 4 * static_cast<int>(delay + 1));
}

/** A loaded 4x4 mesh whose links die and come back mid-run. */
SimConfig
faultedMesh(Cycle link_delay)
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 8;
    cfg.bufferDepth = 4;
    cfg.normalizedLoad = 0.4;
    cfg.linkDelay = link_delay;
    cfg.table = TableKind::Full; // reprogrammed around each death
    cfg.seed = 77;
    cfg.reconfigLatency = 30;
    cfg.faultPolicy = FaultPolicy::Reinject;
    // One +x link at a time, between the interior nodes 5, 6, 9, 10.
    const NodeId interior[] = {5, 6, 9, 10};
    for (Cycle c = 200; c < 1400; c += 150) {
        const NodeId node = interior[c / 150 % 4];
        cfg.faultEvents.push_back({c, node, 1, true});
        cfg.faultEvents.push_back({c + 60, node, 1, false});
    }
    return cfg;
}

/** Flits in all routers' buffers. */
std::size_t
routerFlits(const Network& net)
{
    std::size_t n = 0;
    for (NodeId id = 0; id < net.topology().numNodes(); ++id)
        n += net.router(id).occupancy();
    return n;
}

TEST(WireCalendar, OccupancyRecountIncludesFlitsOnWires)
{
    for (const Cycle delay : {Cycle{1}, Cycle{3}}) {
        Simulation sim(faultedMesh(delay));
        Network& net = sim.network();
        std::size_t most_on_wires = 0;
        for (int c = 0; c < 1500; ++c) {
            net.step();
            const std::size_t slow = net.totalOccupancySlow();
            ASSERT_EQ(net.totalOccupancy(), slow)
                << "delay " << delay << " cycle " << net.now();
            most_on_wires =
                std::max(most_on_wires, slow - routerFlits(net));
        }
        // A link carries up to one flit per cycle for linkDelay + 1
        // cycles; a loaded mesh keeps many of them busy at once.
        EXPECT_GT(most_on_wires, 16u) << "delay " << delay;
    }
}

TEST(WireCalendar, PurgeRestoresTheCreditsOfFlitsOnWires)
{
    // Every link death purges the messages it cuts, flits on wires
    // included; each flit taken off a wire must hand its sender (a
    // router output VC, or the NIC for an injection wire) the credit
    // it spent. Once every link is back and the network has drained,
    // every sender must hold its full credit line again.
    for (const Cycle delay : {Cycle{1}, Cycle{3}}) {
        const SimConfig cfg = faultedMesh(delay);
        Simulation sim(cfg);
        Network& net = sim.network();
        for (int c = 0; c < 1500; ++c)
            net.step();
        net.setInjectionEnabled(false);
        for (int c = 0; c < 20000 && (net.totalOccupancy() != 0 ||
                                      net.totalBacklog() != 0);
             ++c) {
            net.step();
        }
        ASSERT_EQ(net.totalOccupancy(), 0u) << "delay " << delay;
        ASSERT_EQ(net.totalOccupancySlow(), 0u) << "delay " << delay;
        const Network::FaultCounters& faults = net.faultCounters();
        ASSERT_EQ(faults.linkUpEvents, faults.linkDownEvents);
        ASSERT_GT(faults.reinjectedMessages, 0u) << "delay " << delay;
        const Topology& topo = net.topology();
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            for (VcId v = 0; v < cfg.vcsPerPort; ++v) {
                EXPECT_EQ(net.nic(n).credits(v), cfg.bufferDepth)
                    << "delay " << delay << " NIC " << n << " vc "
                    << int(v);
            }
            for (PortId p = 1; p < topo.numPorts(); ++p) {
                if (!topo.hasNeighbor(n, p))
                    continue;
                for (VcId v = 0; v < cfg.vcsPerPort; ++v) {
                    EXPECT_EQ(net.router(n).outputUnit(p).vc(v).credits,
                              cfg.bufferDepth)
                        << "delay " << delay << " router " << n
                        << " port " << int(p) << " vc " << int(v);
                }
            }
        }
    }
}

} // namespace
} // namespace lapses
