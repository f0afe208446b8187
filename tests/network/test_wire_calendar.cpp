/**
 * @file
 * Tests of the wire-event calendar: each event arrives exactly once at
 * its due cycle, even to a receiver that lags its sender by a whole
 * lookahead, the per-receiver lists of a bucket drain apart, removal
 * takes exactly the events asked for, and the network's purge and
 * occupancy recount see the flits the calendar holds.
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
drainSeqs(WireCalendar& cal, std::size_t to, Cycle at)
{
    std::vector<std::uint16_t> seqs;
    cal.drain(cal.slot(), to, at,
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
            cal.drain(cal.slot(), 0, now, [&](const WireEvent& ev) {
                const Cycle sent = ev.flit.seq % 1000;
                EXPECT_EQ(now, sent + delay + 1)
                    << "delay " << delay << " seq " << ev.flit.seq;
                ++seen[ev.flit.seq];
            });
            if (now < 40) {
                const Cycle due = now + delay + 1;
                cal.push(flitEvent(1, static_cast<std::uint16_t>(now)),
                         due, 0);
                if (now % 3 == 0) {
                    cal.push(flitEvent(2, static_cast<std::uint16_t>(
                                              1000 + now)),
                             due, 0);
                }
                // Everything due by now is drained; the oldest event
                // left was sent at max(0, now - delay).
                EXPECT_EQ(cal.earliestDue(), std::max(now + 1, delay + 1))
                    << "delay " << delay << " cycle " << now;
            }
            cal.advance();
        }
        for (Cycle sent = 0; sent < 40; ++sent) {
            EXPECT_EQ(seen[sent], 1) << "delay " << delay;
            EXPECT_EQ(seen[1000 + sent], sent % 3 == 0 ? 1 : 0)
                << "delay " << delay;
        }
        EXPECT_EQ(cal.earliestDue(), kNeverCycle);
    }
}

TEST(WireCalendar, PerReceiverListsDrainSeparately)
{
    WireCalendar cal(1, 3);
    cal.push(flitEvent(1, 10), 2, 0);
    cal.push(flitEvent(1, 11), 2, 2);
    cal.push(flitEvent(1, 12), 2, 0);
    cal.push(flitEvent(1, 13), 2, 1);
    EXPECT_EQ(cal.earliestDue(), 2u);
    cal.advance();
    cal.advance();

    EXPECT_EQ(drainSeqs(cal, 0, 2), (std::vector<std::uint16_t>{10, 12}));
    // The other receivers' events wait for their own drains.
    EXPECT_EQ(cal.earliestDue(), 2u);
    EXPECT_EQ(drainSeqs(cal, 0, 2), std::vector<std::uint16_t>{});
    EXPECT_EQ(drainSeqs(cal, 2, 2), std::vector<std::uint16_t>{11});
    EXPECT_EQ(cal.earliestDue(), 2u);
    EXPECT_EQ(drainSeqs(cal, 1, 2), std::vector<std::uint16_t>{13});
    EXPECT_EQ(cal.earliestDue(), kNeverCycle);

    // A list that outlives another receiver's drain of the same
    // bucket, and a later bucket, each keep their own due.
    cal.push(flitEvent(1, 20), 4, 1);
    cal.push(flitEvent(1, 21), 4, 2);
    cal.advance();
    cal.push(flitEvent(1, 30), 5, 0);
    cal.advance();
    EXPECT_EQ(drainSeqs(cal, 2, 4), std::vector<std::uint16_t>{21});
    EXPECT_EQ(cal.earliestDue(), 4u);
    EXPECT_EQ(drainSeqs(cal, 1, 4), std::vector<std::uint16_t>{20});
    EXPECT_EQ(cal.earliestDue(), 5u);
    cal.advance();
    EXPECT_EQ(drainSeqs(cal, 0, 5), std::vector<std::uint16_t>{30});
    EXPECT_EQ(cal.earliestDue(), kNeverCycle);
}

TEST(WireCalendar, SenderAheadOfALaggingReceiverDeliversOnce)
{
    // Two shards, each sending to both every cycle, step barrier
    // batches of linkDelay + 1 cycles one after the other, taking
    // turns to go first: inside a batch the first runs up to
    // linkDelay cycles ahead of the second. Each shard pulls its own
    // lists from both calendars with its own cursor. Every event must
    // arrive exactly once, at its due cycle, at the shard it was
    // addressed to. A seq is send cycle * 4 + sender * 2 + receiver.
    for (const Cycle delay : {Cycle{1}, Cycle{3}}) {
        const std::size_t shards = 2;
        std::vector<WireCalendar> cals(shards,
                                       WireCalendar(delay, shards));
        std::vector<Cycle> clock(shards, 0);
        std::vector<int> seen(4 * 64, 0);
        const Cycle last_send = 40;
        const auto step = [&](std::size_t s) {
            const Cycle now = clock[s];
            for (WireCalendar& from : cals) {
                from.drain(cals[s].slot(), s, now,
                           [&](const WireEvent& ev) {
                               const std::uint16_t seq = ev.flit.seq;
                               EXPECT_EQ(seq % 2, s)
                                   << "delay " << delay << " seq " << seq;
                               EXPECT_EQ(now, seq / 4 + delay + 1)
                                   << "delay " << delay << " seq " << seq;
                               ++seen[seq];
                           });
            }
            if (now < last_send) {
                for (std::size_t to = 0; to < shards; ++to) {
                    const auto seq =
                        static_cast<std::uint16_t>(now * 4 + s * 2 + to);
                    cals[s].push(flitEvent(1, seq), now + delay + 1, to);
                }
            }
            cals[s].advance();
            ++clock[s];
        };
        const Cycle batch = delay + 1;
        for (Cycle b = 0; b * batch < last_send + 2 * batch; ++b) {
            const auto first = static_cast<std::size_t>(b % 2);
            for (const std::size_t s : {first, 1 - first}) {
                for (Cycle c = 0; c < batch; ++c)
                    step(s);
            }
            ASSERT_EQ(clock[0], clock[1]);
        }
        for (Cycle sent = 0; sent < last_send; ++sent) {
            for (std::size_t k = 0; k < 4; ++k) {
                EXPECT_EQ(seen[sent * 4 + k], 1)
                    << "delay " << delay << " sent " << sent << " k "
                    << k;
            }
        }
        for (const WireCalendar& cal : cals)
            EXPECT_EQ(cal.earliestDue(), kNeverCycle) << "delay " << delay;
    }
}

TEST(WireCalendar, RemoveIfTakesOnlyTheChosenMessage)
{
    // Flits of messages 1 and 2 plus credits spread over every bucket
    // and three receivers' lists; removing message 1 must take exactly
    // its flits, show each to the predicate once, and leave the rest
    // due as sent on the lists they were sent to.
    const Cycle delay = 2;
    const std::size_t receivers = 3;
    WireCalendar cal(delay, receivers);
    int sent_msg1 = 0;
    for (Cycle now = 0; now <= delay; ++now) {
        const Cycle due = now + delay + 1;
        for (std::uint16_t k = 0; k < 4; ++k) {
            const auto seq = static_cast<std::uint16_t>(10 * now + k);
            const MsgRef msg = k % 2 == 0 ? 1 : 2;
            sent_msg1 += msg == 1 ? 1 : 0;
            cal.push(flitEvent(msg, seq, /*inject=*/k == 2), due,
                     k % receivers);
            cal.push(creditEvent(), due, (k + 1) % receivers);
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
        for (std::size_t to = 0; to < receivers; ++to) {
            cal.drain(cal.slot(), to, now, [&](const WireEvent& ev) {
                if (ev.kind == WireKind::Credit) {
                    ++credits;
                    return;
                }
                EXPECT_EQ(ev.flit.msg, 2u);
                EXPECT_EQ(ev.flit.seq % 10 % receivers, to);
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
    EXPECT_EQ(cal.earliestDue(), kNeverCycle);
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
        const LinkFaults::Counters& faults = net.faults().counters();
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
                    EXPECT_EQ(net.router(n).outputVc(p, v).credits,
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
