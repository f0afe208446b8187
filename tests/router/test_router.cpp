/**
 * @file
 * Router pipeline tests: exact 5-stage (PROUD) vs 4-stage (LA-PROUD)
 * timing, wormhole streaming, credit emission, VC allocation and the
 * Duato escape discipline.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "routing/duato.hpp"
#include "tables/full_table.hpp"
#include "router/router.hpp"

namespace lapses
{
namespace
{

/** Records every flit and credit a router emits, with cycle stamps. */
class RecordingEnv : public Router::Env
{
  public:
    struct OutFlit
    {
        Cycle cycle;
        PortId port;
        VcId vc;
        Flit flit;
    };
    struct OutCredit
    {
        Cycle cycle;
        PortId port;
        VcId vc;
    };

    void
    flitOut(PortId port, VcId vc, const Flit& flit) override
    {
        flits.push_back({now, port, vc, flit});
    }

    void
    creditOut(PortId port, VcId vc) override
    {
        credits.push_back({now, port, vc});
    }

    Cycle now = 0;
    std::vector<OutFlit> flits;
    std::vector<OutCredit> credits;
};

/** One router of a 2x2 mesh with Duato routing on a full table. */
class RouterHarness
{
  public:
    explicit RouterHarness(bool lookahead, int vcs = 4,
                           int escape_vcs = 1, int depth = 20)
        : topo(makeSquareMesh(2)), algo(topo), table(topo, algo)
    {
        RouterParams params;
        params.vcsPerPort = vcs;
        params.inBufDepth = depth;
        params.outBufDepth = depth;
        params.lookahead = lookahead;
        params.escapeVcs = escape_vcs;
        router = std::make_unique<Router>(
            0, topo, params, table, /*escape_channels=*/true,
            std::make_unique<StaticXySelector>(), pool);
        la = lookahead;
    }

    /**
     * Build a flit addressed to 'dest'. Head flits (seq 0) acquire a
     * fresh message descriptor; later flits of the same message reuse
     * the most recent one, like a NIC streaming a wormhole.
     */
    Flit
    makeFlit(FlitType type, NodeId dest, std::uint16_t seq = 0,
             std::uint16_t len = 1)
    {
        if (seq == 0) {
            last_msg = pool.acquire();
            MessageDescriptor& d = pool[last_msg];
            d.id = 7;
            d.src = 0;
            d.dest = dest;
            d.msgLen = len;
            if (la) {
                d.laRoute = table.lookup(0, dest);
                d.laValid = true;
            }
        }
        Flit f;
        f.type = type;
        f.msg = last_msg;
        f.seq = seq;
        return f;
    }

    /** Step the router through cycles [from, to]. */
    void
    stepRange(Cycle from, Cycle to)
    {
        for (Cycle c = from; c <= to; ++c) {
            env.now = c;
            router->step(c, env);
        }
    }

    Topology topo;
    DuatoAdaptiveRouting algo;
    FullTable table;
    MessagePool pool;
    MsgRef last_msg = kInvalidMsgRef;
    std::unique_ptr<Router> router;
    RecordingEnv env;
    bool la = false;
};

TEST(RouterPipeline, ProudHeaderTakesFiveStages)
{
    // Arrival at cycle 5: sync(5), lookup(6), sel/arb(7), xbar(8),
    // vc-mux(9) -> the flit leaves during cycle 9 (arrival + 4).
    RouterHarness h(/*lookahead=*/false);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::HeadTail, 1), 5);
    h.stepRange(5, 15);
    ASSERT_EQ(h.env.flits.size(), 1u);
    EXPECT_EQ(h.env.flits[0].cycle, 9u);
    EXPECT_EQ(h.env.flits[0].port,
              MeshShape::port(0, Direction::Plus));
}

TEST(RouterPipeline, StepReportsActivityAndQuiescence)
{
    RouterHarness h(/*lookahead=*/false);
    // Empty router: quiescent, and a step reports neither movement
    // nor pending work (the active kernel's licence to sleep it).
    EXPECT_TRUE(h.router->isQuiescent());
    h.env.now = 0;
    const StepActivity idle = h.router->step(0, h.env);
    EXPECT_EQ(idle.progressed, 0u);
    EXPECT_FALSE(idle.pendingWork);
    EXPECT_EQ(idle.nextWake, kNeverCycle);

    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::HeadTail, 1), 5);
    EXPECT_FALSE(h.router->isQuiescent());
    bool moved_any = false;
    for (Cycle c = 5; c <= 9; ++c) {
        h.env.now = c;
        const StepActivity r = h.router->step(c, h.env);
        moved_any |= r.progressed > 0;
        // Pending work until the flit leaves on the link at cycle 9.
        EXPECT_EQ(r.pendingWork, c < 9) << c;
    }
    EXPECT_TRUE(moved_any);
    EXPECT_TRUE(h.router->isQuiescent());
    ASSERT_EQ(h.env.flits.size(), 1u);
}

TEST(RouterPipeline, LaProudHeaderTakesFourStages)
{
    // Look-ahead removes the lookup stage: sync(5), sel/arb(6),
    // xbar(7), vc-mux(8) -> leaves during cycle 8 (arrival + 3).
    RouterHarness h(/*lookahead=*/true);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::HeadTail, 1), 5);
    h.stepRange(5, 15);
    ASSERT_EQ(h.env.flits.size(), 1u);
    EXPECT_EQ(h.env.flits[0].cycle, 8u);
}

TEST(RouterPipeline, LookaheadGeneratesNextHopRoute)
{
    // The outgoing header must carry the candidates for the *next*
    // router (Fig. 4b new-header generation).
    RouterHarness h(/*lookahead=*/true);
    const NodeId dest = 3; // (1,1): two hops from node 0
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::HeadTail, dest), 5);
    h.stepRange(5, 15);
    ASSERT_EQ(h.env.flits.size(), 1u);
    const MessageDescriptor& desc = h.pool[h.env.flits[0].flit.msg];
    ASSERT_TRUE(desc.laValid);
    const NodeId next =
        h.topo.neighbor(0, h.env.flits[0].port);
    EXPECT_EQ(desc.laRoute, h.table.lookup(next, dest));
}

TEST(RouterPipeline, EjectionRouteUsesLocalPort)
{
    RouterHarness h(/*lookahead=*/false);
    h.router->acceptFlit(1, 0, h.makeFlit(FlitType::HeadTail, 0), 3);
    h.stepRange(3, 12);
    ASSERT_EQ(h.env.flits.size(), 1u);
    EXPECT_EQ(h.env.flits[0].port, kLocalPort);
}

TEST(RouterPipeline, WormholeStreamsOneFlitPerCycle)
{
    RouterHarness h(/*lookahead=*/false);
    const std::uint16_t len = 4;
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::Head, 1, 0, len), 5);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::Body, 1, 1, len), 6);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::Body, 1, 2, len), 7);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::Tail, 1, 3, len), 8);
    h.stepRange(5, 20);
    ASSERT_EQ(h.env.flits.size(), 4u);
    // Header leaves at 9 (5-stage), bodies stream behind at 1/cycle.
    EXPECT_EQ(h.env.flits[0].cycle, 9u);
    EXPECT_EQ(h.env.flits[1].cycle, 10u);
    EXPECT_EQ(h.env.flits[2].cycle, 11u);
    EXPECT_EQ(h.env.flits[3].cycle, 12u);
    // In order, on the same port and VC.
    for (const auto& of : h.env.flits) {
        EXPECT_EQ(of.port, h.env.flits[0].port);
        EXPECT_EQ(of.vc, h.env.flits[0].vc);
    }
    EXPECT_EQ(h.env.flits[3].flit.type, FlitType::Tail);
}

TEST(RouterPipeline, CreditEmittedPerForwardedFlit)
{
    RouterHarness h(/*lookahead=*/false);
    h.router->acceptFlit(kLocalPort, 2,
                         h.makeFlit(FlitType::HeadTail, 1), 5);
    h.stepRange(5, 15);
    ASSERT_EQ(h.env.credits.size(), 1u);
    EXPECT_EQ(h.env.credits[0].port, kLocalPort);
    EXPECT_EQ(h.env.credits[0].vc, 2);
    // Credit emitted at the sel/arb grant (cycle 7), when the buffer
    // slot frees.
    EXPECT_EQ(h.env.credits[0].cycle, 7u);
}

TEST(RouterPipeline, HopCountIncrements)
{
    RouterHarness h(/*lookahead=*/false);
    Flit f = h.makeFlit(FlitType::HeadTail, 1);
    h.pool[f.msg].hops = 3;
    h.router->acceptFlit(kLocalPort, 0, f, 5);
    h.stepRange(5, 15);
    ASSERT_EQ(h.env.flits.size(), 1u);
    EXPECT_EQ(h.pool[h.env.flits[0].flit.msg].hops, 4);
}

TEST(RouterPipeline, AdaptiveVcPreferredOverEscape)
{
    // With 1 escape VC (VC 0) and 3 adaptive (1..3), a header bound
    // for the escape port should still take an adaptive VC first.
    RouterHarness h(/*lookahead=*/false);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::HeadTail, 1), 5);
    h.stepRange(5, 15);
    ASSERT_EQ(h.env.flits.size(), 1u);
    EXPECT_GE(h.env.flits[0].vc, 1);
}

TEST(RouterPipeline, EscapeVcUsedWhenAdaptiveExhausted)
{
    // Three long messages occupy the adaptive VCs of port +X; a fourth
    // header must fall back to the escape VC (0) since +X is its
    // escape port.
    RouterHarness h(/*lookahead=*/false);
    for (VcId v = 0; v < 4; ++v) {
        h.router->acceptFlit(kLocalPort, v,
                             h.makeFlit(FlitType::Head, 1, 0, 100), 5);
    }
    h.stepRange(5, 30);
    // All four headers forwarded, using all four VCs of port +X.
    ASSERT_EQ(h.env.flits.size(), 4u);
    bool vc_seen[4] = {};
    for (const auto& of : h.env.flits) {
        EXPECT_EQ(of.port, MeshShape::port(0, Direction::Plus));
        EXPECT_TRUE(isHead(of.flit.type));
        vc_seen[of.vc] = true;
    }
    for (bool seen : vc_seen)
        EXPECT_TRUE(seen);
}

TEST(RouterPipeline, BothVcClassesUsedUnderPressure)
{
    // Two concurrent messages toward the same (escape) port with only
    // 2 VCs: the first takes the adaptive VC, the second the escape
    // VC, and both make progress.
    RouterHarness h(/*lookahead=*/false, /*vcs=*/2, /*escape=*/1,
                    /*depth=*/4);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::Head, 1, 0, 100), 5);
    h.router->acceptFlit(kLocalPort, 1,
                         h.makeFlit(FlitType::Head, 1, 0, 100), 5);
    h.stepRange(5, 30);
    ASSERT_EQ(h.env.flits.size(), 2u);
    EXPECT_NE(h.env.flits[0].vc, h.env.flits[1].vc);
}

TEST(RouterPipeline, BlockedByZeroCreditsResumesOnCredit)
{
    RouterHarness h(/*lookahead=*/false, /*vcs=*/2, /*escape=*/1,
                    /*depth=*/1);
    // depth 1: a single credit per VC. The header consumes it; the
    // tail (injected after the header drains the 1-slot buffer) gets
    // stuck in the output FIFO until a credit returns.
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::Head, 1, 0, 2), 5);
    h.stepRange(5, 7); // header drains the 1-slot input buffer
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::Tail, 1, 1, 2), 8);
    h.stepRange(8, 20);
    ASSERT_EQ(h.env.flits.size(), 1u); // tail starved of credits
    // Return the credit; the tail moves.
    h.router->acceptCredit(MeshShape::port(0, Direction::Plus),
                           h.env.flits[0].vc);
    h.stepRange(21, 30);
    ASSERT_EQ(h.env.flits.size(), 2u);
    EXPECT_EQ(h.env.flits[1].flit.type, FlitType::Tail);
}

TEST(RouterPipeline, TailFreesInputVcForNextMessage)
{
    RouterHarness h(/*lookahead=*/false);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::HeadTail, 1), 5);
    h.stepRange(5, 14);
    // Second message on the same input VC after the first drained.
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::HeadTail, 2), 15);
    h.stepRange(15, 25);
    ASSERT_EQ(h.env.flits.size(), 2u);
    EXPECT_EQ(h.env.flits[1].port,
              MeshShape::port(1, Direction::Plus));
}

TEST(RouterPipeline, OccupancyTracksBufferedFlits)
{
    RouterHarness h(/*lookahead=*/false);
    EXPECT_EQ(h.router->occupancy(), 0u);
    h.router->acceptFlit(kLocalPort, 0,
                         h.makeFlit(FlitType::HeadTail, 1), 5);
    EXPECT_EQ(h.router->occupancy(), 1u);
    h.stepRange(5, 15);
    EXPECT_EQ(h.router->occupancy(), 0u);
    EXPECT_EQ(h.router->forwardedFlits(), 1u);
}

TEST(OccupiedLists, ActivateOnReceiveAndClearOnDrain)
{
    RouterHarness h(/*lookahead=*/false);
    EXPECT_TRUE(h.router->occupiedInputVcs().empty());
    EXPECT_FALSE(h.router->inputVcOccupied(kLocalPort, 2));

    h.router->acceptFlit(kLocalPort, 2,
                         h.makeFlit(FlitType::HeadTail, 1), 5);
    EXPECT_TRUE(h.router->inputVcOccupied(kLocalPort, 2));
    ASSERT_EQ(h.router->occupiedInputVcs().size(), 1u);
    EXPECT_EQ(h.router->occupiedInputVcs()[0],
              (std::pair<PortId, VcId>{kLocalPort, 2}));

    // The grant drains the input VC; the flit moves to the output FIFO
    // (cycle 8 = xbar stage for a cycle-5 arrival in PROUD).
    h.stepRange(5, 8);
    EXPECT_FALSE(h.router->inputVcOccupied(kLocalPort, 2));
    const PortId out = MeshShape::port(0, Direction::Plus);
    // Find the output VC actually allocated (exactly one holds the
    // flit) and check the occupied list tracks it.
    VcId out_vc = kInvalidVc;
    int backlogged = 0;
    for (VcId v = 0; v < h.router->numVcs(); ++v) {
        if (!h.router->outputUnit(out).buffers().empty(v)) {
            ++backlogged;
            out_vc = v;
        }
    }
    ASSERT_EQ(backlogged, 1);
    EXPECT_TRUE(h.router->outputVcOccupied(out, out_vc));

    // After transmission everything is clear again.
    h.stepRange(9, 15);
    ASSERT_EQ(h.env.flits.size(), 1u);
    EXPECT_FALSE(h.router->outputVcOccupied(out, h.env.flits[0].vc));
    EXPECT_TRUE(h.router->occupiedInputVcs().empty());
    EXPECT_TRUE(h.router->isQuiescent());
}

TEST(OccupiedLists, IterationOrderIsAscendingPortThenVc)
{
    RouterHarness h(/*lookahead=*/false);
    // Insert out of order; the list must still iterate ascending —
    // the order arbitration requests were always raised in.
    h.router->acceptFlit(2, 3, h.makeFlit(FlitType::Head, 0, 0, 9), 5);
    h.router->acceptFlit(kLocalPort, 1,
                         h.makeFlit(FlitType::Head, 1, 0, 9), 5);
    h.router->acceptFlit(2, 0, h.makeFlit(FlitType::Head, 0, 0, 9), 5);
    h.router->acceptFlit(1, 2, h.makeFlit(FlitType::Head, 0, 0, 9), 5);
    const auto occ = h.router->occupiedInputVcs();
    const std::vector<std::pair<PortId, VcId>> want = {
        {0, 1}, {1, 2}, {2, 0}, {2, 3}};
    EXPECT_EQ(occ, want);
}

TEST(OccupiedLists, MatchBufferStateUnderStreaming)
{
    // While a wormhole streams through, every (port, VC) must be on
    // the occupied list exactly when its buffer holds flits.
    RouterHarness h(/*lookahead=*/false);
    const std::uint16_t len = 6;
    for (std::uint16_t s = 0; s < len; ++s) {
        const FlitType t = s == 0 ? FlitType::Head
                           : s == len - 1 ? FlitType::Tail
                                          : FlitType::Body;
        h.router->acceptFlit(kLocalPort, 0, h.makeFlit(t, 1, s, len),
                             5 + s);
        h.stepRange(5 + s, 5 + s);
        for (PortId p = 0; p < h.router->numPorts(); ++p) {
            for (VcId v = 0; v < h.router->numVcs(); ++v) {
                EXPECT_EQ(h.router->inputVcOccupied(p, v),
                          !h.router->inputUnit(p).buffers().empty(v))
                    << "in " << int(p) << '/' << int(v);
                EXPECT_EQ(
                    h.router->outputVcOccupied(p, v),
                    !h.router->outputUnit(p).buffers().empty(v))
                    << "out " << int(p) << '/' << int(v);
            }
        }
    }
    h.stepRange(11, 30);
    EXPECT_TRUE(h.router->isQuiescent());
    EXPECT_TRUE(h.router->occupiedInputVcs().empty());
}

TEST(RouterPipelineDeath, LaHeaderWithoutRouteAborts)
{
    RouterHarness h(/*lookahead=*/true);
    Flit f = h.makeFlit(FlitType::HeadTail, 1);
    h.pool[f.msg].laValid = false;
    h.router->acceptFlit(kLocalPort, 0, f, 5);
    EXPECT_DEATH(h.stepRange(5, 10), "look-ahead");
}

} // namespace
} // namespace lapses
