/**
 * @file
 * Unit tests for the NIC: flitization, VC allocation, link pacing,
 * credit respect, look-ahead header generation, and ejection
 * bookkeeping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "network/nic.hpp"
#include "routing/duato.hpp"
#include "tables/full_table.hpp"

namespace lapses
{
namespace
{

/** Captures flits the NIC puts on the local link. */
class CaptureEnv : public Nic::Env
{
  public:
    struct Sent
    {
        VcId vc;
        Flit flit;
    };

    void
    injectFlit(VcId vc, const Flit& flit) override
    {
        sent.push_back({vc, flit});
    }

    std::vector<Sent> sent;
};

/** Counts delivered messages. */
class CountingSink : public DeliverySink
{
  public:
    void
    messageDelivered(MsgRef msg, Cycle) override
    {
        ++delivered;
        last = msg;
    }

    int delivered = 0;
    MsgRef last = kInvalidMsgRef;
};

class NicTest : public ::testing::Test
{
  protected:
    NicTest()
        : topo(makeSquareMesh(4)), algo(topo),
          table(topo, algo), pattern(topo)
    {}

    /** Tornado gives every node a fixed non-self destination. */
    class FixedPattern : public TrafficPattern
    {
      public:
        using TrafficPattern::TrafficPattern;
        NodeId
        pick(NodeId src, Rng&) const override
        {
            return (src + 5) % 16;
        }
    };

    Nic::Params
    params(double rate, int msg_len = 4, bool lookahead = false) const
    {
        Nic::Params p;
        p.numVcs = 2;
        p.routerBufDepth = 8;
        p.msgLen = msg_len;
        p.lookahead = lookahead;
        p.msgsPerCycle = rate;
        return p;
    }

    Topology topo;
    DuatoAdaptiveRouting algo;
    FullTable table;
    FixedPattern pattern;
    MessagePool pool;
};

TEST_F(NicTest, StepReportsActivityAndQuiescence)
{
    // Rate 0: the arrival process never fires, so after any step the
    // NIC is quiescent with no wake scheduled.
    Nic idle_nic(0, params(0.0), table, pattern, Rng{5}, pool);
    CaptureEnv env;
    const StepActivity idle = idle_nic.step(0, env);
    EXPECT_EQ(idle.progressed, 0u);
    EXPECT_FALSE(idle.pendingWork);
    EXPECT_EQ(idle.nextWake, kNeverCycle);
    EXPECT_TRUE(idle_nic.isQuiescent(1));

    // A busy NIC reports pending work while its backlog streams, and
    // progress on the cycles it puts a flit on the link.
    Nic nic(0, params(0.5, 4), table, pattern, Rng{5}, pool);
    Cycle now = 0;
    bool moved_any = false;
    bool pending_any = false;
    for (; now < 100; ++now) {
        const StepActivity r = nic.step(now, env);
        moved_any |= r.progressed > 0;
        pending_any |= r.pendingWork;
        // While a message streams, the NIC may never claim quiescence.
        if (r.pendingWork) {
            EXPECT_FALSE(nic.isQuiescent(now));
        }
    }
    EXPECT_TRUE(moved_any);
    EXPECT_TRUE(pending_any);
    // With a positive rate the self-scheduled wake is always finite.
    const StepActivity last = nic.step(now, env);
    EXPECT_NE(last.nextWake, kNeverCycle);
    EXPECT_GT(last.nextWake, now);
}

TEST_F(NicTest, FlitizesMessagesInOrder)
{
    // One VC so messages cannot interleave on the link.
    Nic::Params p = params(0.05, 4);
    p.numVcs = 1;
    Nic nic(0, p, table, pattern, Rng{5}, pool);
    CaptureEnv env;
    Cycle now = 0;
    for (; now < 500 && env.sent.size() < 4; ++now)
        nic.step(now, env);
    // Return the first message's credits so the VC can be reused.
    for (int i = 0; i < 4; ++i)
        nic.acceptCredit(0);
    for (; now < 1000 && env.sent.size() < 8; ++now)
        nic.step(now, env);
    ASSERT_GE(env.sent.size(), 8u);
    // First message: Head, Body, Body, Tail with ascending seq.
    EXPECT_EQ(env.sent[0].flit.type, FlitType::Head);
    EXPECT_EQ(env.sent[1].flit.type, FlitType::Body);
    EXPECT_EQ(env.sent[2].flit.type, FlitType::Body);
    EXPECT_EQ(env.sent[3].flit.type, FlitType::Tail);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(env.sent[static_cast<std::size_t>(i)].flit.seq, i);
        EXPECT_EQ(env.sent[static_cast<std::size_t>(i)].flit.msg,
                  env.sent[0].flit.msg);
    }
    // Second message has a new id.
    EXPECT_NE(env.sent[4].flit.msg, env.sent[0].flit.msg);
    EXPECT_EQ(env.sent[4].flit.type, FlitType::Head);
}

TEST_F(NicTest, SingleFlitMessagesAreHeadTail)
{
    Nic nic(0, params(0.05, 1), table, pattern, Rng{6}, pool);
    CaptureEnv env;
    for (Cycle c = 0; c < 200 && env.sent.empty(); ++c)
        nic.step(c, env);
    ASSERT_FALSE(env.sent.empty());
    EXPECT_EQ(env.sent[0].flit.type, FlitType::HeadTail);
}

TEST_F(NicTest, AtMostOneFlitPerCycle)
{
    // Drive a heavy rate; the local physical link must still carry at
    // most one flit per cycle.
    Nic nic(0, params(0.5, 4), table, pattern, Rng{7}, pool);
    CaptureEnv env;
    for (Cycle c = 0; c < 100; ++c) {
        const std::size_t before = env.sent.size();
        nic.step(c, env);
        EXPECT_LE(env.sent.size(), before + 1);
    }
}

TEST_F(NicTest, RespectsCredits)
{
    // Messages longer than the buffer (12 > 8): each active VC sends
    // exactly its 8 credits and stalls, so with 2 VCs and no credit
    // returns precisely 16 flits ever leave.
    Nic nic(0, params(1.0, 12), table, pattern, Rng{8}, pool);
    CaptureEnv env;
    for (Cycle c = 0; c < 400; ++c)
        nic.step(c, env);
    EXPECT_EQ(env.sent.size(), 16u);
    EXPECT_GT(nic.backlog(), 0u);
    // Returning credits unblocks exactly one more flit per credit.
    nic.acceptCredit(0);
    nic.acceptCredit(0);
    for (Cycle c = 400; c < 500; ++c)
        nic.step(c, env);
    EXPECT_EQ(env.sent.size(), 18u);
}

TEST_F(NicTest, ConservativeVcReallocation)
{
    // A VC is reusable only after all its credits return (the
    // downstream buffer fully drained).
    Nic::Params p = params(1.0, 2);
    p.numVcs = 1;
    p.routerBufDepth = 2;
    Nic nic(0, p, table, pattern, Rng{9}, pool);
    CaptureEnv env;
    for (Cycle c = 0; c < 50; ++c)
        nic.step(c, env);
    EXPECT_EQ(env.sent.size(), 2u); // one full message
    // One credit back: message done but buffer not drained -> no new
    // allocation.
    nic.acceptCredit(0);
    for (Cycle c = 50; c < 60; ++c)
        nic.step(c, env);
    EXPECT_EQ(env.sent.size(), 2u);
    // Second credit: VC reusable, next message flows.
    nic.acceptCredit(0);
    for (Cycle c = 60; c < 70; ++c)
        nic.step(c, env);
    EXPECT_EQ(env.sent.size(), 4u);
}

TEST_F(NicTest, LookaheadHeaderCarriesFirstHopRoute)
{
    Nic nic(0, params(0.05, 4, /*lookahead=*/true), table, pattern,
            Rng{10}, pool);
    CaptureEnv env;
    for (Cycle c = 0; c < 200 && env.sent.size() < 4; ++c)
        nic.step(c, env);
    ASSERT_GE(env.sent.size(), 4u);
    const Flit& head = env.sent[0].flit;
    const MessageDescriptor& desc = pool[head.msg];
    ASSERT_TRUE(desc.laValid);
    EXPECT_EQ(desc.laRoute, table.lookup(0, desc.dest));
    // Body flits reach the descriptor through the same handle instead
    // of replicating the look-ahead payload.
    EXPECT_EQ(env.sent[1].flit.msg, head.msg);
}

TEST_F(NicTest, InjectedAtStampsHeaderLaunch)
{
    Nic nic(0, params(0.05, 4), table, pattern, Rng{11}, pool);
    CaptureEnv env;
    for (Cycle c = 0; c < 300 && env.sent.size() < 4; ++c)
        nic.step(c, env);
    ASSERT_GE(env.sent.size(), 4u);
    const Flit& head = env.sent[0].flit;
    const MessageDescriptor& desc = pool[head.msg];
    EXPECT_GE(desc.injectedAt, desc.createdAt);
    // All flits of the message share the descriptor (and therefore the
    // header's injection stamp).
    EXPECT_EQ(env.sent[3].flit.msg, head.msg);
}

TEST_F(NicTest, MeasuringFlagTagsMessages)
{
    Nic nic(0, params(0.1, 2), table, pattern, Rng{12}, pool);
    CaptureEnv env;
    for (Cycle c = 0; c < 100; ++c)
        nic.step(c, env);
    EXPECT_EQ(nic.createdMeasured(), 0u);
    nic.setMeasuring(true);
    for (Cycle c = 100; c < 200; ++c)
        nic.step(c, env);
    EXPECT_GT(nic.createdMeasured(), 0u);
    EXPECT_GT(nic.createdTotal(), nic.createdMeasured());
}

TEST_F(NicTest, InjectionDisableStopsCreation)
{
    Nic nic(0, params(0.2, 2), table, pattern, Rng{13}, pool);
    CaptureEnv env;
    nic.setInjectionEnabled(false);
    for (Cycle c = 0; c < 200; ++c)
        nic.step(c, env);
    EXPECT_EQ(nic.createdTotal(), 0u);
    EXPECT_TRUE(env.sent.empty());
    nic.setInjectionEnabled(true);
    for (Cycle c = 200; c < 400; ++c)
        nic.step(c, env);
    EXPECT_GT(nic.createdTotal(), 0u);
}

TEST_F(NicTest, EjectionReportsTailsOnly)
{
    Nic nic(5, params(0.0), table, pattern, Rng{14}, pool);
    CountingSink sink;
    const MsgRef ref = pool.acquire();
    pool[ref].dest = 5;
    pool[ref].msgLen = 2;
    Flit f;
    f.msg = ref;
    f.type = FlitType::Head;
    nic.acceptFlit(f, 100, sink);
    EXPECT_EQ(sink.delivered, 0);
    f.type = FlitType::Tail;
    f.seq = 1;
    nic.acceptFlit(f, 101, sink);
    EXPECT_EQ(sink.delivered, 1);
    EXPECT_EQ(sink.last, ref);
}

TEST_F(NicTest, WrongDestinationEjectionAborts)
{
    Nic nic(5, params(0.0), table, pattern, Rng{15}, pool);
    CountingSink sink;
    const MsgRef ref = pool.acquire();
    pool[ref].dest = 6; // misrouted
    Flit f;
    f.msg = ref;
    f.type = FlitType::HeadTail;
    EXPECT_DEATH(nic.acceptFlit(f, 1, sink), "wrong node");
}

} // namespace
} // namespace lapses
