/**
 * @file
 * Unit tests for router input/output units: buffering, credits, and the
 * conservative VC reallocation rule.
 */

#include <gtest/gtest.h>

#include <vector>

#include "router/input_unit.hpp"
#include "router/output_unit.hpp"

namespace lapses
{
namespace
{

/** One input port's storage, laid out as a router lays out its VCs,
 *  with the unit viewing it. */
struct InputPort
{
    InputPort(int num_vcs, std::size_t buf_depth)
        : vcs(static_cast<std::size_t>(num_vcs)),
          fifos(static_cast<std::size_t>(num_vcs), buf_depth),
          unit(vcs.data(), fifos, num_vcs)
    {
    }

    std::vector<InputVc> vcs;
    FifoSet<Flit> fifos;
    InputUnit unit;
};

/** One output port's storage (credits preset to the downstream
 *  depth) with the unit viewing it. */
struct OutputPort
{
    OutputPort(int num_vcs, std::size_t buf_depth, int initial_credits,
               int xbar_requesters, bool infinite_credits)
        : vcs(static_cast<std::size_t>(num_vcs),
              OutputVc{.credits = initial_credits}),
          fifos(static_cast<std::size_t>(num_vcs), buf_depth),
          unit(vcs.data(), fifos, num_vcs, xbar_requesters,
               infinite_credits)
    {
    }

    std::vector<OutputVc> vcs;
    FifoSet<Flit> fifos;
    OutputUnit unit;
};

TEST(InputUnit, ReceiveStampsStageOneDelay)
{
    InputPort port(2, 4);
    InputUnit& in = port.unit;
    Flit f;
    f.type = FlitType::Head;
    in.receiveFlit(0, f, 10);
    EXPECT_EQ(in.buffers().front(0).readyAt, 11u);
    EXPECT_EQ(in.occupancy(), 1u);
}

TEST(InputUnit, VcsAreIndependent)
{
    InputPort port(2, 2);
    InputUnit& in = port.unit;
    Flit f;
    in.receiveFlit(0, f, 1);
    in.receiveFlit(1, f, 1);
    in.receiveFlit(1, f, 2);
    EXPECT_EQ(in.buffers().size(0), 1u);
    EXPECT_EQ(in.buffers().size(1), 2u);
    EXPECT_EQ(in.occupancy(), 3u);
}

TEST(InputUnit, StateStartsIdle)
{
    InputPort port(2, 2);
    const InputUnit& in = port.unit;
    EXPECT_EQ(in.vc(0).state, RouteState::Idle);
    EXPECT_EQ(in.vc(0).outPort, kInvalidPort);
    EXPECT_EQ(in.vc(0).outVc, kInvalidVc);
}

TEST(OutputUnit, InitialCreditsMatchDepth)
{
    OutputPort port(4, 8, 20, 20, false);
    OutputUnit& out = port.unit;
    for (VcId v = 0; v < 4; ++v) {
        EXPECT_EQ(out.vc(v).credits, 20);
        EXPECT_FALSE(out.vc(v).busy);
    }
    EXPECT_EQ(out.totalCredits(), 80);
    EXPECT_EQ(out.activeVcCount(), 0);
}

TEST(OutputUnit, AllocatableNeedsIdleAndFullCredits)
{
    OutputPort port(2, 8, 20, 10, false);
    OutputUnit& out = port.unit;
    EXPECT_TRUE(out.allocatable(0, 20));
    out.vc(0).busy = true;
    EXPECT_FALSE(out.allocatable(0, 20));
    out.vc(0).busy = false;
    out.vc(0).credits = 19; // downstream not fully drained
    EXPECT_FALSE(out.allocatable(0, 20));
    out.vc(0).credits = 20;
    EXPECT_TRUE(out.allocatable(0, 20));
}

TEST(OutputUnit, EjectionPortIgnoresCredits)
{
    OutputPort port(2, 8, 20, 10, true);
    OutputUnit& out = port.unit;
    out.vc(0).credits = 0;
    EXPECT_TRUE(out.hasInfiniteCredits());
    EXPECT_TRUE(out.canTransmit(0));
    EXPECT_TRUE(out.allocatable(0, 20));
}

TEST(OutputUnit, CanTransmitTracksCredits)
{
    OutputPort port(2, 8, 1, 10, false);
    OutputUnit& out = port.unit;
    EXPECT_TRUE(out.canTransmit(0));
    out.vc(0).credits = 0;
    EXPECT_FALSE(out.canTransmit(0));
}

TEST(OutputUnit, ActiveVcCountIsMuxDegree)
{
    OutputPort port(4, 8, 20, 20, false);
    OutputUnit& out = port.unit;
    out.vc(1).busy = true;
    out.vc(3).busy = true;
    EXPECT_EQ(out.activeVcCount(), 2);
}

TEST(OutputUnit, RecordUseFeedsLfuAndLru)
{
    OutputPort port(2, 8, 20, 10, false);
    OutputUnit& out = port.unit;
    EXPECT_EQ(out.useCount(), 0u);
    EXPECT_EQ(out.lastUseCycle(), 0u);
    out.recordUse(42);
    out.recordUse(99);
    EXPECT_EQ(out.useCount(), 2u);
    EXPECT_EQ(out.lastUseCycle(), 99u);
}

} // namespace
} // namespace lapses
