/**
 * @file
 * Router output unit: per-VC output FIFOs, credit counters, and the two
 * arbitration points (crossbar output arbitration and VC multiplexing).
 *
 * The unit also maintains the per-physical-channel usage statistics the
 * path-selection heuristics consume: cumulative use count (LFU), last
 * use cycle (LRU), allocated-VC count (MIN-MUX) and credit totals
 * (MAX-CREDIT).
 *
 * The router owns the per-VC storage: all its output VCs in one flat
 * array and all their FIFOs in one FifoSet, both in (port, VC) order.
 * An OutputUnit views one port's share and owns the port's arbiters
 * and usage counters.
 */

#ifndef LAPSES_ROUTER_OUTPUT_UNIT_HPP
#define LAPSES_ROUTER_OUTPUT_UNIT_HPP

#include "common/fifo_set.hpp"
#include "common/types.hpp"
#include "router/arbiter.hpp"
#include "router/flit.hpp"

namespace lapses
{

/** Per-virtual-channel output state (its flit FIFO, ahead of the VC
 *  multiplexer, lives in the router's output FifoSet at the same
 *  index). */
struct OutputVc
{
    /** Downstream input-buffer credits for this VC. */
    int credits = 0;

    /** Allocated to an in-flight message (cleared when its tail is
     *  transmitted). */
    bool busy = false;

    /** The message owning this VC while busy (fault-path discovery of
     *  worms cut by a dying link). */
    MsgRef msg = kInvalidMsgRef;
};

/** Output port: crossbar output + VC mux + link credit bookkeeping. */
class OutputUnit
{
  public:
    /**
     * @param vcs              the port's num_vcs VC states, credits
     *                         already set to the downstream buffer
     *                         depth
     * @param fifos            the port's output FIFOs, VC v at index v
     * @param num_vcs          VCs on the physical channel
     * @param xbar_requesters  input VC id space for crossbar arbitration
     * @param infinite_credits ejection port: the NIC sink never
     *                         backpressures
     */
    OutputUnit(OutputVc* vcs, FifoSpan<Flit> fifos, int num_vcs,
               int xbar_requesters, bool infinite_credits)
        : xbarArb(xbar_requesters), muxArb(num_vcs), vcs_(vcs),
          fifos_(fifos), num_vcs_(num_vcs),
          infinite_credits_(infinite_credits)
    {
    }

    int numVcs() const { return num_vcs_; }

    OutputVc& vc(VcId v) { return vcs_[static_cast<std::size_t>(v)]; }
    const OutputVc&
    vc(VcId v) const
    {
        return vcs_[static_cast<std::size_t>(v)];
    }

    /** The port's output FIFOs, indexed by VC. */
    const FifoSpan<Flit>& buffers() const { return fifos_; }

    /** Ejection ports never wait for credits. */
    bool hasInfiniteCredits() const { return infinite_credits_; }

    /** Credits available for transmitting on VC v. */
    bool
    canTransmit(VcId v) const
    {
        return infinite_credits_ || vc(v).credits > 0;
    }

    /**
     * A new message may allocate VC v when no message owns it and the
     * downstream buffer has fully drained (conservative VC
     * reallocation, as in the T3E), which guarantees messages never
     * interleave within a VC buffer.
     */
    bool
    allocatable(VcId v, int full_credits) const
    {
        const OutputVc& o = vc(v);
        return !o.busy &&
               (infinite_credits_ || o.credits == full_credits);
    }

    /** Number of VCs currently allocated: the VC-multiplexing degree
     *  (MIN-MUX's metric). */
    int
    activeVcCount() const
    {
        int n = 0;
        for (int v = 0; v < num_vcs_; ++v)
            n += vcs_[v].busy ? 1 : 0;
        return n;
    }

    /** Credits summed over all VCs (MAX-CREDIT's metric). */
    int
    totalCredits() const
    {
        int n = 0;
        for (int v = 0; v < num_vcs_; ++v)
            n += vcs_[v].credits;
        return n;
    }

    /** Flits ever transmitted through the port (LFU's counter). */
    std::uint64_t useCount() const { return use_count_; }

    /** Cycle of the most recent transmission (LRU's age input). */
    Cycle lastUseCycle() const { return last_use_cycle_; }

    /** Record a link transmission for the PSH statistics. */
    void
    recordUse(Cycle now)
    {
        ++use_count_;
        last_use_cycle_ = now;
    }

    /** Crossbar output-port arbiter (one grant per cycle). */
    RoundRobinArbiter xbarArb;

    /** VC multiplexer arbiter (one flit per cycle onto the link). */
    RoundRobinArbiter muxArb;

  private:
    OutputVc* vcs_;
    FifoSpan<Flit> fifos_;
    int num_vcs_;
    std::uint64_t use_count_ = 0;
    Cycle last_use_cycle_ = 0;
    bool infinite_credits_;
};

} // namespace lapses

#endif // LAPSES_ROUTER_OUTPUT_UNIT_HPP
