/**
 * @file
 * Router input unit: per-VC flit buffers and routing state.
 *
 * Each input port has the VC demultiplexer's buffers (Section 2.1) and,
 * per VC, the header's progress through the routing pipeline: Idle ->
 * WaitArb (after decode and, without look-ahead, table lookup) ->
 * Active (path selected, output VC allocated) until the tail passes.
 *
 * The router owns the storage: all its input VCs in one flat array and
 * all their FIFOs in one FifoSet, both in (port, VC) order. An
 * InputUnit is one port's view into them.
 */

#ifndef LAPSES_ROUTER_INPUT_UNIT_HPP
#define LAPSES_ROUTER_INPUT_UNIT_HPP

#include "common/fifo_set.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"
#include "routing/route_candidates.hpp"

namespace lapses
{

/** Routing progress of the message currently owning an input VC. */
enum class RouteState : std::uint8_t
{
    Idle,    //!< no header being routed on this VC
    WaitArb, //!< header at selection-cum-arbitration stage (retries)
    Active,  //!< path allocated; body/tail flits use the bypass path
};

/** Per-virtual-channel input state (its flit FIFO lives in the
 *  router's input FifoSet at the same index). */
struct InputVc
{
    RouteState state = RouteState::Idle;

    /** Earliest cycle the header may attempt selection/arbitration. */
    Cycle arbEligibleAt = 0;

    /** The message owning this VC while state != Idle. Lets the fault
     *  path find a cut worm even when every one of its flits is
     *  momentarily buffered elsewhere (see Network fault handling). */
    MsgRef msg = kInvalidMsgRef;

    /** Routing-table candidates for the header (from the look-ahead
     *  header payload or the local table-lookup stage). */
    RouteCandidates route;

    /** Allocated crossbar output once Active. */
    PortId outPort = kInvalidPort;
    VcId outVc = kInvalidVc;
};

/** Input port: a view of one port's VC state and flit FIFOs. */
class InputUnit
{
  public:
    /**
     * @param vcs     the port's num_vcs VC states
     * @param fifos   the port's flit FIFOs (Table 2: 20 flits deep by
     *                default), VC v at index v
     * @param num_vcs VCs on the physical channel
     */
    InputUnit(InputVc* vcs, FifoSpan<Flit> fifos, int num_vcs)
        : vcs_(vcs), fifos_(fifos), num_vcs_(num_vcs)
    {
    }

    int numVcs() const { return num_vcs_; }

    InputVc& vc(VcId v) { return vcs_[static_cast<std::size_t>(v)]; }
    const InputVc&
    vc(VcId v) const
    {
        return vcs_[static_cast<std::size_t>(v)];
    }

    /** The port's flit FIFOs, indexed by VC. */
    const FifoSpan<Flit>& buffers() const { return fifos_; }

    /**
     * Accept a flit from the link (stage 1: sync/demux/buffer/decode).
     * The flit becomes actionable one cycle later.
     */
    void
    receiveFlit(VcId v, Flit flit, Cycle now)
    {
        flit.readyAt = now + 1;
        fifos_.push(static_cast<std::size_t>(v), flit);
    }

    /** Total buffered flits across VCs (diagnostics). */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (int v = 0; v < num_vcs_; ++v)
            n += fifos_.size(static_cast<std::size_t>(v));
        return n;
    }

  private:
    InputVc* vcs_;
    FifoSpan<Flit> fifos_;
    int num_vcs_;
};

} // namespace lapses

#endif // LAPSES_ROUTER_INPUT_UNIT_HPP
