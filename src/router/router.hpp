/**
 * @file
 * The PROUD / LA-PROUD pipelined wormhole router (paper Sections 2-3).
 *
 * Pipeline stages (Fig. 1 / Fig. 2), each one cycle in the absence of
 * contention:
 *
 *   PROUD    (5): Sync/DeMux/Buffer/Decode -> Table Lookup ->
 *                 Select+Arbitrate -> Xbar -> VC Mux
 *   LA-PROUD (4): Sync/DeMux/Buffer/Decode -> Select+Arbitrate
 *                 (lookup for the *next* hop runs concurrently) ->
 *                 Xbar -> VC Mux
 *
 * Header flits walk the full pipe; middle/tail flits use the bypass path
 * (no lookup or selection). Contention occurs only at crossbar output
 * arbitration and VC multiplexing, matching the paper's model of a
 * router as parallel per-(port,VC) pipes.
 *
 * Stepping is O(occupied VCs), not O(ports x VCs): per-port bitmasks
 * track which input VCs hold flits and which output VCs have FIFO
 * backlog, maintained incrementally on flit receive / pop / transmit.
 * The masks iterate in ascending (port, VC) order — the same order the
 * full sweeps used — so arbitration requests, grants, and therefore
 * every statistic stay byte-identical to the exhaustive scan (see
 * DESIGN.md "Occupied-VC stepping").
 *
 * Deadlock avoidance is Duato's protocol when the routing algorithm
 * requests it: escape VCs are acquired only toward the escape port of
 * the table entry, adaptive VCs toward any candidate, and a blocked
 * header re-arbitrates over all of them every cycle.
 */

#ifndef LAPSES_ROUTER_ROUTER_HPP
#define LAPSES_ROUTER_ROUTER_HPP

#include <bit>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/fifo_set.hpp"
#include "common/types.hpp"
#include "router/input_unit.hpp"
#include "router/message_pool.hpp"
#include "router/output_unit.hpp"
#include "selection/path_selector.hpp"
#include "tables/routing_table.hpp"
#include "topology/mesh.hpp"

namespace lapses
{

struct RouterTelemetry;

/** Microarchitectural parameters of one router. */
struct RouterParams
{
    /** Virtual channels per physical channel (Table 2: 4). */
    int vcsPerPort = 4;

    /** Input FIFO depth in flits (Table 2: 20). */
    int inBufDepth = 20;

    /** Output FIFO depth in flits (Table 2: 20). */
    int outBufDepth = 20;

    /** LA-PROUD (4-stage) when true, PROUD (5-stage) when false. */
    bool lookahead = false;

    /** Escape VC classes reserved when the routing algorithm uses
     *  Duato's protocol: VCs [0, escapeVcs) are escape, the rest
     *  adaptive. Meta-tables need 2 (two-phase escape); everything else
     *  1. Ignored for algorithms that are deadlock-free on all VCs. */
    int escapeVcs = 1;
};

/** One pipelined wormhole router. */
class Router
{
  public:
    /**
     * Sink for flits and credits a router emits during step(); the
     * network implements it with 1-cycle links.
     */
    class Env
    {
      public:
        virtual ~Env() = default;

        /** A flit leaves through out_port (VC identified by the
         *  allocated output VC). */
        virtual void flitOut(PortId out_port, VcId out_vc,
                             const Flit& flit) = 0;

        /** A buffer slot freed on input (in_port, vc); credit the
         *  upstream transmitter. */
        virtual void creditOut(PortId in_port, VcId vc) = 0;

        /** The header on (in_port, vc) has no surviving candidate
         *  port (every one faces a dead link) and no reconfiguration
         *  is pending that could save it. The network purges such
         *  heads at the end of the cycle; default no-op for tests
         *  driving a router directly. */
        virtual void headUnroutable(PortId in_port, VcId vc)
        {
            (void)in_port;
            (void)vc;
        }
    };

    /**
     * @param id        this router's node id
     * @param topo      network topology (port/neighbor geometry)
     * @param params    microarchitecture parameters
     * @param table     programmed routing tables (shared, immutable)
     * @param escape_channels whether the routing algorithm requires
     *                  Duato escape-VC discipline
     * @param selector  path-selection heuristic instance (owned)
     * @param pool      in-flight message descriptors (shared with the
     *                  NICs and the network; must outlive the router)
     */
    Router(NodeId id, const Topology& topo, const RouterParams& params,
           const RoutingTable& table, bool escape_channels,
           PathSelectorPtr selector, MessagePool& pool);

    NodeId id() const { return id_; }
    int numPorts() const { return num_ports_; }
    int numVcs() const { return params_.vcsPerPort; }

    /** A flit arrives on in_port / vc from the link. */
    void
    acceptFlit(PortId in_port, VcId vc, const Flit& flit, Cycle now)
    {
        LAPSES_ASSERT(in_port >= 0 && in_port < num_ports_);
        inputs_[static_cast<std::size_t>(in_port)].receiveFlit(vc, flit,
                                                               now);
        ++buffered_flits_;
        markOccupied(in_vc_mask_, in_port_mask_, in_port, vc);
    }

    /** A credit returns for output (out_port, vc). */
    void
    acceptCredit(PortId out_port, VcId vc)
    {
        LAPSES_ASSERT(out_port >= 0 && out_port < num_ports_);
        OutputVc& ovc = out_vcs_[vcIndex(out_port, vc)];
        ++ovc.credits;
        LAPSES_ASSERT_MSG(ovc.credits <= params_.inBufDepth,
                          "credit overflow: more credits than buffer "
                          "slots");
    }

    /**
     * Advance one cycle: route headers, arbitrate the crossbar,
     * multiplex VCs onto links. The report tells the network whether
     * any flit moved and whether the router still holds buffered work
     * (and therefore needs stepping again next cycle).
     */
    StepActivity step(Cycle now, Env& env);

    /**
     * True when stepping this router is a guaranteed no-op: no flit is
     * buffered in any input or output FIFO, so nothing can be routed,
     * arbitrated, or transmitted. Residual per-message state (an input
     * VC waiting for a tail still upstream, a busy output VC) needs no
     * stepping — a quiescent router is re-activated by the next flit or
     * credit arrival.
     */
    bool isQuiescent() const { return occupancy() == 0; }

    /** Flits buffered in the router (input + output FIFOs), maintained
     *  incrementally so the per-step quiescence check is O(1). */
    std::size_t occupancy() const { return buffered_flits_; }

    /** Flits forwarded over the router's lifetime (progress watchdog). */
    std::uint64_t forwardedFlits() const { return forwarded_flits_; }

    /**
     * Attach (or detach with nullptr) the cumulative telemetry
     * counters this router maintains. The counters are pure observers:
     * they are updated on paths step() already executes, never read
     * back by any routing/arbitration decision, and cost one null
     * check per site when detached (see DESIGN.md "Telemetry
     * determinism contract").
     */
    void setTelemetry(RouterTelemetry* telem) { telem_ = telem; }

    const InputUnit& inputUnit(PortId p) const
    {
        return inputs_[static_cast<std::size_t>(p)];
    }

    const OutputUnit& outputUnit(PortId p) const
    {
        return outputs_[static_cast<std::size_t>(p)];
    }

    // --- Occupied-list introspection (tests / invariant checks) -------

    /** True when input (p, v) is on the occupied list. */
    bool
    inputVcOccupied(PortId p, VcId v) const
    {
        return (in_vc_mask_[static_cast<std::size_t>(p)] >> v) & 1u;
    }

    /** True when output (p, v) is on the non-empty-FIFO list. */
    bool
    outputVcOccupied(PortId p, VcId v) const
    {
        return (out_vc_mask_[static_cast<std::size_t>(p)] >> v) & 1u;
    }

    /** The occupied input VCs in iteration (= arbitration) order. */
    std::vector<std::pair<PortId, VcId>> occupiedInputVcs() const;

    // --- Dynamic link faults (see DESIGN.md "Fault events") ----------

    /** Mark port p's link dead: headers never select it, the VC mux
     *  never transmits through it. */
    void markPortDead(PortId p);

    /** Bring port p's link back up, resetting its output unit (fresh
     *  credits, no busy VCs; the peer's input buffers were purged when
     *  the link died, so full credit is exact). */
    void markPortAlive(PortId p, int fresh_credits);

    bool
    portDead(PortId p) const
    {
        return (dead_port_mask_ >> p) & 1u;
    }

    /** While a reconfiguration is pending, heads with no surviving
     *  candidate stall (the new tables may save them) instead of being
     *  reported unroutable. */
    void setReconfigPending(bool pending) { reconfig_pending_ = pending; }

    /**
     * Collect the messages a death of port p's link cuts: every flit
     * buffered in the port's input/output FIFOs, the owners of those
     * VCs, and any input VC allocated through p. Appends MsgRefs
     * (possibly duplicated) to `out`.
     */
    void collectPortMessages(PortId p, std::vector<MsgRef>& out) const;

    /**
     * Remove every flit of `msg` from this router, releasing any VC
     * the message owns. For each flit removed from an input FIFO,
     * `credit(in_port, vc)` runs so the caller can return the freed
     * slot upstream directly (reconfiguration-time cleanup bypasses
     * the wires). Returns the number of flits removed.
     */
    std::size_t
    purgeMessage(MsgRef msg,
                 const std::function<void(PortId, VcId)>& credit);

    /** Zero the dead port's credits (quarantine) after its traffic was
     *  purged; FIFOs must already be empty. */
    void quarantineDeadPort(PortId p);

    /**
     * Reconfiguration sweep: refresh the table route of every held
     * (WaitArb) header from the (possibly reprogrammed) table,
     * counting those whose candidates changed into `rerouted`. Heads
     * left without a surviving candidate are appended to `unroutable`.
     */
    void rerouteHeldHeads(
        std::vector<std::pair<PortId, VcId>>& unroutable,
        std::uint64_t& rerouted);

    /** The message of the head on (p, v) if it is still a held header
     *  with no surviving candidate; kInvalidMsgRef otherwise (the
     *  end-of-cycle unroutable purge re-verifies through this). */
    MsgRef heldUnroutableMsg(PortId p, VcId v) const;

  private:
    /** Move a header at the front of input VC i through decode /
     *  lookup into the WaitArb state. */
    void advanceHeaderState(std::size_t i, Cycle now);

    /** Raise crossbar requests for one input VC; returns the requested
     *  output port or kInvalidPort. */
    PortId gatherRequest(PortId in_port, VcId vc, Cycle now, Env& env);

    /** True when the route has at least one candidate whose link is
     *  up. */
    bool hasLiveCandidate(const RouteCandidates& route) const;

    /** VCs this header may allocate on candidate port p. */
    int countFreeVcs(const RouteCandidates& route, PortId p) const;

    /** Pick the output VC on the selected port (adaptive preferred,
     *  escape as last resort). */
    VcId allocateVc(const RouteCandidates& route, PortId p) const;

    /** Advance headers and raise requests in one pass over the
     *  occupied inputs, then grant winners per output port and move
     *  flits input -> output FIFO. */
    void serveCrossbar(Cycle now, Env& env);

    /** Transmit one flit per output port onto the link. */
    void serveVcMux(Cycle now, Env& env);

    /** Index of (port, vc) in the flat per-router VC arrays and FIFO
     *  sets; also the VC's crossbar requester id. */
    std::size_t
    vcIndex(PortId port, VcId vc) const
    {
        return static_cast<std::size_t>(port) *
                   static_cast<std::size_t>(params_.vcsPerPort) +
               static_cast<std::size_t>(vc);
    }

    // Occupied-list maintenance. Every buffer push/pop site must keep
    // the VC bit and the port summary bit in sync — route all updates
    // through these two helpers so the invariant lives in one place.

    static void
    markOccupied(std::vector<std::uint64_t>& vc_masks,
                 std::uint64_t& port_mask, PortId p, VcId v)
    {
        vc_masks[static_cast<std::size_t>(p)] |= std::uint64_t{1} << v;
        port_mask |= std::uint64_t{1} << p;
    }

    /** Clear (p, v) when its buffer just drained to empty. */
    static void
    clearIfDrained(std::vector<std::uint64_t>& vc_masks,
                   std::uint64_t& port_mask, PortId p, VcId v,
                   bool empty)
    {
        if (!empty)
            return;
        vc_masks[static_cast<std::size_t>(p)] &=
            ~(std::uint64_t{1} << v);
        if (vc_masks[static_cast<std::size_t>(p)] == 0)
            port_mask &= ~(std::uint64_t{1} << p);
    }

    /**
     * Visit every occupied input VC as fn(port, vc), in ascending
     * (port, VC) order. That order is load-bearing: it is the order
     * the old exhaustive sweeps raised arbitration requests in, and
     * changing it would silently change grant outcomes — keep the
     * iteration in this one place.
     */
    template <typename Fn>
    void
    forEachOccupiedInput(Fn&& fn) const
    {
        std::uint64_t pm = in_port_mask_;
        while (pm != 0) {
            const auto ip = static_cast<PortId>(std::countr_zero(pm));
            pm &= pm - 1;
            std::uint64_t vm =
                in_vc_mask_[static_cast<std::size_t>(ip)];
            while (vm != 0) {
                const auto v = static_cast<VcId>(std::countr_zero(vm));
                vm &= vm - 1;
                fn(ip, v);
            }
        }
    }

    NodeId id_;
    const Topology& topo_;
    RouterParams params_;
    const RoutingTable& table_;
    bool escape_channels_;
    PathSelectorPtr selector_;
    MessagePool& pool_;
    int num_ports_;

    // Per-VC storage, flat in (port, VC) order (vcIndex): VC state
    // and one slot array of flit FIFOs per direction. The units are
    // per-port views into these heap arrays, so they stay valid when
    // the router moves.
    std::vector<InputVc> in_vcs_;
    std::vector<OutputVc> out_vcs_;
    FifoSet<Flit> in_fifos_;
    FifoSet<Flit> out_fifos_;
    std::vector<InputUnit> inputs_;
    std::vector<OutputUnit> outputs_;

    /** Pending crossbar request per input VC this cycle. */
    std::vector<PortId> pending_request_;

    /** Port of each flat VC index (vcIndex), so a crossbar grant
     *  recovers its input port without a division. */
    std::vector<PortId> vc_port_;

    // Occupied-VC lists, as bitmasks so insertion/removal are O(1) and
    // iteration follows ascending (port, VC) — the scan sweeps' order.
    std::vector<std::uint64_t> in_vc_mask_;  //!< per in port: VCs with flits
    std::vector<std::uint64_t> out_vc_mask_; //!< per out port: backlogged VCs
    std::uint64_t in_port_mask_ = 0;  //!< in ports with any occupied VC
    std::uint64_t out_port_mask_ = 0; //!< out ports with any backlog

    /** Ports whose link is currently down (zero when healthy — every
     *  fault check is a single mask test on the hot path). */
    std::uint64_t dead_port_mask_ = 0;

    /** A reconfiguration window is open (see setReconfigPending). */
    bool reconfig_pending_ = false;

    /** Telemetry counters (owned by the network); null = telemetry
     *  off, every update site is behind one predictable branch. */
    RouterTelemetry* telem_ = nullptr;

    std::uint64_t forwarded_flits_ = 0;
    std::size_t buffered_flits_ = 0;
};

} // namespace lapses

#endif // LAPSES_ROUTER_ROUTER_HPP
