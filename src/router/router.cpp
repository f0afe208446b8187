#include "router/router.hpp"

#include <algorithm>
#include <bit>

#include "telemetry/telemetry.hpp"

namespace lapses
{

Router::Router(NodeId id, const Topology& topo,
               const RouterParams& params, const RoutingTable& table,
               bool escape_channels, PathSelectorPtr selector,
               MessagePool& pool)
    : id_(id), topo_(topo), params_(params), table_(table),
      escape_channels_(escape_channels), selector_(std::move(selector)),
      pool_(pool), num_ports_(topo.numPorts())
{
    LAPSES_ASSERT(selector_ != nullptr);
    if (params_.vcsPerPort < 1)
        throw ConfigError("router needs at least one VC per port");
    if (params_.vcsPerPort > 64 || num_ports_ > 64) {
        // The occupied-VC lists are 64-bit masks per port and over
        // ports; real configurations sit far below this.
        throw ConfigError("occupied-VC tracking supports at most 64 "
                          "VCs per port and 64 ports");
    }
    if (escape_channels_ &&
        (params_.escapeVcs < 1 ||
         params_.escapeVcs >= params_.vcsPerPort)) {
        throw ConfigError(
            "Duato's protocol needs 1 <= escapeVcs < vcsPerPort");
    }
    const int xbar_requesters = num_ports_ * params_.vcsPerPort;
    const auto vc_count = static_cast<std::size_t>(xbar_requesters);
    const auto depth = static_cast<std::size_t>(params_.bufferDepth);
    in_vcs_.resize(vc_count);
    // Downstream of every network output is a peer input FIFO of the
    // same depth.
    out_vcs_.assign(vc_count, OutputVc{.credits = params_.bufferDepth});
    in_fifos_ = FifoSet<Flit>(vc_count, depth);
    out_fifos_ = FifoSet<Flit>(vc_count, depth);
    outputs_.assign(static_cast<std::size_t>(num_ports_),
                    OutputUnit(xbar_requesters, params_.vcsPerPort));
    pending_request_.assign(vc_count, kInvalidPort);
    vc_port_.reserve(vc_count);
    for (PortId p = 0; p < num_ports_; ++p)
        vc_port_.insert(vc_port_.end(),
                        static_cast<std::size_t>(params_.vcsPerPort), p);
    in_vc_mask_.assign(static_cast<std::size_t>(num_ports_), 0);
    out_vc_mask_.assign(static_cast<std::size_t>(num_ports_), 0);
}

std::vector<std::pair<PortId, VcId>>
Router::occupiedInputVcs() const
{
    std::vector<std::pair<PortId, VcId>> occupied;
    forEachOccupiedInput(
        [&](PortId ip, VcId v) { occupied.emplace_back(ip, v); });
    return occupied;
}

void
Router::advanceHeaderState(std::size_t i, Cycle now)
{
    InputVc& ivc = in_vcs_[i];
    if (ivc.state != RouteState::Idle || in_fifos_.empty(i))
        return;
    const Flit& front = in_fifos_.front(i);
    if (front.readyAt > now)
        return;
    LAPSES_ASSERT_MSG(isHead(front.type),
                      "non-header flit at the front of an idle VC");
    const MessageDescriptor& desc = pool_[front.msg];
    if (params_.lookahead) {
        // LA-PROUD: the candidates arrived in the header; selection and
        // arbitration may start immediately (4-stage pipe). The lookup
        // for the *next* router happens concurrently at grant time.
        LAPSES_ASSERT_MSG(desc.laValid,
                          "look-ahead router received a header without "
                          "look-ahead route");
        ivc.route = desc.laRoute;
        ivc.arbEligibleAt = std::max(front.readyAt, now);
    } else {
        // PROUD: a dedicated table-lookup stage precedes selection
        // (5-stage pipe).
        ivc.route = table_.lookup(id_, desc.dest);
        ivc.arbEligibleAt = std::max(front.readyAt, now) + 1;
    }
    LAPSES_ASSERT_MSG(!ivc.route.empty(), "empty routing-table entry");
    ivc.state = RouteState::WaitArb;
    ivc.msg = front.msg;
}

PermittedVcs
permittedVcs(const RouteCandidates& route, PortId p, int vcs_per_port,
             int escape_vcs, bool escape_channels)
{
    // The low vcs_per_port bits; shifting right keeps 64 VCs defined.
    const std::uint64_t all = ~std::uint64_t{0} >> (64 - vcs_per_port);
    if (p == kLocalPort || !escape_channels ||
        route.escapePort() == kInvalidPort) {
        return {.adaptive = all};
    }
    // Adaptive VCs toward any candidate; the escape VC of the entry's
    // escape phase only toward the escape port.
    PermittedVcs vcs{.adaptive = all >> escape_vcs << escape_vcs};
    if (p == route.escapePort()) {
        vcs.escape = std::uint64_t{1}
                     << std::min(route.escapeClass(), escape_vcs - 1);
    }
    return vcs;
}

PermittedVcs
Router::allocatableVcs(const RouteCandidates& route, PortId p) const
{
    // A new message may allocate a VC no message owns whose downstream
    // buffer has fully drained (conservative VC reallocation, as in
    // the T3E), so messages never interleave within a VC buffer. The
    // ejection port's NIC sink never backpressures.
    std::uint64_t free = 0;
    const std::size_t first = vcIndex(p, 0);
    for (VcId v = 0; v < params_.vcsPerPort; ++v) {
        const OutputVc& ovc = out_vcs_[first + static_cast<std::size_t>(v)];
        if (!ovc.busy &&
            (p == kLocalPort || ovc.credits == params_.bufferDepth)) {
            free |= std::uint64_t{1} << v;
        }
    }
    PermittedVcs vcs = permittedVcs(route, p, params_.vcsPerPort,
                                    params_.escapeVcs, escape_channels_);
    vcs.adaptive &= free;
    vcs.escape &= free;
    return vcs;
}

bool
Router::hasLiveCandidate(const RouteCandidates& route) const
{
    for (int i = 0; i < route.count(); ++i) {
        if (!portDead(route.at(i)))
            return true;
    }
    return false;
}

PortId
Router::gatherRequest(PortId in_port, VcId vc, Cycle now, Env& env)
{
    const std::size_t i = vcIndex(in_port, vc);
    InputVc& ivc = in_vcs_[i];
    if (in_fifos_.empty(i))
        return kInvalidPort;

    if (ivc.state == RouteState::WaitArb) {
        if (now < ivc.arbEligibleAt)
            return kInvalidPort;
        // Selection-cum-arbitration stage: filter candidates to those
        // with an allocatable VC (skipping dead links), then apply the
        // path-selection heuristic (Section 4).
        std::array<PortStatus, RouteCandidates::kMaxCandidates> status;
        int avail = 0;
        int live = 0;
        for (int c = 0; c < ivc.route.count(); ++c) {
            const PortId p = ivc.route.at(c);
            if (portDead(p))
                continue;
            ++live;
            const PermittedVcs vcs = allocatableVcs(ivc.route, p);
            const int free_vcs = std::popcount(vcs.adaptive | vcs.escape);
            if (free_vcs == 0)
                continue;
            // MAX-CREDIT's and MIN-MUX's inputs, summed over the port.
            int credits = 0;
            int active = 0;
            const std::size_t first = vcIndex(p, 0);
            for (VcId v = 0; v < params_.vcsPerPort; ++v) {
                const OutputVc& ovc =
                    out_vcs_[first + static_cast<std::size_t>(v)];
                credits += ovc.credits;
                active += ovc.busy ? 1 : 0;
            }
            const OutputUnit& out = outputs_[static_cast<std::size_t>(p)];
            status[static_cast<std::size_t>(avail++)] = PortStatus{
                p, free_vcs, credits, active, out.useCount,
                out.lastUseCycle};
        }
        if (live == 0) {
            // Every candidate faces a dead link. Stall while a
            // reconfiguration is pending (the reprogrammed tables may
            // route around the failure); otherwise consult the table
            // once more (a look-ahead route computed before the fault
            // is stale by now) and report the head unroutable if that
            // does not help — the network purges it at end of cycle.
            if (reconfig_pending_)
                return kInvalidPort;
            const MessageDescriptor& desc = pool_[in_fifos_.front(i).msg];
            ivc.route = table_.lookup(id_, desc.dest);
            if (!hasLiveCandidate(ivc.route))
                env.headUnroutable(in_port, vc);
            return kInvalidPort;
        }
        if (avail == 0)
            return kInvalidPort; // all candidates blocked; retry
        const PortId chosen = avail == 1
            ? status[0].port
            : selector_->select(std::span<const PortStatus>(
                  status.data(), static_cast<std::size_t>(avail)));
        LAPSES_ASSERT(ivc.route.contains(chosen));
        return chosen;
    }

    if (ivc.state == RouteState::Active) {
        // Bypass path: body/tail flits follow the allocated route,
        // contending only for the crossbar output slot.
        if (in_fifos_.front(i).readyAt > now ||
            out_fifos_.full(vcIndex(ivc.outPort, ivc.outVc)))
            return kInvalidPort;
        return ivc.outPort;
    }
    return kInvalidPort;
}

void
Router::serveCrossbar(Cycle now, Env& env)
{
    // Advance headers and raise request lines in one pass — only VCs
    // holding flits can request, and the occupied list iterates them
    // in the same ascending (port, VC) order the full sweep used, so
    // arbitration is unchanged. Decoding a header before the next VC's
    // request is safe: the decode writes only its own input VC, and no
    // other VC's request reads it.
    std::uint64_t req_ports = 0;
    std::uint64_t raised = 0;
    std::uint64_t granted = 0;
    forEachOccupiedInput([&](PortId ip, VcId v) {
        const std::size_t i = vcIndex(ip, v);
        advanceHeaderState(i, now);
        const PortId req = gatherRequest(ip, v, now, env);
        pending_request_[i] = req;
        if (req != kInvalidPort) {
            outputs_[static_cast<std::size_t>(req)].xbarArb.request(
                static_cast<int>(i));
            req_ports |= std::uint64_t{1} << req;
            ++raised;
        }
    });

    // One grant per output port per cycle. Ports nobody requested are
    // skipped: their grant() would return -1 without touching the
    // rotating priority pointer.
    while (req_ports != 0) {
        const auto op = static_cast<PortId>(std::countr_zero(req_ports));
        req_ports &= req_ports - 1;
        OutputUnit& out = outputs_[static_cast<std::size_t>(op)];
        const int winner = out.xbarArb.grant();
        if (winner < 0)
            continue;
        const auto i = static_cast<std::size_t>(winner);
        const PortId ip = vc_port_[i];
        const auto v = static_cast<VcId>(i - vcIndex(ip, 0));
        InputVc& ivc = in_vcs_[i];
        LAPSES_ASSERT(pending_request_[i] == op);

        if (ivc.state == RouteState::WaitArb) {
            // Header granted: allocate the output VC now. The grant is
            // exclusive per output port, so the VC seen free during
            // selection is still free. Adaptive VCs go first, keeping
            // the escape network free for blocked messages.
            const PermittedVcs vcs = allocatableVcs(ivc.route, op);
            const std::uint64_t pick =
                vcs.adaptive != 0 ? vcs.adaptive : vcs.escape;
            LAPSES_ASSERT_MSG(pick != 0,
                              "granted header found no allocatable VC");
            const auto ov = static_cast<VcId>(std::countr_zero(pick));
            OutputVc& ovc = out_vcs_[vcIndex(op, ov)];
            ovc.busy = true;
            ovc.msg = ivc.msg;
            ivc.state = RouteState::Active;
            ivc.outPort = op;
            ivc.outVc = ov;
        }
        const VcId ov = ivc.outVc;
        LAPSES_ASSERT(ov != kInvalidVc && ivc.outPort == op);

        // Move the flit through the crossbar into the output FIFO: one
        // cycle of crossbar traversal, then it is eligible for the VC
        // multiplexer.
        Flit flit = in_fifos_.pop(i);
        clearIfDrained(in_vc_mask_, in_port_mask_, ip, v,
                       in_fifos_.empty(i));
        env.creditOut(ip, v);
        flit.readyAt = now + 2;
        if (isHead(flit.type)) {
            // The header advances the message's hop count; the tail
            // reads the final value for statistics. Head and tail
            // traverse the same routers, so this matches the old
            // per-flit counter exactly.
            MessageDescriptor& desc = pool_[flit.msg];
            ++desc.hops;
            if (params_.lookahead && op != kLocalPort) {
                // Concurrent lookup for the next hop; the new header is
                // generated off the arbitration critical path (Fig. 4b),
                // so this costs no pipeline time.
                const NodeId next = topo_.neighbor(id_, op);
                LAPSES_ASSERT(next != kInvalidNode);
                desc.laRoute = table_.lookup(next, desc.dest);
                desc.laValid = true;
            }
        }
        if (isTail(flit.type)) {
            // The wormhole releases the input VC; the output VC stays
            // busy until the tail is transmitted on the link.
            ivc.state = RouteState::Idle;
            ivc.outPort = kInvalidPort;
            ivc.outVc = kInvalidVc;
            ivc.msg = kInvalidMsgRef;
        }
        out_fifos_.push(vcIndex(op, ov), flit);
        markOccupied(out_vc_mask_, out_port_mask_, op, ov);
        ++forwarded_flits_;
        ++granted;
    }
    if (telem_ != nullptr)
        telem_->arbStalls += raised - granted;
}

void
Router::serveVcMux(Cycle now, Env& env)
{
    // Only output ports with FIFO backlog can transmit; VCs raise in
    // ascending order exactly as the full sweep did. Dead ports never
    // transmit (their FIFOs are purged when the link dies anyway).
    std::uint64_t pm = out_port_mask_ & ~dead_port_mask_;
    while (pm != 0) {
        const auto op = static_cast<PortId>(std::countr_zero(pm));
        pm &= pm - 1;
        OutputUnit& out = outputs_[static_cast<std::size_t>(op)];
        const std::size_t first = vcIndex(op, 0);
        std::uint64_t vm = out_vc_mask_[static_cast<std::size_t>(op)];
        bool raised = false;
        while (vm != 0) {
            const auto v = static_cast<VcId>(std::countr_zero(vm));
            vm &= vm - 1;
            const std::size_t o = first + static_cast<std::size_t>(v);
            if (out_fifos_.front(o).readyAt > now)
                continue;
            // The ejection port's NIC sink never backpressures.
            if (op == kLocalPort || out_vcs_[o].credits > 0) {
                out.muxArb.request(v);
                raised = true;
            } else if (telem_ != nullptr) {
                ++telem_->creditStarvedCycles;
            }
        }
        if (!raised)
            continue;
        const int winner = out.muxArb.grant();
        if (winner < 0)
            continue;
        const VcId v = static_cast<VcId>(winner);
        const std::size_t o = first + static_cast<std::size_t>(winner);
        OutputVc& ovc = out_vcs_[o];
        Flit flit = out_fifos_.pop(o);
        clearIfDrained(out_vc_mask_, out_port_mask_, op, v,
                       out_fifos_.empty(o));
        if (op != kLocalPort)
            --ovc.credits;
        ++out.useCount;
        out.lastUseCycle = now;
        --buffered_flits_; // the flit leaves the router for the wire
        if (telem_ != nullptr)
            ++telem_->flitsOut[static_cast<std::size_t>(op)];
        if (isTail(flit.type)) {
            ovc.busy = false;
            ovc.msg = kInvalidMsgRef;
        }
        env.flitOut(op, v, flit);
    }
}

void
Router::setPortDead(PortId p, bool dead, int credits)
{
    LAPSES_ASSERT(p > 0 && p < num_ports_ && portDead(p) != dead);
    for (VcId v = 0; v < params_.vcsPerPort; ++v) {
        const std::size_t o = vcIndex(p, v);
        OutputVc& ovc = out_vcs_[o];
        LAPSES_ASSERT_MSG(out_fifos_.empty(o) && !ovc.busy,
                          "link state change on a port holding traffic");
        ovc.credits = credits;
    }
    dead_port_mask_ ^= std::uint64_t{1} << p;
}

void
Router::collectPortMessages(PortId p, std::vector<MsgRef>& out) const
{
    for (VcId v = 0; v < params_.vcsPerPort; ++v) {
        const std::size_t k = vcIndex(p, v);
        // Flits queued on the dead link's input side: their worm is
        // cut (the rest of the message is across the dead wire).
        const InputVc& ivc = in_vcs_[k];
        for (std::size_t i = 0; i < in_fifos_.size(k); ++i)
            out.push_back(in_fifos_.at(k, i).msg);
        if (ivc.state != RouteState::Idle &&
            ivc.msg != kInvalidMsgRef) {
            out.push_back(ivc.msg);
        }
        // Flits (and worm owners) waiting to transmit into the dead
        // wire.
        const OutputVc& ovc = out_vcs_[k];
        for (std::size_t i = 0; i < out_fifos_.size(k); ++i)
            out.push_back(out_fifos_.at(k, i).msg);
        if (ovc.busy && ovc.msg != kInvalidMsgRef)
            out.push_back(ovc.msg);
    }
    // Worms still crossing the router toward the dead port.
    for (const InputVc& ivc : in_vcs_) {
        if (ivc.state == RouteState::Active && ivc.outPort == p &&
            ivc.msg != kInvalidMsgRef) {
            out.push_back(ivc.msg);
        }
    }
}

std::size_t
Router::purgeMessage(MsgRef msg,
                     const std::function<void(PortId, VcId)>& credit)
{
    std::size_t removed = 0;
    const auto of_msg = [msg](const Flit& f) { return f.msg == msg; };
    for (PortId p = 0; p < num_ports_; ++p) {
        for (VcId v = 0; v < params_.vcsPerPort; ++v) {
            const std::size_t k = vcIndex(p, v);
            InputVc& ivc = in_vcs_[k];
            const std::size_t in_removed = in_fifos_.removeIf(k, of_msg);
            for (std::size_t i = 0; i < in_removed; ++i)
                credit(p, v);
            clearIfDrained(in_vc_mask_, in_port_mask_, p, v,
                           in_fifos_.empty(k));
            if (ivc.msg == msg) {
                // Release the VC the worm owned; any output VC it had
                // allocated is released through its own msg field.
                ivc.state = RouteState::Idle;
                ivc.outPort = kInvalidPort;
                ivc.outVc = kInvalidVc;
                ivc.msg = kInvalidMsgRef;
            }
            OutputVc& ovc = out_vcs_[k];
            const std::size_t out_removed = out_fifos_.removeIf(k, of_msg);
            clearIfDrained(out_vc_mask_, out_port_mask_, p, v,
                           out_fifos_.empty(k));
            if (ovc.busy && ovc.msg == msg) {
                ovc.busy = false;
                ovc.msg = kInvalidMsgRef;
            }
            removed += in_removed + out_removed;
        }
    }
    buffered_flits_ -= removed;
    return removed;
}

void
Router::rerouteHeldHeads(std::vector<HeadSite>& unroutable,
                         std::uint64_t& rerouted)
{
    forEachOccupiedInput([&](PortId ip, VcId v) {
        InputVc& ivc = in_vcs_[vcIndex(ip, v)];
        if (ivc.state != RouteState::WaitArb)
            return;
        // The reconfiguration controller re-runs the lookup for every
        // held header (also in look-ahead mode: the route the previous
        // hop computed predates the reprogramming).
        const MessageDescriptor& desc = pool_[ivc.msg];
        const RouteCandidates fresh = table_.lookup(id_, desc.dest);
        if (fresh != ivc.route) {
            ivc.route = fresh;
            ++rerouted;
        }
        if (!hasLiveCandidate(ivc.route))
            unroutable.emplace_back(id_, ip, v);
    });
}

MsgRef
Router::heldUnroutableMsg(PortId p, VcId v) const
{
    const InputVc& ivc = in_vcs_[vcIndex(p, v)];
    if (ivc.state != RouteState::WaitArb ||
        ivc.msg == kInvalidMsgRef || hasLiveCandidate(ivc.route)) {
        return kInvalidMsgRef;
    }
    return ivc.msg;
}

StepActivity
Router::step(Cycle now, Env& env)
{
    const std::uint64_t forwarded_before = forwarded_flits_;
    if (telem_ != nullptr) {
        // Time-weighted VC occupancy, sampled at cycle entry. Only
        // ports with backlog contribute, and a quiescent router's
        // masks are all zero, so the active kernel's skipped steps
        // add exactly what the scan kernel's explicit zero adds.
        std::uint64_t pm = out_port_mask_;
        while (pm != 0) {
            const auto p = static_cast<PortId>(std::countr_zero(pm));
            pm &= pm - 1;
            telem_->vcOccupancyTime[static_cast<std::size_t>(p)] +=
                static_cast<std::uint64_t>(std::popcount(
                    out_vc_mask_[static_cast<std::size_t>(p)]));
        }
    }
    serveCrossbar(now, env);
    serveVcMux(now, env);

    StepActivity report;
    report.progressed = static_cast<std::uint32_t>(forwarded_flits_ -
                                                   forwarded_before);
    report.pendingWork = occupancy() > 0;
    return report;
}

} // namespace lapses
