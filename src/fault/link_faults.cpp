#include "fault/link_faults.hpp"

#include <string>
#include <utility>

namespace lapses
{
namespace
{

/** The last cycle anything may be scheduled at (kNeverCycle = never). */
constexpr Cycle kLastCycle = kNeverCycle - 1;

ConfigError
pastLastCycle(const std::string& sum)
{
    return ConfigError(sum + " passes the last cycle (" +
                       std::to_string(kLastCycle) + ")");
}

/** The run's schedule (see the LinkFaults constructor). */
std::vector<FaultEvent>
buildSchedule(const SimConfig& cfg, const Topology& topo)
{
    FaultSchedule faults;
    for (const FaultEvent& event : cfg.faultEvents)
        faults.add(event);
    if (cfg.faultCount > 0) {
        // Random fault i fires at faultStart + i * faultSpacing.
        const auto last = static_cast<Cycle>(cfg.faultCount - 1);
        if (cfg.faultStart > kLastCycle ||
            (last > 0 &&
             cfg.faultSpacing > (kLastCycle - cfg.faultStart) / last)) {
            throw pastLastCycle("--fault-start " +
                                std::to_string(cfg.faultStart) + " + " +
                                std::to_string(last) + " x --fault-spacing " +
                                std::to_string(cfg.faultSpacing));
        }
        faults.appendRandom(topo, cfg.faultCount,
                            cfg.faultSeed != 0 ? cfg.faultSeed
                                               : deriveFaultSeed(cfg.seed),
                            cfg.faultStart, cfg.faultSpacing);
    }
    faults.validate(topo);
    // The last event's reconfiguration is the latest one due.
    if (!faults.empty()) {
        const FaultEvent& last = faults.events().back();
        if (last.cycle > kLastCycle ||
            cfg.reconfigLatency > kLastCycle - last.cycle) {
            throw pastLastCycle("fault event " + last.str() +
                                " + --reconfig-latency " +
                                std::to_string(cfg.reconfigLatency));
        }
    }
    return faults.events();
}

} // namespace

LinkFaults::LinkFaults(const SimConfig& cfg, const Topology& topo,
                       RoutingTable& table, Live live)
    : cfg_(cfg), topo_(topo), live_(std::move(live)),
      events_(buildSchedule(cfg, topo)),
      table_(dynamic_cast<FullTable*>(&table))
{
}

void
LinkFaults::apply(Cycle now)
{
    for (; next_event_ < events_.size() &&
           events_[next_event_].cycle <= now; ++next_event_) {
        applyEvent(events_[next_event_]);
        last_fault_cycle_ = now;
        // Every event opens (or extends) a reconfiguration window.
        for (Router& r : live_.routers)
            r.setReconfigPending(true);
    }
    while (next_reconfig_ < next_event_ &&
           events_[next_reconfig_].cycle + cfg_.reconfigLatency <= now) {
        const Cycle cycle = events_[next_reconfig_].cycle;
        while (next_reconfig_ < next_event_ &&
               events_[next_reconfig_].cycle == cycle) {
            ++next_reconfig_;
        }
        reconfigure();
    }
}

void
LinkFaults::applyEvent(const FaultEvent& event)
{
    const NodeId node = event.node;
    const PortId port = event.port;
    const NodeId peer = topo_.neighbor(node, port);
    const PortId peer_port = topo_.peerPort(node, port);
    LAPSES_ASSERT(peer != kInvalidNode);
    Router& near = live_.routers[static_cast<std::size_t>(node)];
    Router& far = live_.routers[static_cast<std::size_t>(peer)];
    const auto on_link = [&](const WireEvent& ev, WireKind kind) {
        return ev.kind == kind &&
               ((ev.node == node && ev.port == port) ||
                (ev.node == peer && ev.port == peer_port));
    };
    if (event.down) {
        failures_.fail(topo_, node, port);
        // Collect every message the dying link cuts: flits in flight
        // on its two wires, flits and worm owners at its two endpoint
        // ports.
        std::vector<MsgRef> cut;
        for (const WireCalendar* calendar : live_.calendars) {
            calendar->forEach([&](const WireEvent& ev) {
                if (on_link(ev, WireKind::Flit))
                    cut.push_back(ev.flit.msg);
            });
        }
        near.collectPortMessages(port, cut);
        far.collectPortMessages(peer_port, cut);
        // Purge in deterministic message-id order, never raw MsgRef
        // order: refs follow pool allocation order, which differs
        // between kernels (and with the shard/bank count under the
        // parallel kernel), while ids are per-NIC sequence numbers.
        // Purge order is observable when two purged messages share a
        // source NIC — both requeueFront at the same queue. Equal ids
        // mean equal refs, so the id sort also makes duplicates
        // adjacent for unique().
        std::sort(cut.begin(), cut.end(), [this](MsgRef a, MsgRef b) {
            return live_.pool[a].id < live_.pool[b].id;
        });
        cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
        for (const MsgRef msg : cut)
            purge(msg, /*allow_reinject=*/true);
        // In-flight credits are lost with the link.
        for (WireCalendar* calendar : live_.calendars) {
            calendar->removeIf([&](const WireEvent& ev) {
                LAPSES_ASSERT(!on_link(ev, WireKind::Flit));
                return on_link(ev, WireKind::Credit);
            });
        }
        ++counters_.linkDownEvents;
    } else {
        failures_.repair(topo_, node, port);
        ++counters_.linkUpEvents;
    }
    // Both endpoint ports are empty now. A dead port holds no credit;
    // a repaired one gets a full credit line, which is exact because
    // nothing could enter either endpoint's buffers while it was down.
    const int credits = event.down ? 0 : cfg_.bufferDepth;
    near.setPortDead(port, event.down, credits);
    far.setPortDead(peer_port, event.down, credits);
}

void
LinkFaults::reconfigure()
{
    // 1. Reprogram the table around the surviving topology (full
    //    tables only; the schedule validator guarantees the network
    //    is still connected).
    if (table_ != nullptr)
        reprogramFaultAwareTable(*table_, topo_, failures_);

    // 2. Re-route every held header from the fresh tables and drop
    //    the ones left with no surviving candidate.
    for (Router& r : live_.routers)
        r.rerouteHeldHeads(unroutable_, counters_.reroutedHeads);
    purgeUnroutable();

    // 3. Close the window once no applied event awaits one.
    if (next_reconfig_ == next_event_) {
        for (Router& r : live_.routers)
            r.setReconfigPending(false);
    }
    ++counters_.reconfigurations;
}

void
LinkFaults::addUnroutable(std::vector<HeadSite>& reports)
{
    unroutable_.insert(unroutable_.end(), reports.begin(), reports.end());
    reports.clear();
}

void
LinkFaults::purgeUnroutable()
{
    std::sort(unroutable_.begin(), unroutable_.end());
    for (const auto& [id, p, v] : unroutable_) {
        // Re-verify: an earlier purge may have freed the VC, or a
        // duplicate report may target an already-purged head.
        const MsgRef msg = live_.routers[static_cast<std::size_t>(id)]
                               .heldUnroutableMsg(p, v);
        if (msg != kInvalidMsgRef)
            purge(msg, /*allow_reinject=*/false);
    }
    unroutable_.clear();
}

void
LinkFaults::purge(MsgRef msg, bool allow_reinject)
{
    const MessageDescriptor& desc = live_.pool[msg];
    std::size_t removed = 0;

    // Router buffers; freed input slots credit the upstream hop
    // directly (cleanup is instantaneous and bypasses the wires —
    // identical under every kernel).
    for (NodeId id = 0; id < topo_.numNodes(); ++id) {
        Router& router = live_.routers[static_cast<std::size_t>(id)];
        removed += router.purgeMessage(
            msg, [&](PortId in_port, VcId vc) {
                if (in_port == kLocalPort) {
                    live_.nics[static_cast<std::size_t>(id)].acceptCredit(
                        vc);
                    live_.activateNic(id);
                    return;
                }
                const NodeId up = topo_.neighbor(id, in_port);
                LAPSES_ASSERT(up != kInvalidNode);
                live_.routers[static_cast<std::size_t>(up)].acceptCredit(
                    topo_.peerPort(id, in_port), vc);
                live_.activateRouter(up);
            });
    }

    // Flits still on wires. A flit on a (non-ejection) wire consumed
    // the sender's credit at transmit time and would return it from
    // the receiver's buffer — restore it straight to the sender. The
    // sender's port may itself be the dying link: restore anyway, the
    // dead port's credits are zeroed after the purge.
    for (WireCalendar* calendar : live_.calendars) {
        removed += calendar->removeIf([&](const WireEvent& ev) {
            if (ev.kind == WireKind::Credit || ev.flit.msg != msg)
                return false;
            const auto id = static_cast<std::size_t>(ev.node);
            if (ev.kind == WireKind::Inject) {
                // The NIC spent a local-port credit on this flit.
                live_.nics[id].acceptCredit(ev.vc);
            } else if (ev.port != kLocalPort) {
                live_.routers[id].acceptCredit(ev.port, ev.vc);
            }
            return true;
        });
    }

    live_.occupancy -= removed;
    counters_.droppedFlits += removed;

    // Cancel the source NIC's stream (no-op when the message had
    // fully left the source).
    Nic& src_nic = live_.nics[static_cast<std::size_t>(desc.src)];
    src_nic.cancelInjection(msg);
    const bool reinject =
        allow_reinject && cfg_.faultPolicy == FaultPolicy::Reinject;
    if (reinject && !src_nic.wantsReinject(desc)) {
        // The client's reliability layer already timed this
        // transmission out (or resolved the request); it owns the
        // retry, so putting the purged copy back on the wire would
        // race it. Not a drop either — the request is still live in
        // the client's outstanding table.
        ++counters_.suppressedReinjects;
    } else if (reinject) {
        src_nic.requeueFront(desc.dest, desc.createdAt, desc.measured,
                             desc.role, desc.reqSeq, desc.attempt);
        ++counters_.reinjectedMessages;
    } else {
        ++counters_.droppedMessages;
        if (desc.measured)
            ++dropped_measured_;
    }
    live_.activateNic(desc.src);
    live_.pool.release(msg);
}

} // namespace lapses
