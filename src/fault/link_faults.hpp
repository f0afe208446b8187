/**
 * @file
 * Link faults applied to a live network (DESIGN.md "Fault events and
 * online reconfiguration").
 *
 * LinkFaults owns a run's validated fault schedule and everything it
 * does to network state while traffic is in flight: link deaths purge
 * the messages they cut, repairs restore credits, reconfigurations
 * reprogram the full table and re-route held headers, and heads left
 * with no live candidate are dropped. Exactly one function reprograms
 * the table (reconfigure) and exactly one finishes a purge (purge).
 */

#ifndef LAPSES_FAULT_LINK_FAULTS_HPP
#define LAPSES_FAULT_LINK_FAULTS_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.hpp"
#include "network/nic.hpp"
#include "network/wire_calendar.hpp"
#include "router/router.hpp"

namespace lapses
{

class LinkFaults
{
  public:
    /** Resilience counters (all zero on a healthy run). */
    struct Counters
    {
        std::uint64_t linkDownEvents = 0;
        std::uint64_t linkUpEvents = 0;
        std::uint64_t reconfigurations = 0;
        /** Messages permanently lost (policy Drop, or unroutable). */
        std::uint64_t droppedMessages = 0;
        /** Flits physically removed from buffers and wires by purges
         *  (dropped and reinjected messages both shed flits). */
        std::uint64_t droppedFlits = 0;
        /** Messages requeued at their source (policy Reinject). */
        std::uint64_t reinjectedMessages = 0;
        /** Held headers whose candidates changed at reconfiguration. */
        std::uint64_t reroutedHeads = 0;
        /** Reinjects skipped because the client's reliability layer
         *  had already timed the purged transmission out and owns the
         *  retry (closed-loop runs only). */
        std::uint64_t suppressedReinjects = 0;
    };

    /** The network state faults act on, bound once by its owner. */
    struct Live
    {
        std::vector<Router>& routers;
        std::vector<Nic>& nics;
        MessagePool& pool;
        std::vector<WireCalendar*> calendars; //!< one per shard
        std::size_t& occupancy; //!< flits in routers and on wires
        /** Put a component on its shard's active set (idempotent). */
        std::function<void(NodeId)> activateRouter;
        std::function<void(NodeId)> activateNic;
    };

    /**
     * Merge cfg's explicit events with its seeded random ones and
     * validate the schedule against `topo`: ConfigError on an illegal
     * transition, a down event that cuts the network, or a fault or
     * reconfiguration cycle past the last cycle. `table` is
     * reprogrammed when it is a FullTable; other schemes cannot
     * express fault-aware entries (the Table 5 flexibility
     * trade-off), so their unroutable heads are dropped.
     */
    LinkFaults(const SimConfig& cfg, const Topology& topo,
               RoutingTable& table, Live live);

    /** Apply every event, then every reconfiguration, due at `now`:
     *  the top of the cycle, before any wire delivery. */
    void apply(Cycle now);

    /** The next cycle apply() has work at; kNeverCycle when none. */
    Cycle
    nextCycle() const
    {
        Cycle next = next_event_ < events_.size()
                         ? events_[next_event_].cycle
                         : kNeverCycle;
        if (next_reconfig_ < next_event_) {
            next = std::min(next, events_[next_reconfig_].cycle +
                                      cfg_.reconfigLatency);
        }
        return next;
    }

    /** True while any link is down (a step may report heads). */
    bool linksDown() const { return !failures_.empty(); }

    /** Move a step's unroutable-head reports into the purge list. */
    void addUnroutable(std::vector<HeadSite>& reports);

    /** Sort the purge list by (node, port, VC), so the order depends
     *  on no thread or sweep, and drop each head still held with no
     *  live candidate. Never reinjected: it would retry the same dead
     *  route forever. */
    void purgeUnroutable();

    const Counters& counters() const { return counters_; }

    /** Measured messages permanently dropped; the drain phase ends
     *  on delivered + dropped >= created. */
    std::uint64_t droppedMeasured() const { return dropped_measured_; }

    /** Cycle of the most recent applied event (kNeverCycle when none
     *  fired yet); anchors the latency-recovery curve. */
    Cycle lastFaultCycle() const { return last_fault_cycle_; }

    /** Links currently down. */
    const FailureSet& failures() const { return failures_; }

  private:
    /** Take one link down (purging what it cuts) or bring it up. */
    void applyEvent(const FaultEvent& event);

    /** Reprogram the table around the current failures, re-route the
     *  held headers and purge the ones left unroutable. */
    void reconfigure();

    /** Remove every flit of `msg` from routers and wires, crediting
     *  each freed slot straight to its sender, cancel the source's
     *  stream, and requeue the message there or count it dropped. */
    void purge(MsgRef msg, bool allow_reinject);

    const SimConfig& cfg_;
    const Topology& topo_;
    Live live_;
    std::vector<FaultEvent> events_; //!< the validated schedule
    std::size_t next_event_ = 0;     //!< first event not yet applied
    /** First applied event whose reconfiguration has not run (one
     *  reconfiguration serves every event of a cycle); a
     *  reconfiguration is pending while it trails next_event_. */
    std::size_t next_reconfig_ = 0;
    FailureSet failures_;
    FullTable* table_ = nullptr; //!< the routers' table if a FullTable
    std::vector<HeadSite> unroutable_; //!< heads to purge
    Counters counters_;
    std::uint64_t dropped_measured_ = 0;
    Cycle last_fault_cycle_ = kNeverCycle;
};

} // namespace lapses

#endif // LAPSES_FAULT_LINK_FAULTS_HPP
