/**
 * @file
 * Deterministic mid-run link-fault schedules.
 *
 * The paper motivates adaptive routing partly by fault tolerance ("the
 * ability to use alternate paths improves fault-tolerance properties",
 * Section 1). PR 5 makes that dynamic: a FaultSchedule is an ordered
 * list of (cycle, node, port) link down/up events LinkFaults applies
 * while traffic is in flight — in-flight flits on a dying wire are
 * dropped or reinjected at their source, credits on the dead channel
 * are quarantined, and full tables are reprogrammed around the failure
 * after a configurable reconfiguration-latency window (see DESIGN.md
 * "Fault events and online reconfiguration").
 *
 * Schedules are pure data, fixed before the run starts:
 *
 *  - explicit events come from the CLI (`--fail-link n:p@cycle`,
 *    `--repair-link n:p@cycle`) or from code;
 *  - random schedules derive every fault site from a seed (by default
 *    the run seed), so campaign shards replaying run i regenerate the
 *    byte-identical schedule and shard files stay exact slices of the
 *    unsharded output.
 *
 * validate() replays the schedule against the topology and rejects —
 * before any live network state is touched — events on edge/local
 * ports, double-downs, repairs of healthy links, and any down event
 * whose cumulative failure set cuts the network (reported with both
 * sides of the cut via checkConnectivity).
 */

#ifndef LAPSES_FAULT_FAULT_SCHEDULE_HPP
#define LAPSES_FAULT_FAULT_SCHEDULE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "tables/fault_aware.hpp"

namespace lapses
{

/** What happens to the traffic a dying link cuts. */
enum class FaultPolicy : std::uint8_t
{
    /** Affected messages are purged and counted dropped. */
    Drop,

    /** Affected messages are purged and requeued at the front of the
     *  source NIC's queue (retransmission-by-reinjection). Messages
     *  that become unroutable (every surviving candidate port dead)
     *  are always dropped, so runs terminate. */
    Reinject,
};

/** Names for flags, grid axes and records (common/enum_names.hpp). */
constexpr auto
enumNames(FaultPolicy)
{
    return std::to_array<EnumName<FaultPolicy>>({
        {FaultPolicy::Drop, "drop"},
        {FaultPolicy::Reinject, "reinject"},
    });
}

/** One link state change at a fixed cycle. */
struct FaultEvent
{
    Cycle cycle = 0;
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;
    bool down = true; //!< false = repair (link back up)

    /** Schedule order: by cycle, then node, then port; downs before
     *  ups so a same-cycle down+up pair reads as a glitch. */
    friend bool
    operator<(const FaultEvent& a, const FaultEvent& b)
    {
        if (a.cycle != b.cycle)
            return a.cycle < b.cycle;
        if (a.node != b.node)
            return a.node < b.node;
        if (a.port != b.port)
            return a.port < b.port;
        return a.down && !b.down;
    }

    friend bool
    operator==(const FaultEvent& a, const FaultEvent& b)
    {
        return a.cycle == b.cycle && a.node == b.node &&
               a.port == b.port && a.down == b.down;
    }

    /** "3:1@2000" (down) / "+3:1@2500" (up). */
    std::string str() const;
};

/**
 * Parse the CLI form "node:port@cycle"; `down` false parses a
 * --repair-link value. Throws ConfigError on malformed input (range
 * checks against the topology happen in validate()).
 */
FaultEvent parseFaultEvent(const std::string& spec, bool down = true);

/** A deterministic, validated sequence of link-fault events. */
class FaultSchedule
{
  public:
    /** Append one event (kept sorted lazily; validate() sorts). */
    void add(const FaultEvent& event) { events_.push_back(event); }

    void
    addDown(Cycle cycle, NodeId node, PortId port)
    {
        add({cycle, node, port, true});
    }

    void
    addUp(Cycle cycle, NodeId node, PortId port)
    {
        add({cycle, node, port, false});
    }

    /**
     * Append `count` random link-down events, one every `spacing`
     * cycles starting at `start`. Sites are drawn from `seed` alone
     * (rejection-sampling edge ports, already-failed links, and any
     * site that would cut the network), so the schedule is a pure
     * function of (topology, count, seed, start, spacing) — identical
     * on every campaign shard.
     */
    void appendRandom(const Topology& topo, int count,
                      std::uint64_t seed, Cycle start, Cycle spacing);

    /**
     * Sort events into schedule order and replay them against the
     * topology, rejecting invalid transitions and any down event that
     * cuts the network (ConfigError carries the full cut report).
     * Must be called (and succeed) before the schedule is applied.
     */
    void validate(const Topology& topo);

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }

    /** Events in schedule order (call validate() first). */
    const std::vector<FaultEvent>& events() const { return events_; }

  private:
    std::vector<FaultEvent> events_;
};

/** Decorrelate the fault-site stream from the run's traffic streams
 *  when SimConfig::faultSeed is 0 (derive-from-run-seed). */
std::uint64_t deriveFaultSeed(std::uint64_t run_seed);

} // namespace lapses

#endif // LAPSES_FAULT_FAULT_SCHEDULE_HPP
