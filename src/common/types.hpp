/**
 * @file
 * Fundamental scalar types shared by every module of the LAPSES library.
 *
 * The simulator is cycle-driven; every timestamp is a Cycle. Nodes, ports
 * and virtual channels are small dense integer ids so that hot-path state
 * can live in flat arrays indexed by them.
 */

#ifndef LAPSES_COMMON_TYPES_HPP
#define LAPSES_COMMON_TYPES_HPP

#include <cstdint>
#include <limits>

namespace lapses
{

/** Simulation time in network cycles (Table 2: network cycle time = 1). */
using Cycle = std::uint64_t;

/** Dense node identifier, 0 .. N-1 for an N-node network. */
using NodeId = std::int32_t;

/** Router port index; port 0 is always the local/ejection port. */
using PortId = std::int8_t;

/** Virtual-channel index within a physical channel. */
using VcId = std::int8_t;

/** Unique message identifier assigned at injection. */
using MessageId = std::uint64_t;

/** Handle of an in-flight message's descriptor in the MessagePool. */
using MsgRef = std::uint32_t;

/** Sentinel for "no message descriptor". */
inline constexpr MsgRef kInvalidMsgRef =
    std::numeric_limits<MsgRef>::max();

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = -1;

/** Sentinel for "no port". */
inline constexpr PortId kInvalidPort = -1;

/** Sentinel for "no virtual channel". */
inline constexpr VcId kInvalidVc = -1;

/** Sentinel cycle value meaning "never / not yet". */
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/** The local (processor/NIC) port of every router. Paper Section 2.2. */
inline constexpr PortId kLocalPort = 0;

/**
 * Simulation-kernel selection (see DESIGN.md "Activity-driven kernel"
 * and "Parallel kernel").
 *
 * The activity-driven kernel steps only components that can make
 * progress and delivers wire traffic from a calendar queue; the scan
 * kernel is the original step-everything path, kept behind the same
 * interface for differential testing; the parallel kernel shards the
 * topology into contiguous node ranges and steps the shards on worker
 * threads inside each cycle, exchanging wire events at cycle barriers.
 * All three produce byte-identical statistics. Auto resolves through
 * the LAPSES_KERNEL environment variable ("scan", "active" or
 * "parallel"), defaulting to Active.
 */
enum class KernelKind : std::uint8_t
{
    Auto,
    Active,
    Scan,
    Parallel,
};

/** Short identifier ("active", "scan", "parallel", "auto"). */
constexpr const char*
kernelKindName(KernelKind k)
{
    switch (k) {
    case KernelKind::Active:
        return "active";
    case KernelKind::Scan:
        return "scan";
    case KernelKind::Parallel:
        return "parallel";
    case KernelKind::Auto:
        break;
    }
    return "auto";
}

/**
 * What one component did during a step() — the network's activity-set
 * bookkeeping input. A component whose report shows no pending work is
 * dropped from the active set until an external event (flit arrival,
 * credit arrival, injection) or its own nextWake cycle re-activates it.
 */
struct StepActivity
{
    /** Flits this step pushed toward their destination (crossbar
     *  forwards for routers, link injections for NICs). The network
     *  accumulates these into its O(1) progress counter. */
    std::uint32_t progressed = 0;

    /** The component still holds work (buffered flits / queued
     *  messages) and must be stepped again next cycle. */
    bool pendingWork = false;

    /** Self-scheduled wake-up cycle (e.g. the next injection-process
     *  arrival); kNeverCycle when none. Only consulted when pendingWork
     *  is false. */
    Cycle nextWake = kNeverCycle;
};

} // namespace lapses

#endif // LAPSES_COMMON_TYPES_HPP
