/**
 * @file
 * Fault-aware full-table programming.
 *
 * The paper motivates adaptive routing partly by fault tolerance ("the
 * ability to use alternate paths improves fault-tolerance properties",
 * Section 1) and notes that full-table routing's per-destination
 * flexibility — "rarely useful" for regular algorithms — is exactly
 * what reconfiguration needs. This module reprograms a full table
 * around a set of failed links: every entry holds all next hops on
 * shortest surviving paths.
 *
 * Economical storage cannot express such tables (candidates stop being
 * a function of the coordinate sign vector), which is the flexibility
 * trade-off of Table 5's topology row made concrete.
 */

#ifndef LAPSES_TABLES_FAULT_AWARE_HPP
#define LAPSES_TABLES_FAULT_AWARE_HPP

#include <utility>
#include <vector>

#include "tables/full_table.hpp"

namespace lapses
{

/** A failed bidirectional link, identified by one endpoint + port. */
struct LinkFailure
{
    NodeId node;
    PortId port;
};

/** Set of failed links with symmetric (both-direction) semantics. */
class FailureSet
{
  public:
    /** Mark the bidirectional link at (node, port) failed. Throws
     *  ConfigError if the port faces the mesh edge. */
    void fail(const Topology& topo, NodeId node, PortId port);

    /** Un-fail the bidirectional link at (node, port) (a repaired
     *  link coming back up). Throws ConfigError when the link is not
     *  currently failed. */
    void repair(const Topology& topo, NodeId node, PortId port);

    /** True when the link out of node through port is failed. */
    bool isFailed(NodeId node, PortId port) const;

    std::size_t count() const { return failed_.size() / 2; }
    bool empty() const { return failed_.empty(); }

  private:
    // Stored once per direction for O(log n) lookup.
    std::vector<std::pair<NodeId, PortId>> failed_;
};

/**
 * Result of a whole-network connectivity check over the surviving
 * topology. When the failure set cuts the network, the two sides of
 * the cut are reported in full so a bad schedule can be rejected with
 * one actionable message instead of the first (node, dest) pair a
 * per-destination BFS happens to trip over.
 */
struct ConnectivityReport
{
    bool connected = true;

    /** Nodes reachable from node 0 over surviving links. */
    std::vector<NodeId> reachable;

    /** Nodes cut off from node 0 (empty when connected). */
    std::vector<NodeId> unreachable;

    /** Unreachable node pairs implied by the cut:
     *  |reachable| * |unreachable| (each pair in both directions). */
    std::size_t unreachablePairs() const
    {
        return reachable.size() * unreachable.size();
    }

    /** One-line description of the cut, e.g. for ConfigError. */
    std::string describe() const;
};

/**
 * BFS the surviving topology from node 0 and report both sides of any
 * cut. Used upfront by programFaultAwareTable and by the dynamic
 * fault path (FaultSchedule::validate) to reject a disconnecting
 * failure set before any live network state is touched.
 */
ConnectivityReport checkConnectivity(const Topology& topo,
                                     const FailureSet& failures);

/**
 * Program a full table whose entries hold every next hop lying on a
 * shortest path in the surviving topology (BFS per destination).
 * Entries keep no escape designation and no turn restriction, so
 * nothing keeps routing on them deadlock-free, and no guard exists
 * yet (DESIGN.md "Reconfiguration").
 *
 * @throws ConfigError (with the full cut report) if the failure set
 *         partitions the network.
 */
FullTable programFaultAwareTable(const Topology& topo,
                                 const FailureSet& failures);

/**
 * Reprogram an existing full table in place around `failures` — the
 * online-reconfiguration path (the offline programFaultAwareTable is
 * this plus construction). Same entry semantics and the same upfront
 * connectivity check as programFaultAwareTable. After the first
 * online reconfiguration a Duato-protocol run continues with every
 * VC adaptive on the re-routed paths. No guard catches the deadlock
 * that can follow: one fault can wedge a loaded mesh under every
 * routing algorithm tried, and the deadlock watchdog does not fire
 * (DESIGN.md "Reconfiguration").
 */
void reprogramFaultAwareTable(FullTable& table, const Topology& topo,
                              const FailureSet& failures);

/** Hop count of the shortest surviving path between two nodes, or -1
 *  when disconnected. */
int survivingDistance(const Topology& topo,
                      const FailureSet& failures, NodeId from,
                      NodeId to);

} // namespace lapses

#endif // LAPSES_TABLES_FAULT_AWARE_HPP
