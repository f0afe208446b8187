#include "routing/torus.hpp"

namespace lapses
{

TorusAdaptiveRouting::TorusAdaptiveRouting(const Topology& topo)
    : RoutingAlgorithm(topo),
      mesh_(requireMeshShape(topo, "torus-adaptive routing"))
{
    if (!topo.isTorus())
        throw ConfigError(
            "TorusAdaptiveRouting requires wrap links (a torus)");
}

namespace
{

/** True when leaving coordinate cur through productive port p toward
 *  dst still crosses the wrap edge between radix-1 and 0. */
bool
wrapsAhead(PortId p, int cur, int dst)
{
    // Travelling +d wraps through radix-1 -> 0 iff the destination
    // coordinate is numerically behind us; -d wraps through 0 ->
    // radix-1 iff it is ahead.
    return MeshShape::portDir(p) == Direction::Plus ? dst < cur
                                                       : dst > cur;
}

} // namespace

bool
TorusAdaptiveRouting::crossesDateline(NodeId current, NodeId dest,
                                      int d) const
{
    const Coordinates cc = mesh_.nodeToCoords(current);
    const Coordinates cd = mesh_.nodeToCoords(dest);
    const PortId p = mesh_.productivePortInDim(cc, cd, d);
    if (p == kInvalidPort)
        return false; // dimension resolved
    return wrapsAhead(p, cc.at(d), cd.at(d));
}

RouteCandidates
TorusAdaptiveRouting::route(NodeId current, NodeId dest) const
{
    if (current == dest)
        return ejectionEntry();

    const Coordinates cc = mesh_.nodeToCoords(current);
    const Coordinates cd = mesh_.nodeToCoords(dest);
    RouteCandidates rc;
    for (int d = 0; d < mesh_.dims(); ++d) {
        const PortId p = mesh_.productivePortInDim(cc, cd, d);
        if (p != kInvalidPort)
            rc.add(p);
    }
    // Dimension-order escape: candidates are in dimension order, so the
    // first one resolves the lowest unresolved dimension.
    const PortId escape = rc.at(0);
    const int d = MeshShape::portDim(escape);
    rc.setEscapePort(escape);
    rc.setEscapeClass(wrapsAhead(escape, cc.at(d), cd.at(d)) ? 0 : 1);
    return rc;
}

} // namespace lapses
