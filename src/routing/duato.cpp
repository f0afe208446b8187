#include "routing/duato.hpp"

namespace lapses
{

DuatoAdaptiveRouting::DuatoAdaptiveRouting(const Topology& topo)
    : RoutingAlgorithm(topo),
      mesh_(requireMeshShape(topo, "duato routing"))
{
    if (topo.isTorus()) {
        // Wrap-around escape would need datelines; out of scope for the
        // paper's mesh study.
        throw ConfigError(
            "DuatoAdaptiveRouting requires a mesh (no wrap links)");
    }
}

RouteCandidates
DuatoAdaptiveRouting::route(NodeId current, NodeId dest) const
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
    // XY escape: candidates are in dimension order, so the first one
    // resolves the lowest unresolved dimension.
    rc.setEscapePort(rc.at(0));
    return rc;
}

} // namespace lapses
