#include "routing/dimension_order.hpp"

#include <numeric>

namespace lapses
{

DimensionOrderRouting::DimensionOrderRouting(const Topology& topo,
                                             std::vector<int> order)
    : RoutingAlgorithm(topo),
      mesh_(requireMeshShape(topo, "dimension-order routing")),
      order_(std::move(order))
{
    if (static_cast<int>(order_.size()) != mesh_.dims())
        throw ConfigError("dimension order must list every dimension");
    std::vector<bool> seen(order_.size(), false);
    for (int d : order_) {
        if (d < 0 || d >= mesh_.dims() || seen[static_cast<std::size_t>(d)])
            throw ConfigError("dimension order must be a permutation");
        seen[static_cast<std::size_t>(d)] = true;
    }
}

DimensionOrderRouting
DimensionOrderRouting::xy(const Topology& topo)
{
    const MeshShape& mesh =
        requireMeshShape(topo, "dimension-order routing");
    std::vector<int> order(static_cast<std::size_t>(mesh.dims()));
    std::iota(order.begin(), order.end(), 0);
    return DimensionOrderRouting(topo, std::move(order));
}

DimensionOrderRouting
DimensionOrderRouting::yx(const Topology& topo)
{
    const MeshShape& mesh =
        requireMeshShape(topo, "dimension-order routing");
    std::vector<int> order(static_cast<std::size_t>(mesh.dims()));
    std::iota(order.rbegin(), order.rend(), 0);
    return DimensionOrderRouting(topo, std::move(order));
}

std::string
DimensionOrderRouting::name() const
{
    static const char* axis = "xyzw";
    std::string n;
    for (int d : order_)
        n += axis[d % 4];
    return n;
}

PortId
DimensionOrderRouting::nextPort(NodeId current, NodeId dest) const
{
    const Coordinates cc = mesh_.nodeToCoords(current);
    const Coordinates cd = mesh_.nodeToCoords(dest);
    for (int d : order_) {
        const PortId p = mesh_.productivePortInDim(cc, cd, d);
        if (p != kInvalidPort)
            return p;
    }
    return kLocalPort;
}

RouteCandidates
DimensionOrderRouting::route(NodeId current, NodeId dest) const
{
    RouteCandidates rc;
    rc.add(nextPort(current, dest));
    return rc;
}

} // namespace lapses
