#include "tables/economical_storage.hpp"

#include "routing/up_down.hpp"

namespace lapses
{
namespace
{

int
pow3(int n)
{
    int v = 1;
    for (int i = 0; i < n; ++i)
        v *= 3;
    return v;
}

/** Mesh mode: 3^dims sign entries; tree mode: the router's own
 *  interval plus one interval record per port. */
int
entriesFor(const Topology& topo)
{
    if (topo.mesh())
        return pow3(topo.mesh()->dims());
    return topo.numPorts() + 1;
}

} // namespace

EconomicalStorageTable::EconomicalStorageTable(const Topology& topo)
    : RoutingTable(topo), entries_per_router_(entriesFor(topo)),
      tree_mode_(topo.mesh() == nullptr)
{
    if (topo.isTorus()) {
        // Minimal torus routing needs distance, not just sign; the paper
        // defers the torus extension to the tech report [23].
        throw ConfigError("economical storage is defined for meshes");
    }
    if (tree_mode_) {
        // Force the spanning tree (and its connectivity check) now;
        // lookups re-derive entries from its per-port intervals.
        topo.spanningTree();
        return;
    }
    entries_.resize(static_cast<std::size_t>(topo.numNodes()) *
                    static_cast<std::size_t>(entries_per_router_));
}

EconomicalStorageTable::EconomicalStorageTable(
    const Topology& topo, const RoutingAlgorithm& algo)
    : EconomicalStorageTable(topo)
{
    if (tree_mode_) {
        // The per-port intervals can only express up*-down* candidate
        // sets; validate exhaustively, like the mesh sign check below.
        tree_adaptive_ = algo.isAdaptive();
        const SpanningTree& tree = topo.spanningTree();
        for (NodeId r = 0; r < topo.numNodes(); ++r) {
            for (NodeId d = 0; d < topo.numNodes(); ++d) {
                if (UpDownRouting::routeOn(topo, tree, r, d,
                                           tree_adaptive_) !=
                    algo.route(r, d)) {
                    throw ConfigError(
                        "algorithm '" + algo.name() +
                        "' is not tree-representable; economical "
                        "storage cannot hold it on this topology");
                }
            }
        }
        return;
    }
    const MeshShape& mesh = *topo.mesh();
    // Program each router's 3^n entries from a representative
    // destination one hop away along the sign vector, then validate
    // sign-representability exhaustively: every destination must map to
    // the candidates of its sign entry.
    for (NodeId r = 0; r < topo.numNodes(); ++r) {
        const Coordinates rc = mesh.nodeToCoords(r);
        for (int t = 0; t < entries_per_router_; ++t) {
            const SignVector sv =
                SignVector::fromTableIndex(t, mesh.dims());
            Coordinates rep(mesh.dims());
            bool feasible = true;
            for (int d = 0; d < mesh.dims(); ++d) {
                const int step = static_cast<int>(sv.at(d));
                const int v = rc.at(d) + step;
                if (v < 0 || v >= mesh.radix(d))
                    feasible = false;
                else
                    rep.set(d, v);
            }
            if (!feasible)
                continue; // unreachable sign at a mesh edge
            entries_[index(r, t)] =
                algo.route(r, mesh.coordsToNode(rep));
        }
    }

    for (NodeId r = 0; r < topo.numNodes(); ++r) {
        for (NodeId d = 0; d < topo.numNodes(); ++d) {
            if (lookup(r, d) != algo.route(r, d)) {
                throw ConfigError(
                    "algorithm '" + algo.name() +
                    "' is not sign-representable; economical storage "
                    "cannot hold it");
            }
        }
    }
}

RouteCandidates
EconomicalStorageTable::lookup(NodeId router, NodeId dest) const
{
    LAPSES_ASSERT(topo_.contains(router) && topo_.contains(dest));
    if (tree_mode_) {
        return UpDownRouting::routeOn(topo_, topo_.spanningTree(),
                                      router, dest, tree_adaptive_);
    }
    const MeshShape& mesh = *topo_.mesh();
    const int sign = SignVector::tableIndexOf(mesh.nodeToCoords(router),
                                              mesh.nodeToCoords(dest));
    return entries_[index(router, sign)];
}

void
EconomicalStorageTable::setEntry(NodeId router, const SignVector& sv,
                                 const RouteCandidates& rc)
{
    LAPSES_ASSERT(topo_.contains(router));
    LAPSES_ASSERT_MSG(!tree_mode_,
                      "sign entries exist only in mesh mode");
    entries_[index(router, sv.tableIndex())] = rc;
}

RouteCandidates
EconomicalStorageTable::entry(NodeId router, const SignVector& sv) const
{
    LAPSES_ASSERT(topo_.contains(router));
    LAPSES_ASSERT_MSG(!tree_mode_,
                      "sign entries exist only in mesh mode");
    return entries_[index(router, sv.tableIndex())];
}

} // namespace lapses
