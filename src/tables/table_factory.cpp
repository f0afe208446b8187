#include "tables/table_factory.hpp"

#include "tables/economical_storage.hpp"
#include "tables/full_table.hpp"
#include "tables/interval_table.hpp"
#include "tables/meta_table.hpp"

namespace lapses
{
namespace
{

bool
edgeDividesAll(const MeshShape& mesh, int edge)
{
    for (int d = 0; d < mesh.dims(); ++d) {
        if (mesh.radix(d) % edge != 0)
            return false;
    }
    return true;
}

int
blockEdgeFor(const MeshShape& mesh)
{
    // The paper clusters a 16x16 mesh into 4x4 blocks; generalize to
    // radix/4 when divisible, else the largest proper divisor.
    int base = mesh.radix(0);
    for (int d = 1; d < mesh.dims(); ++d)
        base = std::min(base, mesh.radix(d));
    if (base % 4 == 0 && edgeDividesAll(mesh, base / 4))
        return base / 4;
    for (int e = base / 2; e >= 2; --e) {
        if (edgeDividesAll(mesh, e))
            return e;
    }
    return 1;
}

/** Subtree-cluster target for the tree maps: around sqrt(N) balances
 *  the local and cluster tables; the "maximal" variant doubles it for
 *  wider intra-cluster adaptivity regions. */
int
treeTargetFor(const Topology& topo, bool maximal)
{
    int target = 1;
    while ((target + 1) * (target + 1) <=
           static_cast<long long>(topo.numNodes()))
        ++target;
    return maximal ? 2 * target : target;
}

} // namespace

RoutingTablePtr
makeRoutingTable(TableKind kind, const Topology& topo,
                 const RoutingAlgorithm& algo)
{
    switch (kind) {
      case TableKind::Full:
        return std::make_unique<FullTable>(topo, algo);
      case TableKind::MetaRowMinimal:
        // Irregular graphs have no rows/blocks; both meta kinds fall
        // back to subtree clusters, differing in target size.
        if (topo.mesh() == nullptr) {
            return std::make_unique<MetaTable>(
                topo, algo,
                ClusterMap::treeMap(topo, treeTargetFor(topo, false)));
        }
        return std::make_unique<MetaTable>(topo, algo,
                                           ClusterMap::rowMap(topo));
      case TableKind::MetaBlockMaximal:
        if (topo.mesh() == nullptr) {
            return std::make_unique<MetaTable>(
                topo, algo,
                ClusterMap::treeMap(topo, treeTargetFor(topo, true)));
        }
        return std::make_unique<MetaTable>(
            topo, algo,
            ClusterMap::blockMap(topo, blockEdgeFor(*topo.mesh())));
      case TableKind::EconomicalStorage:
        return std::make_unique<EconomicalStorageTable>(topo, algo);
      case TableKind::Interval:
        return std::make_unique<IntervalTable>(topo, algo);
    }
    throw ConfigError("unknown table kind");
}

} // namespace lapses
