/**
 * @file
 * Port-graph topology core (DESIGN.md "Port-graph topology contract").
 *
 * A Topology is a concrete, immutable-after-construction port graph:
 * N nodes, a uniform per-node port count P, and a bidirectional link
 * map stored in flat N*P adjacency arrays (no per-node maps, so 1e5
 * node fabrics stay memory-lean). Port 0 is always the local/ejection
 * port; ports without a link read as kInvalidNode, exactly like the
 * historic mesh-edge convention.
 *
 * Generators (mesh/torus, fat-tree, dragonfly, file loader) build the
 * graph through connect() and attach metadata:
 *
 *   - an optional MeshShape capability, the analytic k-ary n-cube
 *     math (coordinates, per-dimension productive ports, torus
 *     tie-breaks). Mesh-only routing algorithms and tables require it;
 *     generic consumers ignore it. Keeping the analytic path is what
 *     makes the mesh generator byte-identical to the historic
 *     MeshTopology class, including the even-radix torus Plus tie-break
 *     that a BFS next-hop set could not reproduce.
 *   - the endpoint set: nodes that carry a NIC/workload (all nodes by
 *     default; a fat-tree marks only its hosts). Traffic patterns and
 *     load normalization work in endpoint-index space.
 *   - bisectionChannels, the per-topology load-normalization constant.
 *
 * Irregular-graph routing uses the SpanningTree capability: a BFS tree
 * from node 0 with DFS pre-order subtree intervals, the basis of
 * deadlock-free up*-down* routing and of the economical tree-interval
 * tables. It is built lazily on first use; that first use must happen
 * during single-threaded setup (algorithm/table construction does so).
 */

#ifndef LAPSES_TOPOLOGY_TOPOLOGY_HPP
#define LAPSES_TOPOLOGY_TOPOLOGY_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "topology/coordinates.hpp"

namespace lapses
{

/** Direction along one mesh dimension. */
enum class Direction : std::int8_t { Plus, Minus };

/** One end of a link: a router and one of its ports. */
struct RouterPortPair
{
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;
};

/**
 * Analytic k-ary n-mesh / torus shape: the coordinate math of the
 * historic MeshTopology class, kept as an optional capability of the
 * port graph.
 *
 * The constructor tabulates every node's coordinates once (N x 12 B),
 * so nodeToCoords() is a load and nothing on a routing or table-lookup
 * path divides.
 *
 * Port convention (paper Section 2.2): port 0 local, port 1 + 2d the
 * +direction along dimension d, port 2 + 2d the -direction.
 */
class MeshShape
{
  public:
    /** Largest radix per dimension: Coordinates hold 16-bit positions. */
    static constexpr int kMaxRadix = 32767;

    /** @param radices nodes per dimension (every radix in
     *  [2, kMaxRadix]; ConfigError otherwise);
     *  @param wrap true for a torus. */
    explicit MeshShape(std::vector<int> radices, bool wrap = false);

    int dims() const { return static_cast<int>(radices_.size()); }
    int radix(int d) const { return radices_[static_cast<std::size_t>(d)]; }
    bool isTorus() const { return wrap_; }

    /** Total node count (product of radices). */
    NodeId numNodes() const { return num_nodes_; }

    /** Router ports including the local port: 1 + 2*dims. */
    int numPorts() const { return 1 + 2 * dims(); }

    /** Map a node id to its coordinates (a table load). */
    Coordinates
    nodeToCoords(NodeId node) const
    {
        LAPSES_ASSERT(contains(node));
        return coords_[static_cast<std::size_t>(node)];
    }

    /** Map coordinates to the node id. */
    NodeId coordsToNode(const Coordinates& c) const;

    /** True if node is a valid id. */
    bool
    contains(NodeId node) const
    {
        return node >= 0 && node < num_nodes_;
    }

    /** The port leaving along dimension d in direction dir. */
    static PortId
    port(int d, Direction dir)
    {
        LAPSES_ASSERT(d >= 0 && d < kMaxDims);
        return static_cast<PortId>(1 + 2 * d +
                                   (dir == Direction::Minus ? 1 : 0));
    }

    /** Dimension a (non-local) port travels along. */
    static int portDim(PortId p);

    /** Direction a (non-local) port travels in. */
    static Direction portDir(PortId p);

    /** The opposite-facing port (what the neighbor receives on). */
    static PortId oppositePort(PortId p);

    /** Human-readable port name: "L", "+X", "-Y", "+Z", ... */
    static std::string portName(PortId p);

    /** Neighbor through port p, kInvalidNode past a mesh edge. */
    NodeId neighbor(NodeId node, PortId p) const;

    /** Minimal hop distance between two nodes. */
    int distance(NodeId a, NodeId b) const;

    /**
     * Ports that move from 'from' strictly closer to 'to' (minimal
     * productive directions). Empty when from == to. On a torus the
     * shorter way around each dimension is chosen (ties broken toward
     * Plus).
     */
    std::vector<PortId> productivePorts(NodeId from, NodeId to) const;

    /**
     * The single productive port in dimension d from coordinates
     * 'from' toward 'to', or kInvalidPort when that dimension is
     * already resolved. On a torus it goes the shorter way around,
     * ties toward Plus. Every mesh routing function goes through this
     * one rule; callers read each endpoint's coordinates once.
     */
    PortId
    productivePortInDim(const Coordinates& from, const Coordinates& to,
                        int d) const
    {
        const int delta = to.at(d) - from.at(d);
        if (delta == 0)
            return kInvalidPort;
        if (!wrap_)
            return port(d, delta > 0 ? Direction::Plus : Direction::Minus);
        const int fwd = delta > 0 ? delta : delta + radix(d); // hops Plus
        const int bwd = radix(d) - fwd;                       // hops Minus
        return port(d, fwd <= bwd ? Direction::Plus : Direction::Minus);
    }

    /**
     * Unidirectional channels crossing the network bisection, used to
     * normalize offered load (Section 2.2; Fulgham & Snyder
     * convention). For a k x k mesh this is 2k.
     */
    int bisectionChannels() const;

  private:
    std::vector<int> radices_;
    std::vector<int> strides_;
    bool wrap_;
    NodeId num_nodes_;
    std::vector<Coordinates> coords_; //!< per node, built once
};

/**
 * BFS spanning tree from node 0 (neighbors visited in port order) plus
 * DFS pre-order subtree intervals. The (BFS discovery order) total
 * order orients every link: a link heads "up" when its far end was
 * discovered earlier. Up*-down* routing and the economical
 * tree-interval tables are defined over it.
 */
struct SpanningTree
{
    std::vector<NodeId> parentNode; //!< kInvalidNode for the root
    std::vector<PortId> parentPort; //!< port toward the parent
    std::vector<PortId> parentDownPort; //!< the parent's port back down
    std::vector<std::int32_t> order; //!< BFS discovery index (root 0)
    std::vector<std::int32_t> dfsIn; //!< pre-order label
    std::vector<std::int32_t> dfsOut; //!< exclusive subtree end

    /** True when node lies in root's subtree (inclusive). */
    bool
    inSubtree(NodeId root, NodeId node) const
    {
        const auto r = static_cast<std::size_t>(root);
        const auto n = static_cast<std::size_t>(node);
        return dfsIn[n] >= dfsIn[r] && dfsIn[n] < dfsOut[r];
    }

    /** True when the link from 'node' to 'peer' heads up (toward the
     *  root) under the BFS-order orientation. */
    bool
    isUpLink(NodeId node, NodeId peer) const
    {
        return order[static_cast<std::size_t>(peer)] <
               order[static_cast<std::size_t>(node)];
    }
};

/** Concrete port graph; see the file comment for the contract. */
class Topology
{
  public:
    /** An unlinked graph of num_nodes nodes with num_ports ports each
     *  (port 0 local). Generators wire it via connect(). */
    Topology(NodeId num_nodes, int num_ports);

    Topology(Topology&&) = default;
    Topology& operator=(Topology&&) = default;

    /** Wire a bidirectional link between two (node, port) ends.
     *  Throws ConfigError on out-of-range ends, local or already
     *  connected ports, or a self-link. */
    void connect(RouterPortPair a, RouterPortPair b);

    NodeId numNodes() const { return num_nodes_; }
    int numPorts() const { return num_ports_; }

    bool
    contains(NodeId node) const
    {
        return node >= 0 && node < num_nodes_;
    }

    /** Neighbor through port p: the node itself for kLocalPort,
     *  kInvalidNode for an unconnected port. */
    NodeId
    neighbor(NodeId node, PortId p) const
    {
        if (p == kLocalPort)
            return node;
        return peer_node_[linkIndex(node, p)];
    }

    /** True when node has a link through port p. */
    bool
    hasNeighbor(NodeId node, PortId p) const
    {
        return neighbor(node, p) != kInvalidNode;
    }

    /** The far-end port of node's link through p (what the neighbor
     *  receives on); kInvalidPort when unconnected. */
    PortId
    peerPort(NodeId node, PortId p) const
    {
        if (p == kLocalPort)
            return kLocalPort;
        return peer_port_[linkIndex(node, p)];
    }

    /** The analytic mesh capability, or nullptr for irregular graphs. */
    const MeshShape* mesh() const { return mesh_.get(); }

    /** True when the mesh capability is a torus. */
    bool isTorus() const { return mesh_ && mesh_->isTorus(); }

    /** Minimal hop distance (analytic on meshes, BFS otherwise). */
    int distance(NodeId a, NodeId b) const;

    /**
     * Ports that move from 'from' strictly closer to 'to': analytic
     * productive directions on meshes, min-hop next-hop sets from a
     * BFS distance field otherwise. Setup-time only on irregular
     * graphs (the BFS field is cached per destination, unsynchronized).
     */
    std::vector<PortId> productivePorts(NodeId from, NodeId to) const;

    /** BFS hop distances from src over the live links; unreachable
     *  nodes read -1. */
    std::vector<std::int32_t> distancesFrom(NodeId src) const;

    /** The up*-down* spanning tree, built on first use (which must
     *  happen during single-threaded setup). Throws ConfigError when
     *  the graph is not connected. */
    const SpanningTree& spanningTree() const;

    // --- Endpoints -------------------------------------------------
    /** Nodes carrying a NIC/workload; default: every node. */
    NodeId
    numEndpoints() const
    {
        return endpoints_.empty() ? num_nodes_
                                  : static_cast<NodeId>(endpoints_.size());
    }

    /** The i-th endpoint's node id. */
    NodeId
    endpoint(NodeId i) const
    {
        return endpoints_.empty() ? i
                                  : endpoints_[static_cast<std::size_t>(i)];
    }

    bool
    isEndpoint(NodeId node) const
    {
        return endpointIndex(node) != kInvalidNode;
    }

    /** Index of node in the endpoint set, kInvalidNode when absent. */
    NodeId
    endpointIndex(NodeId node) const
    {
        return endpoint_index_.empty()
                   ? node
                   : endpoint_index_[static_cast<std::size_t>(node)];
    }

    // --- Load normalization ----------------------------------------
    /** Unidirectional channels crossing the topology's bisection. */
    int bisectionChannels() const { return bisection_channels_; }

    /** Injection rate (flits/endpoint/cycle) that saturates the
     *  bisection under endpoint-uniform traffic:
     *  2 * bisection / numEndpoints. Normalized load 1.0 corresponds
     *  to this rate for every traffic pattern, as in the paper. */
    double
    bisectionSaturationFlitRate() const
    {
        return 2.0 * bisection_channels_ /
               static_cast<double>(numEndpoints());
    }

    /** Human-readable port name: mesh direction labels when the mesh
     *  capability is present, "L"/"p<N>" otherwise. */
    std::string portName(PortId p) const;

    // --- Generator hooks -------------------------------------------
    void setMeshShape(MeshShape shape);
    /** Restrict the endpoint set (ascending, unique node ids). */
    void setEndpoints(std::vector<NodeId> endpoints);
    void setBisectionChannels(int channels);

    /** Unidirectional channels crossing the median cut {id < N/2},
     *  the default normalization for file-defined graphs. */
    int medianCutChannels() const;

  private:
    std::size_t
    linkIndex(NodeId node, PortId p) const
    {
        LAPSES_ASSERT(contains(node));
        LAPSES_ASSERT(p > kLocalPort && p < num_ports_);
        return static_cast<std::size_t>(node) *
                   static_cast<std::size_t>(num_ports_) +
               static_cast<std::size_t>(p);
    }

    NodeId num_nodes_;
    int num_ports_;
    std::vector<NodeId> peer_node_; //!< N*P flat adjacency
    std::vector<PortId> peer_port_; //!< far-end ports, same layout
    std::vector<NodeId> endpoints_; //!< empty = all nodes
    std::vector<NodeId> endpoint_index_; //!< empty = identity
    int bisection_channels_ = 0;
    std::unique_ptr<MeshShape> mesh_;
    mutable std::unique_ptr<SpanningTree> tree_;
    /** Single-entry cache of a per-destination BFS distance field for
     *  irregular productivePorts (setup-time use only). */
    mutable NodeId dist_cache_dest_ = kInvalidNode;
    mutable std::vector<std::int32_t> dist_cache_;
};

} // namespace lapses

#endif // LAPSES_TOPOLOGY_TOPOLOGY_HPP
