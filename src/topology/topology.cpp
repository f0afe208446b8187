#include "topology/topology.hpp"

#include <algorithm>
#include <deque>

#include "common/assert.hpp"

namespace lapses
{

// --- MeshShape -----------------------------------------------------

MeshShape::MeshShape(std::vector<int> radices, bool wrap)
    : radices_(std::move(radices)), wrap_(wrap)
{
    if (radices_.empty() ||
        static_cast<int>(radices_.size()) > kMaxDims) {
        throw ConfigError("mesh must have between 1 and " +
                          std::to_string(kMaxDims) + " dimensions");
    }
    long total = 1;
    strides_.resize(radices_.size());
    for (std::size_t d = 0; d < radices_.size(); ++d) {
        if (radices_[d] < 2)
            throw ConfigError("mesh radix must be >= 2 in every dimension");
        if (radices_[d] > kMaxRadix) {
            throw ConfigError("mesh radix " + std::to_string(radices_[d]) +
                              " exceeds the limit of " +
                              std::to_string(kMaxRadix) +
                              " (16-bit coordinates)");
        }
        strides_[d] = static_cast<int>(total);
        total *= radices_[d];
        if (total > (1L << 30))
            throw ConfigError("mesh too large");
    }
    num_nodes_ = static_cast<NodeId>(total);

    // Node ids are row-major with dimension 0 fastest: count through
    // the coordinates like an odometer.
    coords_.reserve(static_cast<std::size_t>(num_nodes_));
    Coordinates c(dims());
    for (NodeId n = 0; n < num_nodes_; ++n) {
        coords_.push_back(c);
        for (int d = 0; d < dims(); ++d) {
            if (c.at(d) + 1 < radix(d)) {
                c.set(d, c.at(d) + 1);
                break;
            }
            c.set(d, 0);
        }
    }
}

NodeId
MeshShape::coordsToNode(const Coordinates& c) const
{
    LAPSES_ASSERT(c.dims() == dims());
    int node = 0;
    for (int d = 0; d < dims(); ++d) {
        LAPSES_ASSERT(c.at(d) >= 0 && c.at(d) < radix(d));
        node += c.at(d) * strides_[static_cast<std::size_t>(d)];
    }
    return node;
}

int
MeshShape::portDim(PortId p)
{
    LAPSES_ASSERT(p > kLocalPort);
    return (p - 1) / 2;
}

Direction
MeshShape::portDir(PortId p)
{
    LAPSES_ASSERT(p > kLocalPort);
    return ((p - 1) % 2) == 0 ? Direction::Plus : Direction::Minus;
}

PortId
MeshShape::oppositePort(PortId p)
{
    const Direction flipped = portDir(p) == Direction::Plus
                                  ? Direction::Minus
                                  : Direction::Plus;
    return port(portDim(p), flipped);
}

std::string
MeshShape::portName(PortId p)
{
    if (p == kLocalPort)
        return "L";
    if (p == kInvalidPort)
        return "?";
    static const char* axis = "XYZW";
    std::string name;
    name += (portDir(p) == Direction::Plus) ? '+' : '-';
    name += axis[portDim(p) % 4];
    return name;
}

NodeId
MeshShape::neighbor(NodeId node, PortId p) const
{
    LAPSES_ASSERT(contains(node));
    if (p == kLocalPort)
        return node;
    const int d = portDim(p);
    if (d >= dims())
        return kInvalidNode;
    Coordinates c = nodeToCoords(node);
    int v = c.at(d) + (portDir(p) == Direction::Plus ? 1 : -1);
    if (v < 0 || v >= radix(d)) {
        if (!wrap_)
            return kInvalidNode;
        v = (v + radix(d)) % radix(d);
    }
    c.set(d, v);
    return coordsToNode(c);
}

int
MeshShape::distance(NodeId a, NodeId b) const
{
    const Coordinates ca = nodeToCoords(a);
    const Coordinates cb = nodeToCoords(b);
    int dist = 0;
    for (int d = 0; d < dims(); ++d) {
        int delta = std::abs(ca.at(d) - cb.at(d));
        if (wrap_)
            delta = std::min(delta, radix(d) - delta);
        dist += delta;
    }
    return dist;
}

std::vector<PortId>
MeshShape::productivePorts(NodeId from, NodeId to) const
{
    const Coordinates cf = nodeToCoords(from);
    const Coordinates ct = nodeToCoords(to);
    std::vector<PortId> ports;
    for (int d = 0; d < dims(); ++d) {
        const PortId p = productivePortInDim(cf, ct, d);
        if (p != kInvalidPort)
            ports.push_back(p);
    }
    return ports;
}

int
MeshShape::bisectionChannels() const
{
    // Cut the largest dimension in half; channels crossing the cut are
    // one bidirectional link (2 unidirectional channels) per node slice,
    // doubled again on a torus for the wrap links.
    int cut_dim = 0;
    for (int d = 1; d < dims(); ++d) {
        if (radix(d) > radix(cut_dim))
            cut_dim = d;
    }
    long slice = 1;
    for (int d = 0; d < dims(); ++d) {
        if (d != cut_dim)
            slice *= radix(d);
    }
    const int per_link = wrap_ ? 4 : 2;
    return static_cast<int>(slice * per_link);
}

// --- Topology ------------------------------------------------------

Topology::Topology(NodeId num_nodes, int num_ports)
    : num_nodes_(num_nodes), num_ports_(num_ports)
{
    if (num_nodes < 1)
        throw ConfigError("topology needs at least one node");
    if (static_cast<long>(num_nodes) > (1L << 30))
        throw ConfigError("topology too large");
    if (num_ports < 2)
        throw ConfigError(
            "topology needs at least one non-local port per node");
    if (num_ports > 127)
        throw ConfigError("topology port count must be <= 127");
    const std::size_t slots = static_cast<std::size_t>(num_nodes) *
                              static_cast<std::size_t>(num_ports);
    peer_node_.assign(slots, kInvalidNode);
    peer_port_.assign(slots, kInvalidPort);
}

void
Topology::connect(RouterPortPair a, RouterPortPair b)
{
    auto check = [this](const RouterPortPair& e) {
        if (!contains(e.node)) {
            throw ConfigError("link end node " +
                              std::to_string(e.node) +
                              " out of range");
        }
        if (e.port <= kLocalPort || e.port >= num_ports_) {
            throw ConfigError("link end port " +
                              std::to_string(e.port) + " of node " +
                              std::to_string(e.node) +
                              " out of range (ports 1.." +
                              std::to_string(num_ports_ - 1) + ")");
        }
    };
    check(a);
    check(b);
    if (a.node == b.node)
        throw ConfigError("self-link at node " +
                          std::to_string(a.node));
    for (const RouterPortPair& e : {a, b}) {
        if (peer_node_[linkIndex(e.node, e.port)] != kInvalidNode) {
            throw ConfigError("port " + std::to_string(e.port) +
                              " of node " + std::to_string(e.node) +
                              " is already connected");
        }
    }
    peer_node_[linkIndex(a.node, a.port)] = b.node;
    peer_port_[linkIndex(a.node, a.port)] = b.port;
    peer_node_[linkIndex(b.node, b.port)] = a.node;
    peer_port_[linkIndex(b.node, b.port)] = a.port;
    tree_.reset(); // adjacency changed; any cached tree is stale
    dist_cache_dest_ = kInvalidNode;
}

void
Topology::setMeshShape(MeshShape shape)
{
    LAPSES_ASSERT(shape.numNodes() == num_nodes_);
    mesh_ = std::make_unique<MeshShape>(std::move(shape));
}

void
Topology::setEndpoints(std::vector<NodeId> endpoints)
{
    if (endpoints.empty())
        throw ConfigError("topology needs at least one endpoint");
    endpoint_index_.assign(static_cast<std::size_t>(num_nodes_),
                           kInvalidNode);
    NodeId prev = kInvalidNode;
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        const NodeId n = endpoints[i];
        if (!contains(n))
            throw ConfigError("endpoint node " + std::to_string(n) +
                              " out of range");
        if (n <= prev)
            throw ConfigError(
                "endpoint list must be ascending and unique");
        prev = n;
        endpoint_index_[static_cast<std::size_t>(n)] =
            static_cast<NodeId>(i);
    }
    endpoints_ = std::move(endpoints);
    // The all-nodes default stays in the branchless identity encoding.
    if (static_cast<NodeId>(endpoints_.size()) == num_nodes_) {
        endpoints_.clear();
        endpoint_index_.clear();
    }
}

void
Topology::setBisectionChannels(int channels)
{
    if (channels < 1)
        throw ConfigError("bisection channel count must be >= 1");
    bisection_channels_ = channels;
}

int
Topology::medianCutChannels() const
{
    const NodeId half = num_nodes_ / 2;
    int crossing = 0;
    for (NodeId n = 0; n < num_nodes_; ++n) {
        for (PortId p = 1; p < num_ports_; ++p) {
            const NodeId v = neighbor(n, p);
            if (v != kInvalidNode && n < half && v >= half)
                ++crossing; // each link counted once, from the low side
        }
    }
    return crossing > 0 ? 2 * crossing : 2;
}

std::vector<std::int32_t>
Topology::distancesFrom(NodeId src) const
{
    LAPSES_ASSERT(contains(src));
    std::vector<std::int32_t> dist(
        static_cast<std::size_t>(num_nodes_), -1);
    std::deque<NodeId> queue;
    dist[static_cast<std::size_t>(src)] = 0;
    queue.push_back(src);
    while (!queue.empty()) {
        const NodeId n = queue.front();
        queue.pop_front();
        for (PortId p = 1; p < num_ports_; ++p) {
            const NodeId v = neighbor(n, p);
            if (v == kInvalidNode ||
                dist[static_cast<std::size_t>(v)] >= 0)
                continue;
            dist[static_cast<std::size_t>(v)] =
                dist[static_cast<std::size_t>(n)] + 1;
            queue.push_back(v);
        }
    }
    return dist;
}

int
Topology::distance(NodeId a, NodeId b) const
{
    if (mesh_)
        return mesh_->distance(a, b);
    if (dist_cache_dest_ != b) {
        dist_cache_ = distancesFrom(b);
        dist_cache_dest_ = b;
    }
    return dist_cache_[static_cast<std::size_t>(a)];
}

std::vector<PortId>
Topology::productivePorts(NodeId from, NodeId to) const
{
    if (mesh_)
        return mesh_->productivePorts(from, to);
    std::vector<PortId> ports;
    if (from == to)
        return ports;
    if (dist_cache_dest_ != to) {
        dist_cache_ = distancesFrom(to);
        dist_cache_dest_ = to;
    }
    const std::int32_t here =
        dist_cache_[static_cast<std::size_t>(from)];
    if (here <= 0)
        return ports;
    for (PortId p = 1; p < num_ports_; ++p) {
        const NodeId v = neighbor(from, p);
        if (v != kInvalidNode &&
            dist_cache_[static_cast<std::size_t>(v)] == here - 1)
            ports.push_back(p);
    }
    return ports;
}

const SpanningTree&
Topology::spanningTree() const
{
    if (tree_)
        return *tree_;
    auto tree = std::make_unique<SpanningTree>();
    const auto n_nodes = static_cast<std::size_t>(num_nodes_);
    tree->parentNode.assign(n_nodes, kInvalidNode);
    tree->parentPort.assign(n_nodes, kInvalidPort);
    tree->parentDownPort.assign(n_nodes, kInvalidPort);
    tree->order.assign(n_nodes, -1);
    tree->dfsIn.assign(n_nodes, -1);
    tree->dfsOut.assign(n_nodes, -1);

    // BFS from node 0, neighbors taken in port order; the discovery
    // index is the up/down orientation order.
    std::vector<std::vector<NodeId>> children(n_nodes);
    std::deque<NodeId> queue;
    std::int32_t next_order = 0;
    tree->order[0] = next_order++;
    queue.push_back(0);
    while (!queue.empty()) {
        const NodeId n = queue.front();
        queue.pop_front();
        for (PortId p = 1; p < num_ports_; ++p) {
            const NodeId v = neighbor(n, p);
            if (v == kInvalidNode ||
                tree->order[static_cast<std::size_t>(v)] >= 0)
                continue;
            tree->order[static_cast<std::size_t>(v)] = next_order++;
            tree->parentNode[static_cast<std::size_t>(v)] = n;
            tree->parentPort[static_cast<std::size_t>(v)] =
                peerPort(n, p);
            tree->parentDownPort[static_cast<std::size_t>(v)] = p;
            children[static_cast<std::size_t>(n)].push_back(v);
            queue.push_back(v);
        }
    }
    if (next_order != num_nodes_) {
        throw ConfigError(
            "topology is not connected (" +
            std::to_string(next_order) + " of " +
            std::to_string(num_nodes_) + " nodes reachable)");
    }

    // Iterative DFS pre-order over the tree children (port order).
    std::int32_t label = 0;
    std::vector<std::pair<NodeId, std::size_t>> stack;
    tree->dfsIn[0] = label++;
    stack.emplace_back(0, 0);
    while (!stack.empty()) {
        auto& [n, next_child] = stack.back();
        const auto& kids = children[static_cast<std::size_t>(n)];
        if (next_child < kids.size()) {
            const NodeId c = kids[next_child++];
            tree->dfsIn[static_cast<std::size_t>(c)] = label++;
            stack.emplace_back(c, 0);
        } else {
            tree->dfsOut[static_cast<std::size_t>(n)] = label;
            stack.pop_back();
        }
    }
    tree_ = std::move(tree);
    return *tree_;
}

std::string
Topology::portName(PortId p) const
{
    if (mesh_)
        return MeshShape::portName(p);
    if (p == kLocalPort)
        return "L";
    if (p == kInvalidPort)
        return "?";
    // Appending, not "p" + to_string(...): GCC 12 reports a false
    // -Wrestrict overlap inside operator+(const char*, string&&).
    std::string name = "p";
    name += std::to_string(static_cast<int>(p));
    return name;
}

} // namespace lapses
