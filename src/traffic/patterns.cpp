#include "traffic/patterns.hpp"

namespace lapses
{
namespace
{

/** The analytic mesh shape, or ConfigError for coordinate patterns on
 *  irregular graphs. */
const MeshShape&
requireMesh(const Topology& topo, const char* pattern)
{
    if (topo.mesh() == nullptr) {
        throw ConfigError(std::string(pattern) +
                          " traffic requires a mesh/torus topology");
    }
    return *topo.mesh();
}

/** Bits in the endpoint-index space; requires a power of two count.
 *  On meshes every node is an endpoint, so this is the node-id space
 *  of the classic definitions. */
int
addressBits(const Topology& topo, const char* pattern)
{
    const auto n = static_cast<unsigned>(topo.numEndpoints());
    if ((n & (n - 1)) != 0) {
        throw ConfigError(std::string(pattern) +
                          " traffic needs a power-of-two endpoint "
                          "count");
    }
    int b = 0;
    while ((1u << b) < n)
        ++b;
    return b;
}

/** The injecting node's endpoint index (injection only happens at
 *  endpoints). */
NodeId
srcIndex(const Topology& topo, NodeId src)
{
    const NodeId idx = topo.endpointIndex(src);
    LAPSES_ASSERT_MSG(idx != kInvalidNode,
                      "traffic source is not an endpoint");
    return idx;
}

class UniformTraffic : public TrafficPattern
{
  public:
    using TrafficPattern::TrafficPattern;

    NodeId
    pick(NodeId src, Rng& rng) const override
    {
        // Uniform over the other E-1 endpoints.
        const NodeId e = topo_.numEndpoints();
        const NodeId s = srcIndex(topo_, src);
        auto d = static_cast<NodeId>(
            rng.nextBounded(static_cast<std::uint64_t>(e - 1)));
        if (d >= s)
            ++d;
        return topo_.endpoint(d);
    }
};

class TransposeTraffic : public TrafficPattern
{
  public:
    explicit TransposeTraffic(const Topology& topo)
        : TrafficPattern(topo), mesh_(requireMesh(topo, "transpose"))
    {
        if (mesh_.dims() != 2 || mesh_.radix(0) != mesh_.radix(1))
            throw ConfigError("transpose needs a square 2-D mesh");
    }

    NodeId
    pick(NodeId src, Rng&) const override
    {
        const Coordinates c = mesh_.nodeToCoords(src);
        const NodeId d =
            mesh_.coordsToNode(Coordinates(c.at(1), c.at(0)));
        return d == src ? kInvalidNode : d;
    }

  private:
    const MeshShape& mesh_;
};

class BitReversalTraffic : public TrafficPattern
{
  public:
    explicit BitReversalTraffic(const Topology& topo)
        : TrafficPattern(topo), bits_(addressBits(topo, "bit-reversal"))
    {}

    NodeId
    pick(NodeId src, Rng&) const override
    {
        unsigned s = static_cast<unsigned>(srcIndex(topo_, src));
        unsigned d = 0;
        for (int i = 0; i < bits_; ++i) {
            d = (d << 1) | (s & 1u);
            s >>= 1;
        }
        const NodeId dest = topo_.endpoint(static_cast<NodeId>(d));
        return dest == src ? kInvalidNode : dest;
    }

  private:
    int bits_;
};

class PerfectShuffleTraffic : public TrafficPattern
{
  public:
    explicit PerfectShuffleTraffic(const Topology& topo)
        : TrafficPattern(topo),
          bits_(addressBits(topo, "perfect-shuffle"))
    {}

    NodeId
    pick(NodeId src, Rng&) const override
    {
        const auto s = static_cast<unsigned>(srcIndex(topo_, src));
        const unsigned mask = (1u << bits_) - 1;
        const unsigned d =
            ((s << 1) | (s >> (bits_ - 1))) & mask; // rotate left
        const NodeId dest = topo_.endpoint(static_cast<NodeId>(d));
        return dest == src ? kInvalidNode : dest;
    }

  private:
    int bits_;
};

class BitComplementTraffic : public TrafficPattern
{
  public:
    explicit BitComplementTraffic(const Topology& topo)
        : TrafficPattern(topo),
          bits_(addressBits(topo, "bit-complement"))
    {}

    NodeId
    pick(NodeId src, Rng&) const override
    {
        const unsigned mask = (1u << bits_) - 1;
        const auto d = static_cast<NodeId>(
            ~static_cast<unsigned>(srcIndex(topo_, src)) & mask);
        const NodeId dest = topo_.endpoint(d);
        return dest == src ? kInvalidNode : dest;
    }

  private:
    int bits_;
};

class TornadoTraffic : public TrafficPattern
{
  public:
    explicit TornadoTraffic(const Topology& topo)
        : TrafficPattern(topo), mesh_(requireMesh(topo, "tornado"))
    {}

    NodeId
    pick(NodeId src, Rng&) const override
    {
        Coordinates c = mesh_.nodeToCoords(src);
        for (int d = 0; d < mesh_.dims(); ++d) {
            const int k = mesh_.radix(d);
            c.set(d, (c.at(d) + (k / 2 - 1) + k) % k);
        }
        const NodeId dest = mesh_.coordsToNode(c);
        return dest == src ? kInvalidNode : dest;
    }

  private:
    const MeshShape& mesh_;
};

class NeighborTraffic : public TrafficPattern
{
  public:
    explicit NeighborTraffic(const Topology& topo)
        : TrafficPattern(topo), mesh_(requireMesh(topo, "neighbor"))
    {}

    NodeId
    pick(NodeId src, Rng&) const override
    {
        Coordinates c = mesh_.nodeToCoords(src);
        c.set(0, (c.at(0) + 1) % mesh_.radix(0));
        const NodeId dest = mesh_.coordsToNode(c);
        return dest == src ? kInvalidNode : dest;
    }

  private:
    const MeshShape& mesh_;
};

class HotspotTraffic : public TrafficPattern
{
  public:
    HotspotTraffic(const Topology& topo, HotspotOptions opts)
        : TrafficPattern(topo), opts_(std::move(opts)), uniform_(topo)
    {
        if (opts_.hotspots.empty()) {
            if (topo.mesh()) {
                // Default hotspot: the mesh center.
                const MeshShape& mesh = *topo.mesh();
                Coordinates c(mesh.dims());
                for (int d = 0; d < mesh.dims(); ++d)
                    c.set(d, mesh.radix(d) / 2);
                opts_.hotspots.push_back(mesh.coordsToNode(c));
            } else {
                // Irregular graphs: the middle endpoint.
                opts_.hotspots.push_back(
                    topo.endpoint(topo.numEndpoints() / 2));
            }
        }
        for (NodeId h : opts_.hotspots) {
            if (!topo.contains(h))
                throw ConfigError("hotspot node outside the topology");
            if (!topo.isEndpoint(h))
                throw ConfigError("hotspot node " + std::to_string(h) +
                                  " is not an endpoint");
        }
        if (opts_.fraction < 0.0 || opts_.fraction > 1.0)
            throw ConfigError("hotspot fraction must be in [0,1]");
    }

    NodeId
    pick(NodeId src, Rng& rng) const override
    {
        if (rng.nextBool(opts_.fraction)) {
            const NodeId h = opts_.hotspots[rng.nextBounded(
                opts_.hotspots.size())];
            if (h != src)
                return h;
        }
        return uniform_.pick(src, rng);
    }

  private:
    HotspotOptions opts_;
    UniformTraffic uniform_;
};

} // namespace

TrafficPatternPtr
makeTrafficPattern(TrafficKind kind, const Topology& topo,
                   const HotspotOptions& hs)
{
    switch (kind) {
      case TrafficKind::Uniform:
        return std::make_unique<UniformTraffic>(topo);
      case TrafficKind::Transpose:
        return std::make_unique<TransposeTraffic>(topo);
      case TrafficKind::BitReversal:
        return std::make_unique<BitReversalTraffic>(topo);
      case TrafficKind::PerfectShuffle:
        return std::make_unique<PerfectShuffleTraffic>(topo);
      case TrafficKind::BitComplement:
        return std::make_unique<BitComplementTraffic>(topo);
      case TrafficKind::Tornado:
        return std::make_unique<TornadoTraffic>(topo);
      case TrafficKind::Neighbor:
        return std::make_unique<NeighborTraffic>(topo);
      case TrafficKind::Hotspot:
        return std::make_unique<HotspotTraffic>(topo, hs);
    }
    throw ConfigError("unknown traffic pattern");
}

} // namespace lapses
