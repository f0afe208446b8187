/**
 * @file
 * Synthetic traffic patterns (paper Section 2.2, following Fulgham &
 * Snyder's standard definitions [11]).
 *
 * The paper evaluates uniform, transpose, bit-reversal and
 * perfect-shuffle; bit-complement, tornado, nearest-neighbor and hotspot
 * are provided as extensions for wider experiments.
 */

#ifndef LAPSES_TRAFFIC_PATTERNS_HPP
#define LAPSES_TRAFFIC_PATTERNS_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/mesh.hpp"

namespace lapses
{

/** Destination generator for messages originating at a node. */
class TrafficPattern
{
  public:
    explicit TrafficPattern(const Topology& topo) : topo_(topo) {}
    virtual ~TrafficPattern() = default;

    TrafficPattern(const TrafficPattern&) = delete;
    TrafficPattern& operator=(const TrafficPattern&) = delete;

    /**
     * Destination of a message from src, or kInvalidNode when the node
     * does not inject under this pattern (e.g. transpose diagonal).
     * Never returns src itself.
     */
    virtual NodeId pick(NodeId src, Rng& rng) const = 0;

    const Topology& topology() const { return topo_; }

  protected:
    const Topology& topo_;
};

using TrafficPatternPtr = std::unique_ptr<TrafficPattern>;

/** Selectable traffic patterns. */
enum class TrafficKind
{
    Uniform,       //!< uniformly random endpoint (excluding self)
    Transpose,     //!< (x, y) -> (y, x); needs a square 2-D mesh
    BitReversal,   //!< endpoint-index bits reversed; power-of-two count
    PerfectShuffle,//!< endpoint-index bits rotated left by one
    BitComplement, //!< endpoint-index bits complemented
    Tornado,       //!< half-radix offset along each dimension (mesh)
    Neighbor,      //!< +1 along dimension 0 (mesh)
    Hotspot,       //!< uniform with a fraction aimed at hotspot nodes
};

/** Options for the Hotspot pattern. */
struct HotspotOptions
{
    /** Endpoints attracting extra traffic (defaults to the mesh
     *  center, or the middle endpoint on irregular graphs). */
    std::vector<NodeId> hotspots;

    /** Probability a message is redirected to a hotspot. */
    double fraction = 0.1;
};

/** Instantiate a traffic pattern; validates topology requirements. */
TrafficPatternPtr makeTrafficPattern(TrafficKind kind,
                                     const Topology& topo,
                                     const HotspotOptions& hs = {});

/** Names for flags, grid axes and records (common/enum_names.hpp). */
constexpr auto
enumNames(TrafficKind)
{
    return std::to_array<EnumName<TrafficKind>>({
        {TrafficKind::Uniform, "uniform"},
        {TrafficKind::Transpose, "transpose"},
        {TrafficKind::BitReversal, "bit-reversal"},
        {TrafficKind::PerfectShuffle, "perfect-shuffle"},
        {TrafficKind::BitComplement, "bit-complement"},
        {TrafficKind::Tornado, "tornado"},
        {TrafficKind::Neighbor, "neighbor"},
        {TrafficKind::Hotspot, "hotspot"},
    });
}

} // namespace lapses

#endif // LAPSES_TRAFFIC_PATTERNS_HPP
