/**
 * @file
 * Deterministic dimension-order (e-cube) routing.
 *
 * XY routing resolves dimension 0 (X) completely before dimension 1 (Y),
 * and so on for higher dimensions; YX routing uses the reverse dimension
 * order. XY is the paper's deterministic baseline (STATIC-XY derives its
 * name from it) and the escape sub-function of Duato's algorithm; YX is
 * what the minimal-flexibility meta-table mapping of Fig. 8(a) forces.
 */

#ifndef LAPSES_ROUTING_DIMENSION_ORDER_HPP
#define LAPSES_ROUTING_DIMENSION_ORDER_HPP

#include <vector>

#include "routing/routing_algorithm.hpp"

namespace lapses
{

/** Deterministic e-cube routing with a configurable dimension order. */
class DimensionOrderRouting : public RoutingAlgorithm
{
  public:
    /**
     * @param topo  the network
     * @param order dimensions in resolution order; e.g. {0,1} = XY,
     *              {1,0} = YX. Must be a permutation of 0..dims-1.
     */
    DimensionOrderRouting(const Topology& topo, std::vector<int> order);

    /** Standard XY (lowest dimension first). */
    static DimensionOrderRouting xy(const Topology& topo);

    /** Reverse order (YX in 2-D). */
    static DimensionOrderRouting yx(const Topology& topo);

    std::string name() const override;
    RouteCandidates route(NodeId current, NodeId dest) const override;
    bool usesEscapeChannels() const override { return false; }
    bool isAdaptive() const override { return false; }

    /**
     * The single dimension-order port for current -> dest (kLocalPort at
     * the destination). In XY order it is the escape port Duato routing
     * assigns, which tests check against it.
     */
    PortId nextPort(NodeId current, NodeId dest) const;

  private:
    const MeshShape& mesh_;
    std::vector<int> order_;
};

} // namespace lapses

#endif // LAPSES_ROUTING_DIMENSION_ORDER_HPP
