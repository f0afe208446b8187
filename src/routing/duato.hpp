/**
 * @file
 * Duato's fully adaptive routing (the paper's evaluated algorithm, [9]).
 *
 * Duato's protocol splits each physical channel's virtual channels into
 * an *escape* class and an *adaptive* class. Adaptive VCs may be acquired
 * toward any minimal productive port; escape VCs only along the
 * deadlock-free base routing function (dimension-order XY here). A
 * blocked header re-arbitrates every cycle over both classes, so the
 * escape network is always reachable and the extended channel dependency
 * graph stays acyclic — fully adaptive, deadlock-free, and minimal with
 * as few as 2 VCs per physical channel in a 2-D mesh.
 */

#ifndef LAPSES_ROUTING_DUATO_HPP
#define LAPSES_ROUTING_DUATO_HPP

#include "routing/routing_algorithm.hpp"

namespace lapses
{

/** Minimal fully adaptive routing with a dimension-order escape. */
class DuatoAdaptiveRouting : public RoutingAlgorithm
{
  public:
    explicit DuatoAdaptiveRouting(const Topology& topo);

    std::string name() const override { return "duato"; }
    RouteCandidates route(NodeId current, NodeId dest) const override;
    bool usesEscapeChannels() const override { return true; }
    bool isAdaptive() const override { return true; }

  private:
    const MeshShape& mesh_;
};

} // namespace lapses

#endif // LAPSES_ROUTING_DUATO_HPP
