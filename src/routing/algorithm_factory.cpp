#include "routing/algorithm_factory.hpp"

#include "routing/dimension_order.hpp"
#include "routing/duato.hpp"
#include "routing/torus.hpp"
#include "routing/turn_model.hpp"
#include "routing/up_down.hpp"

namespace lapses
{

const MeshShape&
requireMeshShape(const Topology& topo, const char* what)
{
    if (topo.mesh() == nullptr) {
        throw ConfigError(std::string(what) +
                          " requires a mesh/torus topology");
    }
    return *topo.mesh();
}

RoutingAlgorithmPtr
makeRoutingAlgorithm(RoutingAlgo algo, const Topology& topo)
{
    // On irregular graphs the mesh-coordinate families map to their
    // up*-down* analogues; the torus and turn-model algorithms have no
    // graph-generic counterpart and reject via requireMeshShape below.
    if (topo.mesh() == nullptr) {
        switch (algo) {
          case RoutingAlgo::DeterministicXY:
          case RoutingAlgo::DeterministicYX:
          case RoutingAlgo::UpDown:
            return std::make_unique<UpDownRouting>(topo, false);
          case RoutingAlgo::DuatoFullyAdaptive:
          case RoutingAlgo::UpDownAdaptive:
            return std::make_unique<UpDownRouting>(topo, true);
          default:
            break;
        }
    }
    switch (algo) {
      case RoutingAlgo::DeterministicXY:
        return std::make_unique<DimensionOrderRouting>(
            DimensionOrderRouting::xy(topo));
      case RoutingAlgo::DeterministicYX:
        return std::make_unique<DimensionOrderRouting>(
            DimensionOrderRouting::yx(topo));
      case RoutingAlgo::DuatoFullyAdaptive:
        return std::make_unique<DuatoAdaptiveRouting>(topo);
      case RoutingAlgo::NorthLast:
        return std::make_unique<TurnModelRouting>(topo,
                                                  TurnModel::NorthLast);
      case RoutingAlgo::WestFirst:
        return std::make_unique<TurnModelRouting>(topo,
                                                  TurnModel::WestFirst);
      case RoutingAlgo::NegativeFirst:
        return std::make_unique<TurnModelRouting>(
            topo, TurnModel::NegativeFirst);
      case RoutingAlgo::TorusAdaptive:
        return std::make_unique<TorusAdaptiveRouting>(topo);
      case RoutingAlgo::UpDown:
        return std::make_unique<UpDownRouting>(topo, false);
      case RoutingAlgo::UpDownAdaptive:
        return std::make_unique<UpDownRouting>(topo, true);
    }
    throw ConfigError("unknown routing algorithm");
}

} // namespace lapses
