/**
 * @file
 * Factory for routing algorithms by enum, used by the simulation config.
 */

#ifndef LAPSES_ROUTING_ALGORITHM_FACTORY_HPP
#define LAPSES_ROUTING_ALGORITHM_FACTORY_HPP

#include "common/enum_names.hpp"
#include "routing/routing_algorithm.hpp"

namespace lapses
{

/** Selectable routing algorithms. */
enum class RoutingAlgo
{
    DeterministicXY,    //!< dimension-order, the paper's DET baseline
    DeterministicYX,    //!< reverse dimension-order
    DuatoFullyAdaptive, //!< the paper's evaluated adaptive algorithm
    NorthLast,          //!< turn model (Fig. 7)
    WestFirst,          //!< turn model
    NegativeFirst,      //!< turn model
    TorusAdaptive,      //!< Duato over dateline XY (tori only, T3E-style)
    UpDown,             //!< up*-down* tree path (any connected graph)
    UpDownAdaptive,     //!< adaptive with up*-down* Duato escape
};

/** Instantiate the algorithm for a topology. Throws ConfigError when the
 *  algorithm does not support the topology (e.g. turn model on 3-D). */
RoutingAlgorithmPtr makeRoutingAlgorithm(RoutingAlgo algo,
                                         const Topology& topo);

/** Names for flags, grid axes and records (common/enum_names.hpp). */
constexpr auto
enumNames(RoutingAlgo)
{
    return std::to_array<EnumName<RoutingAlgo>>({
        {RoutingAlgo::DeterministicXY, "xy"},
        {RoutingAlgo::DeterministicYX, "yx"},
        {RoutingAlgo::DuatoFullyAdaptive, "duato"},
        {RoutingAlgo::NorthLast, "north-last"},
        {RoutingAlgo::WestFirst, "west-first"},
        {RoutingAlgo::NegativeFirst, "negative-first"},
        {RoutingAlgo::TorusAdaptive, "torus-adaptive"},
        {RoutingAlgo::UpDown, "up-down"},
        {RoutingAlgo::UpDownAdaptive, "up-down-adaptive"},
    });
}

} // namespace lapses

#endif // LAPSES_ROUTING_ALGORITHM_FACTORY_HPP
