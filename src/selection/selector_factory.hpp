/**
 * @file
 * Factory for path-selection heuristics by enum.
 */

#ifndef LAPSES_SELECTION_SELECTOR_FACTORY_HPP
#define LAPSES_SELECTION_SELECTOR_FACTORY_HPP

#include "common/enum_names.hpp"
#include "selection/path_selector.hpp"

namespace lapses
{

/** Selectable path-selection heuristics (Section 4). */
enum class SelectorKind
{
    StaticXY,  //!< dimension-order preference (baseline)
    FirstFree, //!< first available free path (baseline)
    Random,    //!< uniform random (baseline)
    MinMux,    //!< min VC-multiplexing degree (baseline, [9])
    Lfu,       //!< least frequently used (proposed)
    Lru,       //!< least recently used (proposed)
    MaxCredit, //!< maximum credits (proposed)
};

/** Instantiate a selector; rng seeds the Random policy's stream. */
PathSelectorPtr makePathSelector(SelectorKind kind, Rng rng);

/** Names for flags, grid axes and records (common/enum_names.hpp). */
constexpr auto
enumNames(SelectorKind)
{
    return std::to_array<EnumName<SelectorKind>>({
        {SelectorKind::StaticXY, "static-xy"},
        {SelectorKind::FirstFree, "first-free"},
        {SelectorKind::Random, "random"},
        {SelectorKind::MinMux, "min-mux"},
        {SelectorKind::Lfu, "lfu"},
        {SelectorKind::Lru, "lru"},
        {SelectorKind::MaxCredit, "max-credit"},
    });
}

} // namespace lapses

#endif // LAPSES_SELECTION_SELECTOR_FACTORY_HPP
