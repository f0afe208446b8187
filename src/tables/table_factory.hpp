/**
 * @file
 * Factory for routing-table storage schemes by enum.
 */

#ifndef LAPSES_TABLES_TABLE_FACTORY_HPP
#define LAPSES_TABLES_TABLE_FACTORY_HPP

#include "common/enum_names.hpp"
#include "routing/routing_algorithm.hpp"
#include "tables/routing_table.hpp"

namespace lapses
{

/** Selectable table-storage schemes (Section 5). */
enum class TableKind
{
    Full,             //!< N entries per router
    MetaRowMinimal,   //!< Fig. 8(a) row clusters — minimal flexibility
    MetaBlockMaximal, //!< Fig. 8(b) square blocks — maximal flexibility
    EconomicalStorage,//!< 3^n sign-indexed entries (proposed)
    Interval,         //!< label intervals, deterministic algorithms only
};

/**
 * Build and program a table of the given kind from an algorithm.
 * MetaBlockMaximal uses blocks of edge radix/4 when divisible (the
 * paper's 4x4 blocks on a 16x16 mesh) and otherwise the largest
 * square divisor.
 */
RoutingTablePtr makeRoutingTable(TableKind kind, const Topology& topo,
                                 const RoutingAlgorithm& algo);

/** Names for flags, grid axes and records (common/enum_names.hpp). */
constexpr auto
enumNames(TableKind)
{
    return std::to_array<EnumName<TableKind>>({
        {TableKind::Full, "full-table"},
        {TableKind::MetaRowMinimal, "meta-row"},
        {TableKind::MetaBlockMaximal, "meta-block"},
        {TableKind::EconomicalStorage, "economical-storage"},
        {TableKind::Interval, "interval"},
    });
}

} // namespace lapses

#endif // LAPSES_TABLES_TABLE_FACTORY_HPP
