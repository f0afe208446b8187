/**
 * @file
 * The statistic-field table (DESIGN.md "Stat-field table"): one row
 * per output statistic of a SimStats. The JSON and CSV record writers,
 * the merge's metric reader and the --group-by aggregate all walk it.
 * Rows appear in JSON key order; `rank` orders the CSV columns, which
 * put the request goodput and offered rate before the three request
 * counters, and those in reverse.
 */

#ifndef LAPSES_STATS_STAT_FIELDS_HPP
#define LAPSES_STATS_STAT_FIELDS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "stats/sim_stats.hpp"

namespace lapses
{

/** When a statistic's CSV cell is left empty. */
enum class Blank : std::uint8_t
{
    Never,
    Saturated, //!< latency-derived: unbounded past saturation ("Sat.")
    OpenLoop,  //!< request-level: the run is not closed-loop
};

/** How lapses-merge --group-by folds a statistic over a group. */
enum class Fold : std::uint8_t
{
    None,
    Summary, //!< mean, p50 and p99: <name>_mean,<name>_p50,<name>_p99
    Mean,    //!< the group mean: <name>
};

/** One output statistic. */
struct StatField
{
    const char* key = nullptr;    //!< JSON key
    int rank = -1;                //!< CSV column position; -1: JSON only
    const char* column = nullptr; //!< CSV column when not the key
    Blank blank = Blank::Never;   //!< when the CSV cell is empty
    /** An exact counter, printed as an integer... */
    std::uint64_t SimStats::*count = nullptr;
    /** ...or a value; JSON prints a non-finite one as null. */
    double (*value)(const SimStats& stats) = nullptr;
    Fold fold = Fold::None;          //!< --group-by aggregation
    const char* aggregate = nullptr; //!< aggregate name when not the column

    const char* csvName() const { return column ? column : key; }

    /** Whether the CSV leaves this statistic's cell empty. */
    bool
    blankIn(const SimStats& s) const
    {
        return (blank == Blank::Saturated && s.saturated) ||
               (blank == Blank::OpenLoop && !s.closedLoop());
    }
};

/** Every row, in JSON key order. */
std::span<const StatField> statFields();

/** The rows with a CSV column, in column order. */
const std::vector<const StatField*>& statCsvFields();

} // namespace lapses

#endif // LAPSES_STATS_STAT_FIELDS_HPP
