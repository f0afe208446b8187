/**
 * @file
 * Machine-readable result writers: CSV for sweep series (plotting the
 * figures) and JSON for single points (dashboards, regression bots).
 */

#ifndef LAPSES_STATS_REPORT_HPP
#define LAPSES_STATS_REPORT_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "stats/sim_stats.hpp"

namespace lapses
{

/** One labeled series of (load, stats) points, e.g. a Fig. 6 curve. */
struct SweepSeries
{
    std::string label;
    std::vector<double> loads;
    std::vector<SimStats> points; //!< same length as loads
};

/**
 * Write sweep series as tidy CSV: `series,load` and the statsCsvHeader
 * columns. Saturated points keep the row with empty latency fields.
 */
void writeSweepCsv(std::ostream& os,
                   const std::vector<SweepSeries>& series);

/** JSON object for one simulation point (flat keys, no nesting): one
 *  key per row of the stat-field table, then "saturated". */
std::string statsToJson(const SimStats& stats);

/**
 * The inner `"key":value,...` fields of statsToJson without the
 * braces, for embedding in larger records (campaign sinks).
 */
std::string statsJsonFields(const SimStats& stats);

/** Column names matching statsToCsvRow: the stat-field table's CSV
 *  columns in rank order, then "saturated". */
std::string statsCsvHeader();

/**
 * Stable CSV cells for one point, matching statsCsvHeader. Saturated
 * points keep the row with the latency-derived fields empty (the
 * paper prints "Sat." for them).
 */
std::string statsToCsvRow(const SimStats& stats);

/** Escape a string for CSV (quotes fields containing , " or \n). */
std::string csvEscape(const std::string& field);

} // namespace lapses

#endif // LAPSES_STATS_REPORT_HPP
