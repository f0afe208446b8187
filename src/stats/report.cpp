#include "stats/report.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"
#include "stats/stat_fields.hpp"

namespace lapses
{

std::string
csvEscape(const std::string& field)
{
    if (field.find_first_of(",\"\n") == std::string::npos)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeSweepCsv(std::ostream& os, const std::vector<SweepSeries>& series)
{
    os << "series,load," << statsCsvHeader() << '\n';
    for (const SweepSeries& s : series) {
        LAPSES_ASSERT(s.loads.size() == s.points.size());
        for (std::size_t i = 0; i < s.loads.size(); ++i) {
            os << csvEscape(s.label) << ',' << s.loads[i] << ','
               << statsToCsvRow(s.points[i]) << '\n';
        }
    }
}

std::string
statsCsvHeader()
{
    // `saturated` must stay the final column: resume/merge detect a
    // record cut short by a kill through the last cell being a bool.
    std::string header;
    for (const StatField* f : statCsvFields())
        header += std::string(f->csvName()) + ',';
    return header + "saturated";
}

namespace
{

/** One statistic as records print it: counters exactly, values at the
 *  stream's default precision, and in JSON a non-finite value as null. */
void
printStat(std::ostream& os, const StatField& f, const SimStats& stats,
          bool json)
{
    if (f.count != nullptr) {
        os << stats.*f.count;
        return;
    }
    const double v = f.value(stats);
    if (json && !std::isfinite(v))
        os << "null";
    else
        os << v;
}

} // namespace

std::string
statsToCsvRow(const SimStats& stats)
{
    std::ostringstream os;
    for (const StatField* f : statCsvFields()) {
        if (!f->blankIn(stats))
            printStat(os, *f, stats, false);
        os << ',';
    }
    os << (stats.saturated ? "true" : "false");
    return os.str();
}

std::string
statsJsonFields(const SimStats& stats)
{
    std::ostringstream os;
    for (const StatField& f : statFields()) {
        os << '"' << f.key << "\":";
        printStat(os, f, stats, true);
        os << ',';
    }
    os << "\"saturated\":" << (stats.saturated ? "true" : "false");
    return os.str();
}

std::string
statsToJson(const SimStats& stats)
{
    return '{' + statsJsonFields(stats) + '}';
}

} // namespace lapses
