#include "exp/grid_spec.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "exp/config_fields.hpp"

namespace lapses
{

namespace
{

std::string
trim(const std::string& s)
{
    std::size_t begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    std::size_t end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

} // namespace

std::vector<std::string>
splitList(const std::string& s, char sep)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t next = s.find(sep, pos);
        if (next == std::string::npos)
            next = s.size();
        const std::string part = trim(s.substr(pos, next - pos));
        if (!part.empty())
            parts.push_back(part);
        pos = next + 1;
    }
    return parts;
}

void
applyGridSpec(const std::string& spec, CampaignGrid& grid)
{
    for (const std::string& clause : splitList(spec, ';')) {
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            throw ConfigError("bad grid clause '" + clause +
                              "' (want axis=value[,value...])");
        const std::string axis = trim(clause.substr(0, eq));
        const std::vector<std::string> values =
            splitList(clause.substr(eq + 1), ',');
        if (values.empty())
            throw ConfigError("grid axis '" + axis + "' has no values");
        const auto field = std::find_if(
            gridAxes().begin(), gridAxes().end(),
            [&](const ConfigField* f) { return axis == f->axis; });
        if (field == gridAxes().end()) {
            throw ConfigError("unknown grid axis '" + axis + "' (want " +
                              gridAxisNames() + ")");
        }
        for (const std::string& v : values)
            (*field)->ops.append(grid.axes, axis, v);
    }
}

} // namespace lapses
