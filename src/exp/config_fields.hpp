/**
 * @file
 * The configuration-knob table (DESIGN.md "Config-field table"): one
 * row per user-settable SimConfig knob and per campaign record
 * coordinate. The CLIs, applyGridSpec, grid expansion, the record
 * writers, --group-by and the merge's stale-shard check all walk it,
 * so a new grid axis costs one row plus its CampaignAxes vector.
 *
 * The table holds two orders: rows with a column appear in record
 * column order, and `nest` ranks the grid axes for expansion (0
 * outermost, load innermost). They differ: msglen nests outside
 * injection, but records print injection first.
 */

#ifndef LAPSES_EXP_CONFIG_FIELDS_HPP
#define LAPSES_EXP_CONFIG_FIELDS_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace lapses
{

/** Which CLI parses: lapses-sim also takes the sim-only rows. */
enum class FlagSet : std::uint8_t
{
    Campaign,
    Sim,
};

/** Type-erased access to one CampaignAxes vector. */
struct AxisOps
{
    /** Values on the axis; 0 = not swept (the base value is used). */
    std::size_t (*size)(const CampaignAxes& axes) = nullptr;
    /** Parse one spec token (naming `axis` on error) and append it. */
    void (*append)(CampaignAxes& axes, const std::string& axis,
                   const std::string& token) = nullptr;
    /** Write value k of the axis into the config. */
    void (*apply)(const CampaignAxes& axes, std::size_t k,
                  SimConfig& cfg) = nullptr;
};

/** One configuration knob or record coordinate. */
struct ConfigField
{
    const char* flag = nullptr;    //!< CLI flag, e.g. "--vcs"; null: none
    const char* metavar = nullptr; //!< value placeholder; null: a switch
    const char* section = nullptr; //!< help section title
    const char* help = nullptr;    //!< '\n' starts a continuation line
    /** An enum row's help, built from its name table: the names, then
     *  `help` as a note, then the default; wrapped to fit. */
    std::string (*enumHelp)(const char* note) = nullptr;
    bool simOnly = false;          //!< only lapses-sim takes the flag
    const char* column = nullptr;  //!< record column; null: not recorded
    bool quoted = false;           //!< a string column, escaped per format
    const char* axis = nullptr;    //!< --grid axis name; null: not swept
    int nest = -1;                 //!< expansion nesting rank
    /** Parse the flag's value ("" for a switch) into cfg; throws
     *  ConfigError naming the flag. */
    void (*parse)(SimConfig& cfg, const std::string& flag,
                  const std::string& value) = nullptr;
    /** The column's value as records print it, unquoted, unescaped. */
    std::string (*format)(const CampaignRun& run) = nullptr;
    AxisOps ops = {};
};

/** Every row, record coordinates in column order. */
std::span<const ConfigField> configFields();

/** The grid-axis rows, outermost (nest 0) first. */
const std::vector<const ConfigField*>& gridAxes();

/** The coordinate row whose column or grid-axis name is `name` (what
 *  --group-by accepts); null when there is none. */
const ConfigField* findCoordinate(const std::string& name);

/** "topology|model|...|load": the grid axes, outermost first. */
std::string gridAxisNames();

/** Every name findCoordinate accepts, '|'-separated. */
std::string coordinateNames();

/** Consume argv[i] if it is a configuration flag of `set` (advancing
 *  i past its value); ConfigError on a malformed or missing value. */
bool consumeConfigFlag(int argc, char** argv, int& i, SimConfig& cfg,
                       FlagSet set);

/** The value after argv[i]'s flag (advancing i), or ConfigError. */
std::string flagValue(int argc, char** argv, int& i);

/** Help lines for the configuration flags of `set`, by section. */
std::string configFlagHelp(FlagSet set);

/** '|'-separated `names` wrapped onto help continuation lines. */
std::string wrapHelpList(const std::string& names);

} // namespace lapses

#endif // LAPSES_EXP_CONFIG_FIELDS_HPP
