/**
 * @file
 * Textual campaign-grid specs for the lapses-campaign CLI:
 *
 *   model=proud,la-proud; routing=xy,duato; traffic=uniform,transpose;
 *   load=0.1:0.8:0.1; msglen=4,20
 *
 * Semicolon-separated `axis=value[,value...]` clauses; values use the
 * identifiers core/names.hpp parses. The load axis additionally
 * accepts LO:HI:STEP ranges (parseLoadRange; mixable with plain
 * values). Whitespace around clauses, keys and values is ignored.
 */

#ifndef LAPSES_EXP_GRID_SPEC_HPP
#define LAPSES_EXP_GRID_SPEC_HPP

#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace lapses
{

/**
 * Parse a grid spec into grid.axes (appending to any values already
 * there). The axes are the grid-axis rows of exp/config_fields.hpp
 * (gridAxisNames()); each reads its values with its flag's parser.
 * Throws ConfigError on an unknown axis or a malformed value.
 */
void applyGridSpec(const std::string& spec, CampaignGrid& grid);

/** The non-empty, whitespace-trimmed items of a `sep`-separated list
 *  (also lapses-merge --group-by's comma list). */
std::vector<std::string> splitList(const std::string& s, char sep);

} // namespace lapses

#endif // LAPSES_EXP_GRID_SPEC_HPP
