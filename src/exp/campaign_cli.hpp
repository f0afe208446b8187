/**
 * @file
 * The campaign-definition half of the CLI surface, shared by
 * lapses-campaign (which executes a campaign) and lapses-merge (which
 * must expand the *identical* campaign to validate and reassemble
 * shard files). Both tools accept the same --grid/--seed/base-config
 * flags, so a merge invocation is the campaign invocation with the
 * execution flags swapped for merge flags.
 */

#ifndef LAPSES_EXP_CAMPAIGN_CLI_HPP
#define LAPSES_EXP_CAMPAIGN_CLI_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace lapses
{

/** Campaign definition accumulated from shared CLI flags. */
struct CampaignCli
{
    SimConfig base;
    std::vector<std::string> gridSpecs;
    std::uint64_t campaignSeed = 1;

    /**
     * Try to consume argv[i] (advancing i past any value argument).
     * Returns false when the flag is not a campaign-definition flag,
     * leaving i untouched for the caller's own flags. Throws
     * ConfigError on a malformed value or a missing value argument.
     */
    bool consume(int argc, char** argv, int& i);

    /** The declared grids (one single-run grid when none was given). */
    std::vector<CampaignGrid> grids() const;

    /** expandGrids(grids()): the campaign's runs, globally numbered. */
    std::vector<CampaignRun> runs() const;
};

/** Help text for the shared campaign-definition flags. */
std::string campaignCliHelp();

} // namespace lapses

#endif // LAPSES_EXP_CAMPAIGN_CLI_HPP
