#include "exp/campaign_cli.hpp"

#include "core/experiment.hpp"
#include "exp/config_fields.hpp"
#include "exp/grid_spec.hpp"

namespace lapses
{

bool
CampaignCli::consume(int argc, char** argv, int& i)
{
    const std::string arg = argv[i];
    if (arg == "--grid")
        gridSpecs.push_back(flagValue(argc, argv, i));
    else if (arg == "--seed")
        campaignSeed = parseCheckedU64(arg, flagValue(argc, argv, i));
    else
        return consumeConfigFlag(argc, argv, i, base, FlagSet::Campaign);
    return true;
}

std::vector<CampaignGrid>
CampaignCli::grids() const
{
    std::vector<std::string> specs = gridSpecs;
    if (specs.empty())
        specs.push_back(""); // single run of the base config
    std::vector<CampaignGrid> grids;
    grids.reserve(specs.size());
    for (const std::string& spec : specs) {
        CampaignGrid grid;
        grid.base = base;
        grid.campaignSeed = campaignSeed;
        if (!spec.empty())
            applyGridSpec(spec, grid);
        grids.push_back(std::move(grid));
    }
    return grids;
}

std::vector<CampaignRun>
CampaignCli::runs() const
{
    return expandGrids(grids());
}

std::string
campaignCliHelp()
{
    return "Campaign definition (identical for lapses-campaign and "
           "lapses-merge):\n"
           "  --grid SPEC          axes as 'axis=v1,v2;axis=v1' clauses;\n"
           "                       repeat --grid to join grids. Axes,\n"
           "                       outermost first (load also takes\n"
           "                       LO:HI:STEP ranges):\n" +
           wrapHelpList(gridAxisNames()) +
           "  --seed N             campaign seed; run i gets the seed\n"
           "                       derived from (N, i) [1]\n"
           "\n" +
           configFlagHelp(FlagSet::Campaign);
}

} // namespace lapses
