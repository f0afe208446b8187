/**
 * @file
 * Unit tests for campaign-grid expansion: cross-product sizes, axis
 * ordering, seed derivation, multi-grid numbering, axis validation,
 * and the --grid spec parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_cli.hpp"
#include "exp/config_fields.hpp"
#include "exp/grid_spec.hpp"
#include "exp/result_sink.hpp"

namespace lapses
{
namespace
{

TEST(CampaignGrid, EmptyAxesExpandToOneBaseRun)
{
    CampaignGrid grid;
    const auto runs = grid.expand();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].index, 0u);
    EXPECT_EQ(runs[0].series, 0u);
    EXPECT_EQ(runs[0].config.normalizedLoad,
              grid.base.normalizedLoad);
}

TEST(CampaignGrid, CrossProductCountsMultiply)
{
    CampaignGrid grid;
    grid.axes.models = {RouterModel::Proud, RouterModel::LaProud};
    grid.axes.selectors = {SelectorKind::StaticXY, SelectorKind::Lru,
                           SelectorKind::MaxCredit};
    grid.axes.loads = {0.1, 0.2, 0.3, 0.4};
    EXPECT_EQ(grid.axes.runCount(), 2u * 3u * 4u);
    const auto runs = grid.expand();
    ASSERT_EQ(runs.size(), 24u);
    // Load varies fastest: one series per (model, selector) pair.
    EXPECT_EQ(runs.back().series, 5u);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].index, i);
        EXPECT_EQ(runs[i].series, i / 4);
        EXPECT_DOUBLE_EQ(runs[i].config.normalizedLoad,
                         grid.axes.loads[i % 4]);
    }
}

TEST(CampaignGrid, SeedsDeriveFromCampaignSeedAndIndex)
{
    CampaignGrid grid;
    grid.campaignSeed = 42;
    grid.axes.loads = {0.1, 0.2, 0.3};
    const auto runs = grid.expand();
    for (const CampaignRun& run : runs) {
        EXPECT_EQ(run.config.seed, deriveSeed(42, run.index));
    }
    EXPECT_NE(runs[0].config.seed, runs[1].config.seed);
}

TEST(CampaignGrid, DeriveSeedsOffKeepsBaseSeed)
{
    CampaignGrid grid;
    grid.base.seed = 7;
    grid.deriveSeeds = false;
    grid.axes.loads = {0.1, 0.2};
    for (const CampaignRun& run : grid.expand())
        EXPECT_EQ(run.config.seed, 7u);
}

TEST(CampaignGrid, OffsetsShiftGlobalNumbering)
{
    CampaignGrid grid;
    grid.axes.loads = {0.1, 0.2};
    const auto runs = grid.expand(10, 3);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].index, 10u);
    EXPECT_EQ(runs[1].index, 11u);
    EXPECT_EQ(runs[0].series, 3u);
    // The seed stream follows the global index.
    EXPECT_EQ(runs[0].config.seed,
              deriveSeed(grid.campaignSeed, 10));
}

TEST(CampaignGrid, ExpandGridsNumbersAcrossGrids)
{
    CampaignGrid a;
    a.axes.loads = {0.1, 0.2};
    CampaignGrid b;
    b.axes.selectors = {SelectorKind::StaticXY, SelectorKind::Lru};
    b.axes.loads = {0.3};
    const auto runs = expandGrids({a, b});
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(runs[2].index, 2u);
    EXPECT_EQ(runs[2].series, 1u);
    EXPECT_EQ(runs[3].series, 2u);
}

TEST(CampaignGrid, InvalidCombinationThrowsAtExpansion)
{
    CampaignGrid grid;
    grid.axes.vcCounts = {4};
    grid.axes.escapeVcs = {4}; // escape must be < vcs
    EXPECT_THROW(grid.expand(), ConfigError);
}

TEST(CampaignGrid, NestRanksOrderEachAxisOnceWithLoadInnermost)
{
    const std::vector<const ConfigField*>& axes = gridAxes();
    ASSERT_EQ(axes.size(), 16u);
    for (std::size_t k = 0; k < axes.size(); ++k)
        EXPECT_EQ(axes[k]->nest, static_cast<int>(k)) << axes[k]->axis;
    EXPECT_STREQ(axes.back()->axis, "load");
    // Expansion nests msglen outside injection, while records print
    // injection first.
    CampaignGrid grid;
    applyGridSpec("injection=exponential,bursty; msglen=4,20", grid);
    const auto runs = grid.expand();
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(runs[1].config.msgLen, 4);
    EXPECT_EQ(runs[1].config.injection, InjectionKind::Bursty);
    EXPECT_EQ(runs[2].config.msgLen, 20);
    const std::string header = campaignCsvHeader();
    EXPECT_LT(header.find(",injection,"), header.find(",msglen,"));
}

TEST(GridSpec, ParsesAxesAndRanges)
{
    CampaignGrid grid;
    applyGridSpec("model=proud,la-proud; routing = duato;"
                  "load=0.1:0.3:0.1,0.5; msglen=4,20",
                  grid);
    EXPECT_EQ(grid.axes.models.size(), 2u);
    ASSERT_EQ(grid.axes.routings.size(), 1u);
    EXPECT_EQ(grid.axes.routings[0], RoutingAlgo::DuatoFullyAdaptive);
    ASSERT_EQ(grid.axes.loads.size(), 4u);
    EXPECT_DOUBLE_EQ(grid.axes.loads[3], 0.5);
    EXPECT_EQ(grid.axes.msgLens, (std::vector<int>{4, 20}));
    EXPECT_EQ(grid.axes.runCount(), 2u * 1u * 4u * 2u);
}

TEST(GridSpec, RejectsUnknownAxisAndBadValues)
{
    CampaignGrid grid;
    EXPECT_THROW(applyGridSpec("warp=9", grid), ConfigError);
    EXPECT_THROW(applyGridSpec("model=warp-proud", grid), ConfigError);
    EXPECT_THROW(applyGridSpec("load=0.5:0.1:0.1", grid), ConfigError);
    EXPECT_THROW(applyGridSpec("msglen=", grid), ConfigError);
    EXPECT_THROW(applyGridSpec("msglen", grid), ConfigError);
    // Non-finite and malformed loads used to pass --dry-run and abort
    // at run time, or to be read as a nearby valid range.
    for (const char* spec :
         {"load=nan", "load=inf", "load=-inf", "load=0", "load=0.1x",
          "load=nan:1:0.1", "load=0.1:inf:0.1", "load=0.1:0.2:nan",
          "load=0.1:0.2:0.1x", "load=0.1:0.2:0.1:7", "load=0.1:0.2",
          "load=0.1::0.1", "load=0:0.2:0.1", "load=0.1:0.2:0"}) {
        try {
            applyGridSpec(spec, grid);
            FAIL() << "accepted " << spec;
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("load"),
                      std::string::npos)
                << e.what();
        }
    }
    // An axis value is checked against its flag's range at parse
    // time, naming the axis. A message longer than the 16-bit flit
    // sequence can number is out of range too.
    for (const char* spec : {"msglen=0", "msglen=65536"}) {
        try {
            applyGridSpec(spec, grid);
            FAIL() << "accepted " << spec;
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("msglen"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_TRUE(grid.axes.loads.empty());
    EXPECT_TRUE(grid.axes.msgLens.empty());
}

TEST(GridSpec, LoadRangesAccumulateAndRejectGarbage)
{
    // The range loop is unchanged, so swept loads stay bit-identical.
    std::vector<double> expected;
    for (double x = 0.05; x <= 0.65 + 1e-9; x += 0.05)
        expected.push_back(x);
    EXPECT_EQ(parseLoadRange("--sweep", "0.05:0.65:0.05"), expected);
    EXPECT_EQ(parseLoadRange("--sweep", "0.2:0.2:1"),
              (std::vector<double>{0.2}));
    CampaignGrid grid;
    applyGridSpec("load=0.05:0.65:0.05", grid);
    EXPECT_EQ(grid.axes.loads, expected);

    for (const char* spec :
         {"nan:1:0.1", "0.1:0.2:0.1junk", "0.1:0.2:0.1:7", "0.1:0.2",
          "", ":", "0.1:0.2:", "inf:inf:1", "0.2:0.1:0.1", "-0.1:1:0.1",
          "0.1:1:-0.1"}) {
        try {
            parseLoadRange("--sweep", spec);
            FAIL() << "accepted --sweep '" << spec << "'";
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("--sweep"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(GridSpec, ParsesWorkloadAxis)
{
    CampaignGrid grid;
    applyGridSpec("workload=open,request-reply; load=0.1,0.2", grid);
    ASSERT_EQ(grid.axes.workloads.size(), 2u);
    EXPECT_EQ(grid.axes.workloads[0], WorkloadKind::Open);
    EXPECT_EQ(grid.axes.workloads[1], WorkloadKind::RequestReply);
    EXPECT_EQ(grid.axes.runCount(), 2u * 2u);
    const auto runs = grid.expand();
    ASSERT_EQ(runs.size(), 4u);
    // workload varies slower than load.
    EXPECT_EQ(runs[0].config.workload, WorkloadKind::Open);
    EXPECT_EQ(runs[1].config.workload, WorkloadKind::Open);
    EXPECT_EQ(runs[2].config.workload, WorkloadKind::RequestReply);
    EXPECT_EQ(runs[3].config.workload, WorkloadKind::RequestReply);
    EXPECT_THROW(applyGridSpec("workload=closed", grid), ConfigError);
}

TEST(GridSpec, ParsesFaultAxes)
{
    CampaignGrid grid;
    applyGridSpec("faults=0,1,2,4; fault-seed=7,8; load=0.2", grid);
    EXPECT_EQ(grid.axes.faultCounts, (std::vector<int>{0, 1, 2, 4}));
    EXPECT_EQ(grid.axes.faultSeeds,
              (std::vector<std::uint64_t>{7, 8}));
    EXPECT_EQ(grid.axes.runCount(), 4u * 2u * 1u);
    const auto runs = grid.expand();
    ASSERT_EQ(runs.size(), 8u);
    // fault-seed varies faster than faults; load fastest of all.
    EXPECT_EQ(runs[0].config.faultCount, 0);
    EXPECT_EQ(runs[0].config.faultSeed, 7u);
    EXPECT_EQ(runs[1].config.faultSeed, 8u);
    EXPECT_EQ(runs[2].config.faultCount, 1);
    EXPECT_THROW(applyGridSpec("faults=-1", grid), ConfigError);
    EXPECT_THROW(applyGridSpec("faults=x", grid), ConfigError);
    EXPECT_THROW(applyGridSpec("fault-seed=y", grid), ConfigError);
    // strtoull would silently wrap "-1" to 2^64-1; must be rejected.
    EXPECT_THROW(applyGridSpec("fault-seed=-1", grid), ConfigError);
    EXPECT_THROW(
        applyGridSpec("fault-seed=99999999999999999999999", grid),
        ConfigError);
    EXPECT_THROW(applyGridSpec("msglen=99999999999", grid),
                 ConfigError);
}

/** Drive CampaignCli::consume like main() would. */
bool
consumeFlags(CampaignCli& cli, std::vector<std::string> args)
{
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("test"));
    for (std::string& a : args)
        argv.push_back(a.data());
    for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
        if (!cli.consume(static_cast<int>(argv.size()), argv.data(),
                         i)) {
            return false;
        }
    }
    return true;
}

TEST(CampaignCliFlags, HotspotFracRejectsGarbageAndOutOfRange)
{
    // std::atof used to turn garbage into 0.0 and silently run a
    // uniform-ish campaign; the checked parser must name the flag.
    // "nan" parses as a double but must fail the range check — NaN
    // compares false to both bounds, so the naive check missed it.
    for (const char* bad :
         {"x", "0.5x", "", "1.5", "-0.1", "nan", "inf", "nan0"}) {
        CampaignCli cli;
        try {
            consumeFlags(cli, {"--hotspot-frac", bad});
            FAIL() << "accepted --hotspot-frac " << bad;
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("--hotspot-frac"),
                      std::string::npos)
                << e.what();
        }
    }
    CampaignCli cli;
    EXPECT_TRUE(consumeFlags(cli, {"--hotspot-frac", "0.25"}));
    EXPECT_DOUBLE_EQ(cli.base.hotspot.fraction, 0.25);
}

TEST(CampaignCliFlags, LoadRejectsGarbage)
{
    CampaignCli cli;
    EXPECT_THROW(consumeFlags(cli, {"--load", "fast"}), ConfigError);
    EXPECT_THROW(consumeFlags(cli, {"--load", "0"}), ConfigError);
    EXPECT_TRUE(consumeFlags(cli, {"--load", "0.4"}));
    EXPECT_DOUBLE_EQ(cli.base.normalizedLoad, 0.4);
}

TEST(CampaignCliFlags, MeshRejectsGarbageNamingFlagAndSpec)
{
    // Trailing text, empty parts, signs, whitespace, radix < 2 and
    // overflow are all refused (never read as a nearby valid mesh),
    // and the error names both the flag and the whole spec.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"16x16abc",
         "bad --mesh value '16x16abc' (radix '16abc' is not an "
         "integer; want KxK[xK], each K an integer >= 2)"},
        {"4x4x",
         "bad --mesh value '4x4x' (empty radix; want KxK[xK], each K "
         "an integer >= 2)"},
        {"4x+4",
         "bad --mesh value '4x+4' (radix '+4' is not an integer; want "
         "KxK[xK], each K an integer >= 2)"},
        {"4x 4",
         "bad --mesh value '4x 4' (radix ' 4' is not an integer; want "
         "KxK[xK], each K an integer >= 2)"},
        {"1x4",
         "bad --mesh value '1x4' (radix '1' is below 2; want KxK[xK], "
         "each K an integer >= 2)"},
        {"4x99999999999",
         "bad --mesh value '4x99999999999' (radix '99999999999' is out "
         "of range; want KxK[xK], each K an integer >= 2)"},
        {"", "bad --mesh value '' (empty radix; want KxK[xK], each K "
             "an integer >= 2)"},
    };
    for (const auto& [spec, wording] : cases) {
        CampaignCli cli;
        try {
            consumeFlags(cli, {"--mesh", spec});
            FAIL() << "accepted --mesh '" << spec << "'";
        } catch (const ConfigError& e) {
            EXPECT_EQ(std::string(e.what()), wording);
        }
    }
    for (const char* spec : {"-4x4", "x4", "4xx4", "4X4", "0x4"}) {
        CampaignCli cli;
        EXPECT_THROW(consumeFlags(cli, {"--mesh", spec}), ConfigError)
            << spec;
    }
    CampaignCli cli;
    EXPECT_TRUE(consumeFlags(cli, {"--mesh", "8x6x2"}));
    EXPECT_EQ(cli.base.radices, (std::vector<int>{8, 6, 2}));
}

TEST(CampaignCliFlags, FaultFlagsReachTheBaseConfig)
{
    CampaignCli cli;
    EXPECT_TRUE(consumeFlags(
        cli, {"--faults", "3", "--fault-seed", "99", "--fault-start",
              "500", "--fault-spacing", "250", "--reconfig-latency",
              "50", "--fault-policy", "drop", "--fail-link",
              "5:1@300", "--repair-link", "5:1@900"}));
    EXPECT_EQ(cli.base.faultCount, 3);
    EXPECT_EQ(cli.base.faultSeed, 99u);
    EXPECT_EQ(cli.base.faultStart, 500u);
    EXPECT_EQ(cli.base.faultSpacing, 250u);
    EXPECT_EQ(cli.base.reconfigLatency, 50u);
    EXPECT_EQ(cli.base.faultPolicy, FaultPolicy::Drop);
    ASSERT_EQ(cli.base.faultEvents.size(), 2u);
    EXPECT_TRUE(cli.base.faultEvents[0].down);
    EXPECT_FALSE(cli.base.faultEvents[1].down);
    EXPECT_THROW(consumeFlags(cli, {"--faults", "-2"}), ConfigError);
    EXPECT_THROW(consumeFlags(cli, {"--fault-policy", "retry"}),
                 ConfigError);
    EXPECT_THROW(consumeFlags(cli, {"--fail-link", "nope"}),
                 ConfigError);
}

} // namespace
} // namespace lapses
