/**
 * @file
 * Unit tests for SimConfig validation and Table 2 defaults.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/config.hpp"

namespace lapses
{
namespace
{

TEST(Config, DefaultsMatchPaperTable2)
{
    const SimConfig cfg;
    // "Mesh Network Size: 256 node (16x16)"
    ASSERT_EQ(cfg.radices.size(), 2u);
    EXPECT_EQ(cfg.radices[0], 16);
    EXPECT_EQ(cfg.radices[1], 16);
    EXPECT_FALSE(cfg.torus);
    // "Message Length: 20 flits"
    EXPECT_EQ(cfg.msgLen, 20);
    // "Inter-arrival time: Exponential distrib."
    EXPECT_EQ(cfg.injection, InjectionKind::Exponential);
    // "In/Out Buffer Size: 20 flits"
    EXPECT_EQ(cfg.bufferDepth, 20);
    // "VCs per PC: 4"
    EXPECT_EQ(cfg.vcsPerPort, 4);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ValidateRejectsBadValues)
{
    // A fresh default config per case.
    SimConfig no_vcs;
    no_vcs.vcsPerPort = 0;
    EXPECT_THROW(no_vcs.validate(), ConfigError);

    SimConfig empty_msg;
    empty_msg.msgLen = 0;
    EXPECT_THROW(empty_msg.validate(), ConfigError);

    // A flit's 16-bit sequence number cannot count a longer message:
    // the NIC's counter wrapped and the message never ended.
    SimConfig long_msg;
    long_msg.msgLen = 65536;
    EXPECT_THROW(long_msg.validate(), ConfigError);
    long_msg.msgLen = 65535;
    EXPECT_NO_THROW(long_msg.validate());

    SimConfig no_load;
    no_load.normalizedLoad = 0.0;
    EXPECT_THROW(no_load.validate(), ConfigError);

    // NaN compares false to every bound and used to slip through.
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
        SimConfig load_cfg;
        load_cfg.normalizedLoad = bad;
        EXPECT_THROW(load_cfg.validate(), ConfigError) << bad;
    }

    SimConfig no_buffer;
    no_buffer.bufferDepth = 0;
    EXPECT_THROW(no_buffer.validate(), ConfigError);

    SimConfig no_measure;
    no_measure.measureMessages = 0;
    EXPECT_THROW(no_measure.validate(), ConfigError);

    SimConfig no_radices;
    no_radices.radices.clear();
    EXPECT_THROW(no_radices.validate(), ConfigError);
}

TEST(Config, ValidateRejectsBadEscapeVcs)
{
    SimConfig no_escape;
    no_escape.escapeVcs = 0;
    EXPECT_THROW(no_escape.validate(), ConfigError);

    SimConfig all_escape;
    all_escape.escapeVcs = 4; // == vcsPerPort: no adaptive VC left
    EXPECT_THROW(all_escape.validate(), ConfigError);

    SimConfig two_escape;
    two_escape.escapeVcs = 2;
    EXPECT_NO_THROW(two_escape.validate());
}

TEST(Config, RouterModelNames)
{
    EXPECT_EQ(routerModelName(RouterModel::Proud), "proud");
    EXPECT_EQ(routerModelName(RouterModel::LaProud), "la-proud");
}

TEST(Config, DescribeMentionsKeyChoices)
{
    SimConfig cfg;
    cfg.model = RouterModel::LaProud;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    cfg.traffic = TrafficKind::Transpose;
    const std::string d = cfg.describe();
    EXPECT_NE(d.find("16x16 mesh"), std::string::npos);
    EXPECT_NE(d.find("la-proud"), std::string::npos);
    EXPECT_NE(d.find("duato"), std::string::npos);
    EXPECT_NE(d.find("economical-storage"), std::string::npos);
    EXPECT_NE(d.find("transpose"), std::string::npos);
}

TEST(Config, EnumNamesAreStable)
{
    // Bench output and EXPERIMENTS.md rely on these identifiers.
    EXPECT_EQ(routingAlgoName(RoutingAlgo::DuatoFullyAdaptive), "duato");
    EXPECT_EQ(tableKindName(TableKind::EconomicalStorage),
              "economical-storage");
    EXPECT_EQ(selectorKindName(SelectorKind::MaxCredit), "max-credit");
    EXPECT_EQ(trafficKindName(TrafficKind::PerfectShuffle),
              "perfect-shuffle");
}

} // namespace
} // namespace lapses
