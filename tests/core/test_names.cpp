/**
 * @file
 * Unit tests for the configuration enums' name tables
 * (common/enum_names.hpp): every row round-trips, every value keeps
 * its spelling, help lists every name and default, and every parse
 * error names its flag, grid axis or environment variable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "core/experiment.hpp"
#include "exp/config_fields.hpp"
#include "exp/grid_spec.hpp"
#include "network/network.hpp"

namespace lapses
{
namespace
{

/** The names between "(want " and ")" in a parse error. */
std::vector<std::string>
wantedNames(const std::string& what)
{
    const std::string open = "(want ";
    const std::size_t at = what.find(open);
    if (at == std::string::npos || what.back() != ')')
        return {};
    std::vector<std::string> names;
    std::size_t pos = at + open.size();
    for (std::size_t bar; (bar = what.find('|', pos)) != std::string::npos;
         pos = bar + 1)
        names.push_back(what.substr(pos, bar - pos));
    names.push_back(what.substr(pos, what.size() - 1 - pos));
    return names;
}

/** Walk E's table: names are non-empty and unique, each parses to its
 *  row's value and prints back, and an unknown token's error names
 *  `what`, the token and every name in row order. */
template <typename E>
void
checkTable(const std::string& what)
{
    SCOPED_TRACE(what);
    std::set<std::string> seen;
    std::vector<std::string> names;
    for (const EnumName<E>& row : enumNames(E{})) {
        const std::string name = row.name;
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
        EXPECT_EQ(parseEnum<E>(what, name), row.value) << name;
        EXPECT_EQ(enumName(row.value), name);
        names.push_back(name);
    }
    ASSERT_FALSE(names.empty());
    try {
        (void)parseEnum<E>(what, "no-such-name");
        FAIL() << "accepted no-such-name";
    } catch (const ConfigError& e) {
        const std::string msg = e.what();
        EXPECT_EQ(msg.rfind("bad " + what + " value 'no-such-name' ", 0),
                  0u)
            << msg;
        EXPECT_EQ(wantedNames(msg), names) << msg;
    }
}

TEST(Names, EveryTableRoundTrips)
{
    checkTable<RouterModel>("--model");
    checkTable<RoutingAlgo>("--routing");
    checkTable<TableKind>("table");
    checkTable<SelectorKind>("--selector");
    checkTable<TrafficKind>("traffic");
    checkTable<InjectionKind>("--injection");
    checkTable<WorkloadKind>("workload");
    checkTable<FaultPolicy>("--fault-policy");
    checkTable<BenchMode>("LAPSES_BENCH_MODE");
    checkTable<KernelKind>("LAPSES_KERNEL");
}

/** E's table holds exactly `spelled`, in that order: each value
 *  prints as its spelling and the spelling parses back to it. The
 *  spellings are what records, flags and grid axes print and accept,
 *  so they are written out here rather than read from the table. */
template <typename E>
void
expectSpellings(const std::string& what,
                std::initializer_list<EnumName<E>> spelled)
{
    SCOPED_TRACE(what);
    const auto& table = enumNames(E{});
    ASSERT_EQ(table.size(), spelled.size());
    std::size_t i = 0;
    for (const EnumName<E>& want : spelled) {
        EXPECT_EQ(table[i].value, want.value) << want.name;
        EXPECT_STREQ(table[i].name, want.name);
        EXPECT_EQ(enumName(want.value), want.name);
        EXPECT_EQ(parseEnum<E>(what, want.name), want.value) << want.name;
        ++i;
    }
}

TEST(Names, RouterModelRoundTrip)
{
    expectSpellings<RouterModel>("--model",
                                 {{RouterModel::Proud, "proud"},
                                  {RouterModel::LaProud, "la-proud"}});
}

TEST(Names, RoutingAlgoRoundTrip)
{
    expectSpellings<RoutingAlgo>(
        "--routing",
        {{RoutingAlgo::DeterministicXY, "xy"},
         {RoutingAlgo::DeterministicYX, "yx"},
         {RoutingAlgo::DuatoFullyAdaptive, "duato"},
         {RoutingAlgo::NorthLast, "north-last"},
         {RoutingAlgo::WestFirst, "west-first"},
         {RoutingAlgo::NegativeFirst, "negative-first"},
         {RoutingAlgo::TorusAdaptive, "torus-adaptive"},
         {RoutingAlgo::UpDown, "up-down"},
         {RoutingAlgo::UpDownAdaptive, "up-down-adaptive"}});
}

TEST(Names, TableKindRoundTrip)
{
    expectSpellings<TableKind>(
        "--table", {{TableKind::Full, "full-table"},
                    {TableKind::MetaRowMinimal, "meta-row"},
                    {TableKind::MetaBlockMaximal, "meta-block"},
                    {TableKind::EconomicalStorage, "economical-storage"},
                    {TableKind::Interval, "interval"}});
}

TEST(Names, SelectorKindRoundTrip)
{
    expectSpellings<SelectorKind>("--selector",
                                  {{SelectorKind::StaticXY, "static-xy"},
                                   {SelectorKind::FirstFree, "first-free"},
                                   {SelectorKind::Random, "random"},
                                   {SelectorKind::MinMux, "min-mux"},
                                   {SelectorKind::Lfu, "lfu"},
                                   {SelectorKind::Lru, "lru"},
                                   {SelectorKind::MaxCredit, "max-credit"}});
}

TEST(Names, TrafficKindRoundTrip)
{
    expectSpellings<TrafficKind>(
        "--traffic", {{TrafficKind::Uniform, "uniform"},
                      {TrafficKind::Transpose, "transpose"},
                      {TrafficKind::BitReversal, "bit-reversal"},
                      {TrafficKind::PerfectShuffle, "perfect-shuffle"},
                      {TrafficKind::BitComplement, "bit-complement"},
                      {TrafficKind::Tornado, "tornado"},
                      {TrafficKind::Neighbor, "neighbor"},
                      {TrafficKind::Hotspot, "hotspot"}});
}

TEST(Names, InjectionKindRoundTrip)
{
    expectSpellings<InjectionKind>(
        "--injection", {{InjectionKind::Exponential, "exponential"},
                        {InjectionKind::Bernoulli, "bernoulli"},
                        {InjectionKind::Bursty, "bursty"}});
}

TEST(Names, WorkloadKindRoundTrip)
{
    expectSpellings<WorkloadKind>(
        "--workload", {{WorkloadKind::Open, "open"},
                       {WorkloadKind::RequestReply, "request-reply"}});
}

TEST(Names, BenchModeRoundTrip)
{
    expectSpellings<BenchMode>("LAPSES_BENCH_MODE",
                               {{BenchMode::Quick, "quick"},
                                {BenchMode::Default, "default"},
                                {BenchMode::Paper, "paper"}});
}

TEST(Names, UnknownNamesListAccepted)
{
    try {
        (void)parseEnum<SelectorKind>("--selector", "speediest");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_STREQ(e.what(),
                     "bad --selector value 'speediest' (want static-xy|"
                     "first-free|random|min-mux|lfu|lru|max-credit)");
    }
}

TEST(Names, CaseSensitiveByDesign)
{
    EXPECT_THROW(parseEnum<RoutingAlgo>("--routing", "Duato"), ConfigError);
    EXPECT_THROW(parseEnum<TableKind>("--table", "FULL-TABLE"), ConfigError);
}

TEST(Names, HelpListsEveryNameAndTheDefault)
{
    // Help reads the names and SimConfig's defaults from the tables;
    // these lines are the parent's, with continuation lines joined
    // (a list wraps after a '|', a note at a space).
    std::string help;
    const std::string indent = "\n" + std::string(23, ' ');
    const std::string raw = configFlagHelp(FlagSet::Sim);
    for (std::size_t pos = 0; pos < raw.size();) {
        const std::size_t at = raw.find(indent, pos);
        help.append(raw, pos, std::min(at, raw.size()) - pos);
        if (at == std::string::npos)
            break;
        if (help.back() != '|')
            help += ' ';
        pos = at + indent.size();
    }
    for (const char* line :
         {"--model M            proud|la-proud [la-proud]",
          "--routing A          xy|yx|duato|north-last|west-first|"
          "negative-first|torus-adaptive|up-down|up-down-adaptive [duato]",
          "--table T            full-table|meta-row|meta-block|"
          "economical-storage|interval [economical-storage]",
          "--selector S         static-xy|first-free|random|min-mux|lfu|"
          "lru|max-credit [static-xy]",
          "--traffic P          uniform|transpose|bit-reversal|"
          "perfect-shuffle|bit-complement|tornado|neighbor|hotspot "
          "[uniform]",
          "--injection I        exponential|bernoulli|bursty [exponential]",
          "--workload W         open|request-reply [open]",
          "--fault-policy P     drop|reinject cut messages [reinject]",
          "--mode M             quick|default|paper preset (paper = "
          "Section 2.2's 10k warm-up / 400k measured)"}) {
        EXPECT_NE(help.find(std::string("\n  ") + line + '\n'),
                  std::string::npos)
            << line;
    }
}

/** The ConfigError message `parse` throws, or "" when it throws none. */
template <typename F>
std::string
errorOf(F parse)
{
    try {
        parse();
    } catch (const ConfigError& e) {
        return e.what();
    }
    return "";
}

TEST(Names, FlagAxisAndVariableErrorsNameTheirSource)
{
    const std::string routings =
        "(want xy|yx|duato|north-last|west-first|negative-first|"
        "torus-adaptive|up-down|up-down-adaptive)";
    EXPECT_EQ(errorOf([] {
                  SimConfig cfg;
                  std::string flag = "--routing", value = "duat0";
                  char* argv[] = {flag.data(), value.data()};
                  int i = 0;
                  consumeConfigFlag(2, argv, i, cfg, FlagSet::Sim);
              }),
              "bad --routing value 'duat0' " + routings);
    EXPECT_EQ(errorOf([] {
                  CampaignGrid grid;
                  applyGridSpec("routing=duat0", grid);
              }),
              "bad routing value 'duat0' " + routings);

    ::setenv("LAPSES_BENCH_MODE", "papers", 1);
    EXPECT_EQ(errorOf([] { (void)benchModeFromEnv(); }),
              "bad LAPSES_BENCH_MODE value 'papers' "
              "(want quick|default|paper)");
    ::unsetenv("LAPSES_BENCH_MODE");

    ::setenv("LAPSES_KERNEL", "sacn", 1);
    EXPECT_EQ(errorOf([] { (void)resolveKernelKind(KernelKind::Auto); }),
              "bad LAPSES_KERNEL value 'sacn' "
              "(want active|scan|parallel)");
    ::unsetenv("LAPSES_KERNEL");
}

} // namespace
} // namespace lapses
