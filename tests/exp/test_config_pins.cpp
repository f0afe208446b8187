/**
 * @file
 * Pins on the campaign's user-visible configuration surface.
 *
 * CoordinateDigest folds every run's record coordinates (the JSONL and
 * CSV prefixes), the CSV header and every --group-by value into FNV-1a
 * digests, over grids that sweep all sixteen grid axes. The digests
 * fix the record bytes, the column order, the run-index -> config
 * mapping (and with it every derived seed) and the --group-by
 * rendering. When a change intentionally alters any of them,
 * regenerate the pins with
 *
 *   LAPSES_GOLDEN_REGEN=1 ./lapses_tests \
 *       --gtest_filter='CoordinateDigest.*'
 *
 * and paste the printed rows over kPinned below.
 *
 * SharedFlags drives each of the base-configuration flags that
 * lapses-sim, lapses-campaign and lapses-merge share with a
 * non-default value, through CampaignCli::consume and through the
 * parser lapses-sim calls, and checks the SimConfig field it sets. It
 * also fixes the set of flags each parser accepts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/campaign_cli.hpp"
#include "exp/config_fields.hpp"
#include "exp/grid_spec.hpp"
#include "exp/merge.hpp"
#include "exp/result_sink.hpp"

namespace lapses
{
namespace
{

/** 64-bit FNV-1a over a sequence of newline-terminated strings. */
class Digest
{
  public:
    void
    fold(const std::string& s)
    {
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
        byte('\n');
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 1099511628211ull;
    }

    std::uint64_t h_ = 14695981039346656037ull;
};

/** Three grids that, between them, give every grid axis at least two
 *  values; msglen and injection share a grid so their nesting order
 *  is pinned. */
std::vector<CampaignRun>
pinnedCampaign()
{
    std::vector<CampaignGrid> grids(3);
    for (CampaignGrid& grid : grids) {
        grid.base.radices = {4, 4};
        grid.campaignSeed = 5;
    }
    applyGridSpec("topology=mesh,torus,fattree4x2; model=proud,la-proud;"
                  "routing=xy,duato; table=full-table,economical-storage;"
                  "selector=static-xy,random; traffic=uniform,transpose;"
                  "load=0.1,0.25",
                  grids[0]);
    applyGridSpec("msglen=4,20; injection=exponential,bursty; vcs=2,4;"
                  "buffers=8,20; escape=-1,1; load=0.1:0.3:0.1",
                  grids[1]);
    grids[2].base.radices = {3, 5};
    grids[2].base.torus = true;
    applyGridSpec("faults=0,2; fault-seed=0,7; telemetry-window=0,64;"
                  "workload=open,request-reply; load=0.05,0.15",
                  grids[2]);
    return expandGrids(grids);
}

/** Every name --group-by accepts. */
const char* const kGroupBy[] = {
    "model",      "routing",    "table",
    "selector",   "traffic",    "injection",
    "msglen",     "vcs",        "buffers",
    "escape",     "escape_vcs", "faults",
    "fault-seed", "fault_seed", "telemetry-window",
    "telemetry_window",         "workload",
    "load",       "mesh",       "topology",
    "series",
};

struct DigestRow
{
    std::string name;
    std::uint64_t digest;
};

std::vector<DigestRow>
computeDigests()
{
    const std::vector<CampaignRun> runs = pinnedCampaign();
    std::vector<DigestRow> rows;
    Digest jsonl;
    Digest csv;
    for (const CampaignRun& run : runs) {
        jsonl.fold(runRecordPrefix(run, SinkFormat::Jsonl));
        csv.fold(runRecordPrefix(run, SinkFormat::Csv));
    }
    rows.push_back({"runs", runs.size()});
    rows.push_back({"jsonl-prefix", jsonl.value()});
    rows.push_back({"csv-prefix", csv.value()});
    Digest header;
    header.fold(campaignCsvHeader());
    rows.push_back({"csv-header", header.value()});
    for (const char* name : kGroupBy) {
        Digest values;
        for (const CampaignRun& run : runs)
            values.fold(runAxisValue(run, name));
        rows.push_back({std::string("group-by:") + name, values.value()});
    }
    return rows;
}

struct PinnedRow
{
    const char* name;
    std::uint64_t digest;
};

// LAPSES_GOLDEN_REGEN=1 prints this table fresh (see file header).
const PinnedRow kPinned[] = {
    {"runs", 0x0000000000000140ull},
    {"jsonl-prefix", 0x6fe0f5ac7cc4f3b4ull},
    {"csv-prefix", 0x28dcaf8ffb94324aull},
    {"csv-header", 0x44e00c669f0026e4ull},
    {"group-by:model", 0x096a6ea34bc11625ull},
    {"group-by:routing", 0xa3dfca7b210b4b45ull},
    {"group-by:table", 0x2cbcf5b170a52225ull},
    {"group-by:selector", 0xbd14a6eee3e848c5ull},
    {"group-by:traffic", 0x5b9709eea0886ba5ull},
    {"group-by:injection", 0xe68b77210a846095ull},
    {"group-by:msglen", 0xacc41719050992e5ull},
    {"group-by:vcs", 0x627b1779da943125ull},
    {"group-by:buffers", 0x95fb55eac7f0e4e5ull},
    {"group-by:escape", 0xc7c744e2ee4c1255ull},
    {"group-by:escape_vcs", 0xc7c744e2ee4c1255ull},
    {"group-by:faults", 0xc2a6370b7d1f60a5ull},
    {"group-by:fault-seed", 0xab36841a21991fc5ull},
    {"group-by:fault_seed", 0xab36841a21991fc5ull},
    {"group-by:telemetry-window", 0x1703f6ef81ca3165ull},
    {"group-by:telemetry_window", 0x1703f6ef81ca3165ull},
    {"group-by:workload", 0x0b59f06bb7f5f645ull},
    {"group-by:load", 0x2e9b691ec67d0565ull},
    {"group-by:mesh", 0xff3c8686b2781065ull},
    {"group-by:topology", 0x5f60db0e4c83fbc5ull},
    {"group-by:series", 0x2763611b7369a6fbull},
};

TEST(CoordinateDigest, RecordsHeaderAndGroupByPinned)
{
    const std::vector<DigestRow> rows = computeDigests();
    if (std::getenv("LAPSES_GOLDEN_REGEN") != nullptr) {
        for (const DigestRow& row : rows) {
            std::printf("    {\"%s\", 0x%016llxull},\n",
                        row.name.c_str(),
                        static_cast<unsigned long long>(row.digest));
        }
        return;
    }
    ASSERT_EQ(rows.size(), std::size(kPinned));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, kPinned[i].name) << "row " << i;
        EXPECT_EQ(rows[i].digest, kPinned[i].digest) << rows[i].name;
    }
}

/** One shared flag, a non-default value and the field it must set. */
struct FlagCase
{
    std::vector<std::string> args;
    std::function<bool(const SimConfig&)> sets;
};

const std::vector<FlagCase>&
sharedFlagCases()
{
    static const std::vector<FlagCase> cases = {
        {{"--mesh", "8x6"},
         [](const SimConfig& c) {
             return c.radices == std::vector<int>{8, 6};
         }},
        {{"--torus"}, [](const SimConfig& c) { return c.torus; }},
        {{"--topology", "torus"},
         [](const SimConfig& c) {
             return c.topology.kind == TopologyKind::Torus && c.torus;
         }},
        {{"--model", "proud"},
         [](const SimConfig& c) { return c.model == RouterModel::Proud; }},
        {{"--vcs", "6"},
         [](const SimConfig& c) { return c.vcsPerPort == 6; }},
        {{"--buffers", "12"},
         [](const SimConfig& c) { return c.bufferDepth == 12; }},
        {{"--escape-vcs", "2"},
         [](const SimConfig& c) { return c.escapeVcs == 2; }},
        {{"--routing", "xy"},
         [](const SimConfig& c) {
             return c.routing == RoutingAlgo::DeterministicXY;
         }},
        {{"--table", "full-table"},
         [](const SimConfig& c) { return c.table == TableKind::Full; }},
        {{"--selector", "lru"},
         [](const SimConfig& c) {
             return c.selector == SelectorKind::Lru;
         }},
        {{"--traffic", "transpose"},
         [](const SimConfig& c) {
             return c.traffic == TrafficKind::Transpose;
         }},
        {{"--load", "0.35"},
         [](const SimConfig& c) { return c.normalizedLoad == 0.35; }},
        {{"--msglen", "7"},
         [](const SimConfig& c) { return c.msgLen == 7; }},
        {{"--injection", "bursty"},
         [](const SimConfig& c) {
             return c.injection == InjectionKind::Bursty;
         }},
        {{"--hotspot-frac", "0.3"},
         [](const SimConfig& c) { return c.hotspot.fraction == 0.3; }},
        {{"--faults", "3"},
         [](const SimConfig& c) { return c.faultCount == 3; }},
        {{"--fault-seed", "99"},
         [](const SimConfig& c) { return c.faultSeed == 99u; }},
        {{"--fault-start", "500"},
         [](const SimConfig& c) { return c.faultStart == 500u; }},
        {{"--fault-spacing", "250"},
         [](const SimConfig& c) { return c.faultSpacing == 250u; }},
        {{"--reconfig-latency", "50"},
         [](const SimConfig& c) { return c.reconfigLatency == 50u; }},
        {{"--fault-policy", "drop"},
         [](const SimConfig& c) {
             return c.faultPolicy == FaultPolicy::Drop;
         }},
        {{"--fail-link", "5:1@300"},
         [](const SimConfig& c) {
             return c.faultEvents.size() == 1 && c.faultEvents[0].down &&
                    c.faultEvents[0].node == 5 &&
                    c.faultEvents[0].port == 1 &&
                    c.faultEvents[0].cycle == 300u;
         }},
        {{"--repair-link", "5:1@900"},
         [](const SimConfig& c) {
             return c.faultEvents.size() == 1 &&
                    !c.faultEvents[0].down &&
                    c.faultEvents[0].cycle == 900u;
         }},
        {{"--warmup", "123"},
         [](const SimConfig& c) { return c.warmupMessages == 123u; }},
        {{"--measure", "4567"},
         [](const SimConfig& c) { return c.measureMessages == 4567u; }},
        {{"--telemetry-window", "64"},
         [](const SimConfig& c) { return c.telemetryWindow == 64u; }},
        {{"--workload", "request-reply"},
         [](const SimConfig& c) {
             return c.workload == WorkloadKind::RequestReply;
         }},
        {{"--request-timeout", "900"},
         [](const SimConfig& c) { return c.requestTimeout == 900u; }},
        {{"--max-retries", "5"},
         [](const SimConfig& c) { return c.maxRetries == 5; }},
        {{"--backoff-base", "32"},
         [](const SimConfig& c) { return c.backoffBase == 32u; }},
        {{"--inflight-window", "4"},
         [](const SimConfig& c) { return c.inflightWindow == 4; }},
        {{"--servers", "3"},
         [](const SimConfig& c) { return c.servers == 3; }},
        {{"--service-time", "9"},
         [](const SimConfig& c) { return c.serviceTime == 9u; }},
        {{"--intra-jobs", "2"},
         [](const SimConfig& c) { return c.intraJobs == 2u; }},
        {{"--mode", "paper"},
         [](const SimConfig& c) {
             return c.warmupMessages == 10000u &&
                    c.measureMessages == 400000u;
         }},
    };
    return cases;
}

/** Feed one flag (and its value) to `consume`, which must take all of
 *  it; returns false when it declines the flag. */
bool
consumeAll(const std::vector<std::string>& args,
           const std::function<bool(int, char**, int&)>& consume)
{
    std::vector<std::string> storage = args;
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("test"));
    for (std::string& a : storage)
        argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    int i = 1;
    if (!consume(argc, argv.data(), i))
        return false;
    EXPECT_EQ(i, argc - 1) << args.front() << " left arguments unread";
    return true;
}

TEST(SharedFlags, EachSetsItsFieldThroughCampaignCli)
{
    ASSERT_EQ(sharedFlagCases().size(), 35u);
    for (const FlagCase& fc : sharedFlagCases()) {
        CampaignCli cli;
        ASSERT_FALSE(fc.sets(cli.base)) << fc.args.front()
                                        << " value is the default";
        ASSERT_TRUE(consumeAll(fc.args, [&](int argc, char** argv,
                                            int& i) {
            return cli.consume(argc, argv, i);
        })) << fc.args.front();
        EXPECT_TRUE(fc.sets(cli.base)) << fc.args.front();
    }
}

TEST(SharedFlags, EachSetsItsFieldThroughTheLapsesSimParser)
{
    for (const FlagCase& fc : sharedFlagCases()) {
        SimConfig cfg;
        ASSERT_TRUE(consumeAll(fc.args, [&](int argc, char** argv,
                                            int& i) {
            return consumeConfigFlag(argc, argv, i, cfg, FlagSet::Sim);
        })) << fc.args.front();
        EXPECT_TRUE(fc.sets(cfg)) << fc.args.front();
    }
}

TEST(SharedFlags, ToolsAcceptExactlyTheSeedFlagSets)
{
    // The shared flags, plus each tool's own configuration flags:
    // lapses-sim's run seed and kernel knobs, the campaign tools'
    // --grid and campaign --seed.
    std::set<std::string> shared;
    for (const FlagCase& fc : sharedFlagCases())
        shared.insert(fc.args.front());
    const std::set<std::string> sim_only = {"--seed", "--link-delay",
                                            "--max-batch"};
    std::set<std::string> table_shared;
    std::set<std::string> table_sim_only;
    for (const ConfigField& f : configFields()) {
        if (f.flag != nullptr)
            (f.simOnly ? table_sim_only : table_shared).insert(f.flag);
    }
    EXPECT_EQ(table_shared, shared);
    EXPECT_EQ(table_sim_only, sim_only);

    const auto campaign_takes = [](std::vector<std::string> args) {
        CampaignCli cli;
        return consumeAll(args, [&](int argc, char** argv, int& i) {
            return cli.consume(argc, argv, i);
        });
    };
    const auto sim_takes = [](std::vector<std::string> args) {
        SimConfig cfg;
        return consumeAll(args, [&](int argc, char** argv, int& i) {
            return consumeConfigFlag(argc, argv, i, cfg, FlagSet::Sim);
        });
    };
    EXPECT_TRUE(campaign_takes({"--grid", "load=0.1"}));
    EXPECT_TRUE(campaign_takes({"--seed", "7"}));
    EXPECT_TRUE(sim_takes({"--seed", "7"}));
    EXPECT_TRUE(sim_takes({"--link-delay", "2"}));
    EXPECT_TRUE(sim_takes({"--max-batch", "2"}));
    for (const char* flag : {"--link-delay", "--max-batch", "--jobs",
                             "--sweep", "--csv", "--json", "--help",
                             "--group-by", "--threads"}) {
        EXPECT_FALSE(campaign_takes({flag, "1"})) << flag;
    }
    for (const char* flag : {"--grid", "--jobs", "--sweep", "--csv",
                             "--json", "--help", "--threads"}) {
        EXPECT_FALSE(sim_takes({flag, "1"})) << flag;
    }
}

} // namespace
} // namespace lapses
