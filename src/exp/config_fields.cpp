#include "exp/config_fields.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "core/names.hpp"
#include "exp/result_sink.hpp"
#include "router/flit.hpp"

namespace lapses
{

namespace
{

// Value parsers T(name, token): `name` is the flag or grid axis an
// error names. An axis reads its values with its flag's parser, so
// both accept the same range.

template <int Lo, int Hi = std::numeric_limits<int>::max()>
int
intInRange(const std::string& name, const std::string& token)
{
    return parseCheckedInt(name, token, Lo, Hi);
}

template <int Lo>
int
intAtLeast(const std::string& name, const std::string& token)
{
    return intInRange<Lo>(name, token);
}

double
parseLoad(const std::string& name, const std::string& token)
{
    return parseCheckedDouble(name, token, 1e-9,
                              std::numeric_limits<double>::max());
}

template <auto Field, auto Parse>
void
set(SimConfig& cfg, const std::string& flag, const std::string& value)
{
    cfg.*Field = Parse(flag, value);
}

template <auto Field>
std::string
decimal(const CampaignRun& run)
{
    return std::to_string(run.config.*Field);
}

/**
 * Complete a swept knob's row: the flag parser, the formatter (a
 * number by default) and the axis access over one SimConfig field and
 * its CampaignAxes vector. Members the row already sets are kept.
 */
template <auto Field, auto Values, auto Parse,
          auto Format = decimal<Field>>
constexpr ConfigField
swept(ConfigField row)
{
    row.parse = row.parse ? row.parse : set<Field, Parse>;
    row.format = row.format ? row.format : Format;
    row.ops.size = [](const CampaignAxes& a) { return (a.*Values).size(); };
    if (row.ops.append == nullptr) {
        row.ops.append = [](CampaignAxes& a, const std::string& axis,
                            const std::string& token) {
            (a.*Values).push_back(Parse(axis, token));
        };
    }
    if (row.ops.apply == nullptr) {
        row.ops.apply = [](const CampaignAxes& a, std::size_t k,
                           SimConfig& cfg) { cfg.*Field = (a.*Values)[k]; };
    }
    return row;
}

/** A swept enum knob, parsed and printed (quoted) by name. */
template <auto Field, auto Values, auto Parse, auto Name>
constexpr ConfigField
enumAxis(ConfigField row)
{
    row.quoted = true;
    return swept<Field, Values,
                 [](const std::string&, const std::string& token) {
                     return Parse(token);
                 },
                 [](const CampaignRun& run) -> std::string {
                     return Name(run.config.*Field);
                 }>(row);
}

/** Mesh kinds carry the torus flag in the spec as well. */
void
useTopology(SimConfig& cfg, const TopologySpec& spec)
{
    cfg.topology = spec;
    if (spec.isMeshKind())
        cfg.torus = spec.kind == TopologyKind::Torus;
}

// Help sections, in the order configFlagHelp prints them.
constexpr const char* kTopology =
    "Topology / router (defaults = paper Table 2):";
constexpr const char* kRouting = "Routing:";
constexpr const char* kWorkload = "Workload:";
constexpr const char* kService =
    "Closed-loop service workload (README \"Service workloads\"):";
constexpr const char* kFaults =
    "Dynamic link faults (README \"Fault injection\"):";
constexpr const char* kMeasurement = "Measurement:";

using Run = CampaignRun;
using Args = const std::string&;

const ConfigField kFields[] = {
    {.column = "run",
     .format = [](const Run& r) { return std::to_string(r.index); }},
    {.column = "series",
     .format = [](const Run& r) { return std::to_string(r.series); }},
    {.flag = "--mesh", .metavar = "KxK[xK]", .section = kTopology,
     .help = "mesh radices [16x16]", .column = "mesh", .quoted = true,
     .parse = set<&SimConfig::radices, parseMeshRadices>,
     .format = [](const Run& r) { return meshName(r.config); }},
    swept<&SimConfig::topology, &CampaignAxes::topologies,
          parseTopologySpec, nullptr>(
        {.flag = "--topology", .metavar = "T", .section = kTopology,
         .help = "mesh|torus|fattreeKxN|dragonflyAxHxG|\n"
                 "file:PATH (README \"Topologies\") [mesh]",
         .column = "topology", .quoted = true, .axis = "topology", .nest = 0,
         .parse = [](SimConfig& c, Args f, Args v) {
             useTopology(c, parseTopologySpec(f, v));
         },
         .format = [](const Run& r) { return topologyName(r.config); },
         .ops = {.apply = [](const CampaignAxes& a, std::size_t k,
                             SimConfig& c) {
             useTopology(c, a.topologies[k]);
         }}}),
    {.flag = "--torus", .section = kTopology,
     .help = "wrap links (use --routing torus-adaptive)",
     .parse = [](SimConfig& c, Args, Args) { c.torus = true; }},
    enumAxis<&SimConfig::model, &CampaignAxes::models, parseRouterModel,
             routerModelName>(
        {.flag = "--model", .metavar = "M", .section = kTopology,
         .help = "proud|la-proud [la-proud]", .column = "model",
         .axis = "model", .nest = 1}),
    enumAxis<&SimConfig::routing, &CampaignAxes::routings, parseRoutingAlgo,
             routingAlgoName>(
        {.flag = "--routing", .metavar = "A", .section = kRouting,
         .help = "xy|yx|duato|north-last|west-first|negative-first|\n"
                 "torus-adaptive|up-down|up-down-adaptive [duato]",
         .column = "routing", .axis = "routing", .nest = 2}),
    enumAxis<&SimConfig::table, &CampaignAxes::tables, parseTableKind,
             tableKindName>(
        {.flag = "--table", .metavar = "T", .section = kRouting,
         .help = "full-table|meta-row|meta-block|\n"
                 "economical-storage|interval [economical-storage]",
         .column = "table", .axis = "table", .nest = 3}),
    enumAxis<&SimConfig::selector, &CampaignAxes::selectors,
             parseSelectorKind, selectorKindName>(
        {.flag = "--selector", .metavar = "S", .section = kRouting,
         .help = "static-xy|first-free|random|min-mux|\n"
                 "lfu|lru|max-credit [static-xy]",
         .column = "selector", .axis = "selector", .nest = 4}),
    enumAxis<&SimConfig::traffic, &CampaignAxes::traffics, parseTrafficKind,
             trafficKindName>(
        {.flag = "--traffic", .metavar = "P", .section = kWorkload,
         .help = "uniform|transpose|bit-reversal|perfect-shuffle|\n"
                 "bit-complement|tornado|neighbor|hotspot [uniform]",
         .column = "traffic", .axis = "traffic", .nest = 5}),
    enumAxis<&SimConfig::injection, &CampaignAxes::injections,
             parseInjectionKind, injectionKindName>(
        {.flag = "--injection", .metavar = "I", .section = kWorkload,
         .help = "exponential|bernoulli|bursty [exponential]",
         .column = "injection", .axis = "injection", .nest = 7}),
    swept<&SimConfig::msgLen, &CampaignAxes::msgLens,
          intInRange<1, kMaxMsgLen>>(
        {.flag = "--msglen", .metavar = "N", .section = kWorkload,
         .help = "flits per message [20]", .column = "msglen",
         .axis = "msglen", .nest = 6}),
    swept<&SimConfig::vcsPerPort, &CampaignAxes::vcCounts,
          intAtLeast<1>>(
        {.flag = "--vcs", .metavar = "N", .section = kTopology,
         .help = "VCs per channel [4]", .column = "vcs", .axis = "vcs",
         .nest = 8}),
    swept<&SimConfig::bufferDepth, &CampaignAxes::bufferDepths,
          intAtLeast<1>>(
        {.flag = "--buffers", .metavar = "N", .section = kTopology,
         .help = "buffer depth in flits [20]", .column = "buffers",
         .axis = "buffers", .nest = 9}),
    swept<&SimConfig::escapeVcs, &CampaignAxes::escapeVcs,
          intAtLeast<-1>>(
        {.flag = "--escape-vcs", .metavar = "N", .section = kTopology,
         .help = "escape VCs (-1 = auto) [-1]", .column = "escape_vcs",
         .axis = "escape", .nest = 10}),
    swept<&SimConfig::faultCount, &CampaignAxes::faultCounts,
          intAtLeast<0>>(
        {.flag = "--faults", .metavar = "N", .section = kFaults,
         .help = "random mid-run link failures [0]", .column = "faults",
         .axis = "faults", .nest = 11}),
    swept<&SimConfig::faultSeed, &CampaignAxes::faultSeeds,
          parseCheckedU64>(
        {.flag = "--fault-seed", .metavar = "N", .section = kFaults,
         .help = "fault-site seed (0 = derive from run seed) [0]",
         .column = "fault_seed", .axis = "fault-seed", .nest = 12}),
    {.flag = "--fault-start", .metavar = "N", .section = kFaults,
     .help = "cycle of the first random fault [2000]",
     .parse = set<&SimConfig::faultStart, parseCheckedU64>},
    {.flag = "--fault-spacing", .metavar = "N", .section = kFaults,
     .help = "cycles between random faults [2000]",
     .parse = set<&SimConfig::faultSpacing, parseCheckedU64>},
    {.flag = "--fail-link", .metavar = "n:p@c", .section = kFaults,
     .help = "fail node n's port-p link at cycle c (repeatable)",
     .parse = [](SimConfig& c, Args, Args v) {
         c.faultEvents.push_back(parseFaultEvent(v, true));
     }},
    {.flag = "--repair-link", .metavar = "n:p@c", .section = kFaults,
     .help = "bring a failed link back up",
     .parse = [](SimConfig& c, Args, Args v) {
         c.faultEvents.push_back(parseFaultEvent(v, false));
     }},
    {.flag = "--reconfig-latency", .metavar = "N", .section = kFaults,
     .help = "cycles before tables reprogram [200]",
     .parse = set<&SimConfig::reconfigLatency, parseCheckedU64>},
    {.flag = "--fault-policy", .metavar = "P", .section = kFaults,
     .help = "drop|reinject cut messages [reinject]",
     .parse = [](SimConfig& c, Args, Args v) {
         c.faultPolicy = parseFaultPolicy(v);
     }},
    {.flag = "--mode", .metavar = "M", .section = kMeasurement,
     .help = "quick|default|paper preset (paper = Section\n"
             "2.2's 10k warm-up / 400k measured)",
     .parse = [](SimConfig& c, Args, Args v) {
         applyBenchMode(c, parseBenchModeName(v));
     }},
    swept<&SimConfig::telemetryWindow, &CampaignAxes::telemetryWindows,
          parseCheckedU64>(
        {.flag = "--telemetry-window", .metavar = "N",
         .section = kMeasurement,
         .help = "cycles per telemetry window (0 = off;\n"
                 "never changes results) [0]",
         .column = "telemetry_window", .axis = "telemetry-window",
         .nest = 13}),
    enumAxis<&SimConfig::workload, &CampaignAxes::workloads,
             parseWorkloadKind, workloadKindName>(
        {.flag = "--workload", .metavar = "W", .section = kService,
         .help = "open|request-reply [open]", .column = "workload",
         .axis = "workload", .nest = 14}),
    {.flag = "--servers", .metavar = "N", .section = kService,
     .help = "server nodes (ids 0..N-1) [8]",
     .parse = set<&SimConfig::servers, intAtLeast<1>>},
    {.flag = "--inflight-window", .metavar = "N", .section = kService,
     .help = "requests a client keeps in flight [2]",
     .parse = set<&SimConfig::inflightWindow, intAtLeast<1>>},
    {.flag = "--request-timeout", .metavar = "N", .section = kService,
     .help = "cycles before a timeout [4000]",
     .parse = set<&SimConfig::requestTimeout, parseCheckedU64>},
    {.flag = "--max-retries", .metavar = "N", .section = kService,
     .help = "retries before a request counts as failed [3]",
     .parse = set<&SimConfig::maxRetries, intAtLeast<0>>},
    {.flag = "--backoff-base", .metavar = "N", .section = kService,
     .help = "first retry delay; doubles, plus jitter [64]",
     .parse = set<&SimConfig::backoffBase, parseCheckedU64>},
    {.flag = "--service-time", .metavar = "N", .section = kService,
     .help = "mean server service delay [16]",
     .parse = set<&SimConfig::serviceTime, parseCheckedU64>},
    swept<&SimConfig::normalizedLoad, &CampaignAxes::loads, parseLoad,
          nullptr>(
        {.flag = "--load", .metavar = "X", .section = kWorkload,
         .help = "normalized load [0.1]", .column = "load", .axis = "load",
         .nest = 15,
         // "%g" is `std::ostream << double` at its default precision,
         // the rendering every record and --group-by value uses.
         .format = [](const Run& r) {
             char buf[32];
             std::snprintf(buf, sizeof(buf), "%g", r.config.normalizedLoad);
             return std::string(buf);
         },
         // A token is a plain load or a LO:HI:STEP range.
         .ops = {.append = [](CampaignAxes& a, Args axis, Args token) {
             if (token.find(':') == std::string::npos) {
                 a.loads.push_back(parseLoad(axis, token));
                 return;
             }
             for (double load : parseLoadRange(axis, token))
                 a.loads.push_back(load);
         }}}),
    {.flag = "--hotspot-frac", .metavar = "X", .section = kWorkload,
     .help = "hotspot fraction [0.1]",
     .parse = [](SimConfig& c, Args f, Args v) {
         c.hotspot.fraction = parseCheckedDouble(f, v, 0.0, 1.0);
     }},
    {.flag = "--seed", .metavar = "N", .section = kMeasurement,
     .help = "RNG seed [1]", .simOnly = true, .column = "seed",
     .parse = set<&SimConfig::seed, parseCheckedU64>,
     .format = decimal<&SimConfig::seed>},
    {.flag = "--warmup", .metavar = "N", .section = kMeasurement,
     .help = "warm-up messages [1000]", .column = "warmup",
     .parse = set<&SimConfig::warmupMessages, parseCheckedU64>,
     .format = decimal<&SimConfig::warmupMessages>},
    {.flag = "--measure", .metavar = "N", .section = kMeasurement,
     .help = "measured messages [10000]", .column = "measure",
     .parse = set<&SimConfig::measureMessages, parseCheckedU64>,
     .format = decimal<&SimConfig::measureMessages>},
    {.flag = "--intra-jobs", .metavar = "N", .section = kMeasurement,
     .help = "shard threads per run under LAPSES_KERNEL=\n"
             "parallel (0 = auto); never changes results [0]",
     .parse = [](SimConfig& c, Args f, Args v) {
         c.intraJobs = static_cast<unsigned>(intAtLeast<0>(f, v));
     }},
    {.flag = "--link-delay", .metavar = "N", .section = kMeasurement,
     .help = "link traversal cycles (widens batching) [1]",
     .simOnly = true,
     .parse = [](SimConfig& c, Args f, Args v) {
         c.linkDelay = static_cast<Cycle>(parseCheckedInt(f, v, 1, 64));
     }},
    {.flag = "--max-batch", .metavar = "N", .section = kMeasurement,
     .help = "cycles per kernel barrier (0 = auto: link\n"
             "delay + 1); never changes results [0]",
     .simOnly = true,
     .parse = set<&SimConfig::maxBatchCycles, parseCheckedU64>},
};

/** Help descriptions start at this column; lists wrap before 72. */
constexpr std::size_t kHelpColumn = 23;
constexpr std::size_t kHelpWidth = 72;

} // namespace

std::span<const ConfigField>
configFields()
{
    return kFields;
}

const std::vector<const ConfigField*>&
gridAxes()
{
    static const std::vector<const ConfigField*> axes = [] {
        std::vector<const ConfigField*> v;
        for (const ConfigField& f : kFields) {
            if (f.axis != nullptr)
                v.push_back(&f);
        }
        std::sort(v.begin(), v.end(), [](const auto* a, const auto* b) {
            return a->nest < b->nest;
        });
        return v;
    }();
    return axes;
}

const ConfigField*
findCoordinate(const std::string& name)
{
    for (const ConfigField& f : kFields) {
        if (f.column != nullptr &&
            (name == f.column || (f.axis != nullptr && name == f.axis)))
            return &f;
    }
    return nullptr;
}

std::string
gridAxisNames()
{
    std::string names;
    for (const ConfigField* f : gridAxes())
        names += std::string(names.empty() ? "" : "|") + f->axis;
    return names;
}

std::string
coordinateNames()
{
    std::string names;
    for (const ConfigField& f : kFields) {
        if (f.column == nullptr)
            continue;
        names += std::string(names.empty() ? "" : "|") + f.column;
        if (f.axis != nullptr && std::string(f.axis) != f.column)
            names += std::string("|") + f.axis;
    }
    return names;
}

std::string
flagValue(int argc, char** argv, int& i)
{
    if (i + 1 >= argc)
        throw ConfigError("missing value for " + std::string(argv[i]));
    return argv[++i];
}

bool
consumeConfigFlag(int argc, char** argv, int& i, SimConfig& cfg,
                  FlagSet set)
{
    const std::string arg = argv[i];
    for (const ConfigField& f : kFields) {
        if (f.flag == nullptr || arg != f.flag ||
            (f.simOnly && set != FlagSet::Sim))
            continue;
        f.parse(cfg, arg,
                f.metavar != nullptr ? flagValue(argc, argv, i) : "");
        return true;
    }
    return false;
}

std::string
configFlagHelp(FlagSet set)
{
    std::string help;
    for (const char* section : {kTopology, kRouting, kWorkload, kService,
                                kFaults, kMeasurement}) {
        help += std::string(help.empty() ? "" : "\n") + section + '\n';
        for (const ConfigField& f : kFields) {
            if (f.section != section || (f.simOnly && set != FlagSet::Sim))
                continue;
            std::string line = std::string("  ") + f.flag;
            if (f.metavar != nullptr)
                line += std::string(" ") + f.metavar;
            line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
            for (const char* c = f.help; *c != '\0'; ++c) {
                line += *c;
                if (*c == '\n')
                    line.append(kHelpColumn, ' ');
            }
            help += line + '\n';
        }
    }
    return help;
}

std::string
wrapHelpList(const std::string& names)
{
    const std::string indent(kHelpColumn, ' ');
    std::string out = indent;
    std::size_t width = kHelpColumn;
    for (std::size_t pos = 0; pos < names.size();) {
        const std::size_t end = std::min(names.find('|', pos), names.size());
        const std::size_t len = end + 1 - pos; // with the '|'
        if (width > kHelpColumn && width + len > kHelpWidth) {
            out += '\n' + indent;
            width = kHelpColumn;
        }
        out.append(names, pos, len);
        width += len;
        pos = end + 1;
    }
    return out + '\n';
}

} // namespace lapses
