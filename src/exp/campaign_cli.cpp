#include "exp/campaign_cli.hpp"

#include <limits>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "core/names.hpp"
#include "exp/grid_spec.hpp"

namespace lapses
{

bool
CampaignCli::consume(int argc, char** argv, int& i)
{
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
        if (i + 1 >= argc)
            throw ConfigError("missing value for " + arg);
        return argv[++i];
    };
    const int int_max = std::numeric_limits<int>::max();
    if (arg == "--grid") {
        gridSpecs.push_back(value());
    } else if (arg == "--seed") {
        campaignSeed = parseCheckedU64(arg, value());
    } else if (arg == "--mesh") {
        base.radices = parseMeshRadices(arg, value());
    } else if (arg == "--torus") {
        base.torus = true;
    } else if (arg == "--topology") {
        base.topology = parseTopologySpec(arg, value());
        if (base.topology.isMeshKind())
            base.torus = base.topology.kind == TopologyKind::Torus;
    } else if (arg == "--model") {
        base.model = parseRouterModel(value());
    } else if (arg == "--vcs") {
        base.vcsPerPort = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--buffers") {
        base.bufferDepth = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--escape-vcs") {
        base.escapeVcs = parseCheckedInt(arg, value(), -1, int_max);
    } else if (arg == "--routing") {
        base.routing = parseRoutingAlgo(value());
    } else if (arg == "--table") {
        base.table = parseTableKind(value());
    } else if (arg == "--selector") {
        base.selector = parseSelectorKind(value());
    } else if (arg == "--traffic") {
        base.traffic = parseTrafficKind(value());
    } else if (arg == "--load") {
        base.normalizedLoad = parseCheckedDouble(
            arg, value(), 1e-9, std::numeric_limits<double>::max());
    } else if (arg == "--msglen") {
        base.msgLen = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--injection") {
        base.injection = parseInjectionKind(value());
    } else if (arg == "--hotspot-frac") {
        base.hotspot.fraction =
            parseCheckedDouble(arg, value(), 0.0, 1.0);
    } else if (arg == "--faults") {
        base.faultCount = parseCheckedInt(
            arg, value(), 0, std::numeric_limits<int>::max());
    } else if (arg == "--fault-seed") {
        base.faultSeed = parseCheckedU64(arg, value());
    } else if (arg == "--fault-start") {
        base.faultStart = parseCheckedU64(arg, value());
    } else if (arg == "--fault-spacing") {
        base.faultSpacing = parseCheckedU64(arg, value());
    } else if (arg == "--reconfig-latency") {
        base.reconfigLatency = parseCheckedU64(arg, value());
    } else if (arg == "--fault-policy") {
        base.faultPolicy = parseFaultPolicy(value());
    } else if (arg == "--fail-link") {
        base.faultEvents.push_back(parseFaultEvent(value(), true));
    } else if (arg == "--repair-link") {
        base.faultEvents.push_back(parseFaultEvent(value(), false));
    } else if (arg == "--warmup") {
        base.warmupMessages = parseCheckedU64(arg, value());
    } else if (arg == "--measure") {
        base.measureMessages = parseCheckedU64(arg, value());
    } else if (arg == "--telemetry-window") {
        base.telemetryWindow = parseCheckedU64(arg, value());
    } else if (arg == "--workload") {
        base.workload = parseWorkloadKind(value());
    } else if (arg == "--request-timeout") {
        base.requestTimeout = parseCheckedU64(arg, value());
    } else if (arg == "--max-retries") {
        base.maxRetries = parseCheckedInt(arg, value(), 0, int_max);
    } else if (arg == "--backoff-base") {
        base.backoffBase = parseCheckedU64(arg, value());
    } else if (arg == "--inflight-window") {
        base.inflightWindow = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--servers") {
        base.servers = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--service-time") {
        base.serviceTime = parseCheckedU64(arg, value());
    } else if (arg == "--intra-jobs") {
        base.intraJobs = static_cast<unsigned>(parseCheckedInt(
            arg, value(), 0, std::numeric_limits<int>::max()));
    } else if (arg == "--mode") {
        applyBenchMode(base, parseBenchModeName(value()));
    } else {
        return false;
    }
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

const char*
campaignCliHelp()
{
    return "Campaign definition (identical for lapses-campaign and "
           "lapses-merge):\n"
           "  --grid SPEC          axes as 'axis=v1,v2;axis=v1' "
           "clauses;\n"
           "                       axes: topology|model|routing|table|\n"
           "                       selector|traffic|injection|msglen|"
           "vcs|\n"
           "                       buffers|escape|faults|fault-seed|\n"
           "                       telemetry-window|workload|load "
           "(load takes\n"
           "                       LO:HI:STEP ranges); repeat --grid\n"
           "                       to join grids\n"
           "  --seed N             campaign seed; run i gets the seed\n"
           "                       derived from (N, i)              "
           "[1]\n"
           "\n"
           "Base configuration (defaults = paper Table 2):\n"
           "  --topology T         mesh|torus|fattreeKxN|"
           "dragonflyAxHxG|\n"
           "                       file:PATH (README \"Topologies\") "
           "[mesh]\n"
           "  --mesh KxK[xK] --torus --model M --vcs N --buffers N\n"
           "  --escape-vcs N --routing A --table T --selector S\n"
           "  --traffic P --load X --msglen N --injection I\n"
           "  --hotspot-frac X --warmup N --measure N\n"
           "  --telemetry-window N cycles per telemetry window (0 =\n"
           "                       off; never changes results)     [0]\n"
           "  --intra-jobs N       shard threads per run under\n"
           "                       LAPSES_KERNEL=parallel (the default\n"
           "                       active kernel is one shard; the\n"
           "                       effective thread count is --jobs\n"
           "                       times this). Never changes\n"
           "                       results                         [0]\n"
           "  --mode quick|default|paper   measurement scale preset\n"
           "\n"
           "Closed-loop service workload (README \"Service "
           "workloads\"):\n"
           "  --workload W         open|request-reply          [open]\n"
           "  --servers N          server nodes (0..N-1 serve) "
           "   [8]\n"
           "  --inflight-window N  requests a client keeps in "
           "flight [2]\n"
           "  --request-timeout N  cycles before a retry is "
           "armed [4000]\n"
           "  --max-retries N      retransmissions before a request\n"
           "                       is counted failed             [3]\n"
           "  --backoff-base N     first backoff delay; doubles per\n"
           "                       retry, plus seeded jitter    [64]\n"
           "  --service-time N     mean server service delay    [16]\n"
           "\n"
           "Dynamic link faults (README \"Fault injection\"):\n"
           "  --faults N           random mid-run link failures\n"
           "  --fault-seed N       fault-site seed (0 = derive from\n"
           "                       the run seed)                  [0]\n"
           "  --fault-start N      cycle of the first random fault\n"
           "                       [2000]\n"
           "  --fault-spacing N    cycles between random faults "
           "[2000]\n"
           "  --fail-link n:p@c    fail node n's port-p link at "
           "cycle c\n"
           "  --repair-link n:p@c  bring a failed link back up\n"
           "  --reconfig-latency N cycles before tables reprogram "
           "[200]\n"
           "  --fault-policy P     drop|reinject cut messages "
           "[reinject]\n";
}

} // namespace lapses
