/**
 * @file
 * lapses-perfbench: the wall-clock benchmark driver.
 *
 * Times calls into liblapses' public entry points from outside — the
 * Simulation constructor and run(), expandGrids() and runCampaign(),
 * and, in the traced pass, the layer builders and lookups — and prints
 * line-oriented records that perfbench/run.py turns into metrics:
 *
 *   HOST {json}            build type, compiler, workload threads
 *   STATS <rep> <record>   one statsToJson / campaign JSONL line
 *   REP {json}             one operation: seed, timings, cycles, error
 *   SPANS <path>           where the traced pass wrote its spans
 *   METRIC <name> <value> <unit>
 *
 * Usage:
 *   lapses-perfbench --workload W --seed N --seconds S --trace 0|1
 *                    [--pin-seed K] [--spans-out FILE]
 *
 * --trace 0 repeats the workload's operation until S seconds have
 * passed, rotating over the pinned simulation seeds. --trace 1 runs
 * one untraced and one traced operation, then the per-layer probes.
 * --pin-seed K runs the traced pass on simulation seed K (pin refresh).
 * README.md beside this file defines every workload and metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "exp/campaign.hpp"
#include "exp/result_sink.hpp"
#include "router/arbiter.hpp"
#include "selection/selector_factory.hpp"
#include "stats/report.hpp"
#include "tables/table_factory.hpp"

using namespace lapses;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of the whole process, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Keeps a computed value alive without a volatile store per call. */
template <typename T>
void
keep(const T& value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

// --- Workloads --------------------------------------------------------

/** Simulation seeds with pinned statistics (perfbench/pins.json).
 *  Operation i of a run with --seed N uses kSimSeeds[(N + i) % 4], so
 *  every run covers the same inputs in a seed-dependent order. */
constexpr std::uint64_t kSimSeeds[] = {1, 2, 3, 4};
constexpr std::size_t kNumSimSeeds = std::size(kSimSeeds);

std::uint64_t
simSeedFor(std::uint64_t seed, std::size_t op)
{
    return kSimSeeds[(seed + op) % kNumSimSeeds];
}

/** Every knob the environment could otherwise resolve is explicit. */
SimConfig
pinnedBase(std::uint64_t sim_seed)
{
    SimConfig cfg;
    cfg.seed = sim_seed;
    cfg.kernel = KernelKind::Active;
    cfg.intraJobs = 1;
    cfg.maxBatchCycles = cfg.linkDelay + 1;
    return cfg;
}

/** Table 2 defaults, transpose at normalized load 0.3: just under the
 *  knee, where the router pipeline does most of the work. */
SimConfig
kneeConfig(std::uint64_t sim_seed)
{
    SimConfig cfg = pinnedBase(sim_seed);
    cfg.traffic = TrafficKind::Transpose;
    cfg.normalizedLoad = 0.3;
    return cfg;
}

/** 64x64 mesh on the parallel kernel at two shards: table programming
 *  dominates setup, shard stepping and the stats fold the run. Quick
 *  scale keeps a run near setup's length, so a run fits several. */
SimConfig
mesh64Config(std::uint64_t sim_seed)
{
    SimConfig cfg = pinnedBase(sim_seed);
    applyBenchMode(cfg, BenchMode::Quick);
    cfg.radices = {64, 64};
    cfg.normalizedLoad = 0.3;
    cfg.msgLen = 8;
    cfg.kernel = KernelKind::Parallel;
    cfg.intraJobs = 2;
    return cfg;
}

/** Closed-loop request/reply on a 72-router dragonfly with up-down
 *  routing, default servers, window and timeout. */
SimConfig
dragonflyConfig(std::uint64_t sim_seed)
{
    SimConfig cfg = pinnedBase(sim_seed);
    cfg.topology = parseTopologySpec("--topology", "dragonfly6x2x12");
    cfg.workload = WorkloadKind::RequestReply;
    return cfg;
}

/** The paper's Fig. 5 grid in quick mode (bench/fig5_lookahead.cpp):
 *  PROUD/LA-PROUD x XY/Duato x four patterns, full table, static-xy,
 *  every other load of each pattern's axis. */
std::vector<CampaignGrid>
fig5Grids(std::uint64_t campaign_seed)
{
    SimConfig base = pinnedBase(1);
    base.table = TableKind::Full;
    base.selector = SelectorKind::StaticXY;
    applyBenchMode(base, BenchMode::Quick);
    const std::pair<TrafficKind, std::vector<double>> patterns[] = {
        {TrafficKind::Uniform, {0.1, 0.3, 0.5, 0.7, 0.9}},
        {TrafficKind::Transpose, {0.1, 0.3}},
        {TrafficKind::BitReversal, {0.1, 0.3}},
        {TrafficKind::PerfectShuffle, {0.1, 0.3, 0.5}},
    };
    std::vector<CampaignGrid> grids;
    for (const auto& [traffic, loads] : patterns) {
        CampaignGrid grid;
        grid.base = base;
        grid.base.traffic = traffic;
        grid.campaignSeed = campaign_seed;
        grid.axes.models = {RouterModel::Proud, RouterModel::LaProud};
        grid.axes.routings = {RoutingAlgo::DeterministicXY,
                              RoutingAlgo::DuatoFullyAdaptive};
        grid.axes.loads = loads;
        grids.push_back(std::move(grid));
    }
    return grids;
}

constexpr unsigned kCampaignJobs = 2;

struct Workload
{
    const char* name;
    unsigned threads;
    /** Single-run config for a simulation seed; null = the campaign. */
    SimConfig (*config)(std::uint64_t sim_seed);
};

const Workload kWorkloads[] = {
    {"mesh16_transpose_knee", 1, &kneeConfig},
    {"mesh64_uniform_par2", 2, &mesh64Config},
    {"dragonfly72_service", 1, &dragonflyConfig},
    {"campaign_fig5_quick_par2", kCampaignJobs, nullptr},
};

// --- Output -----------------------------------------------------------

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
metric(const char* name, double value, const char* unit)
{
    std::printf("METRIC %s %.17g %s\n", name, value, unit);
}

/** One timed operation: a whole single run, or a whole campaign. */
struct OpResult
{
    std::uint64_t simSeed = 0;
    double setupS = 0.0;
    double runS = 0.0;
    double cpuS = 0.0;
    std::uint64_t cycles = 0; //!< 0 = not observable (campaign e2e)
    std::vector<std::string> records;
    std::string error;
};

void
emitOp(std::size_t rep, const OpResult& r)
{
    for (const std::string& rec : r.records)
        std::printf("STATS %zu %s\n", rep, rec.c_str());
    std::printf("REP {\"rep\":%zu,\"sim_seed\":%llu,\"setup_s\":%.17g,"
                "\"run_s\":%.17g,\"cpu_s\":%.17g,\"cycles\":%llu,"
                "\"error\":%s}\n",
                rep, static_cast<unsigned long long>(r.simSeed),
                r.setupS, r.runS, r.cpuS,
                static_cast<unsigned long long>(r.cycles),
                jsonString(r.error).c_str());
    std::fflush(stdout);
}

// --- End-to-end operations --------------------------------------------

OpResult
runSingle(const SimConfig& cfg)
{
    OpResult r;
    r.simSeed = cfg.seed;
    try {
        const auto t0 = Clock::now();
        Simulation sim(cfg);
        r.setupS = secondsSince(t0);
        const double c0 = cpuSeconds();
        const auto t1 = Clock::now();
        const SimStats stats = sim.run();
        r.runS = secondsSince(t1);
        r.cpuS = cpuSeconds() - c0;
        r.cycles = sim.network().now();
        r.records.push_back(statsToJson(stats));
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    return r;
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Grid expansion (which validates every config) takes microseconds;
 *  its setup time is the median of this many expansions. */
constexpr int kExpansionRepeats = 51;

OpResult
runCampaignOp(std::uint64_t campaign_seed)
{
    OpResult r;
    r.simSeed = campaign_seed;
    try {
        const std::vector<CampaignGrid> grids = fig5Grids(campaign_seed);
        std::vector<CampaignRun> runs;
        std::vector<double> setups;
        for (int i = 0; i < kExpansionRepeats; ++i) {
            const auto t0 = Clock::now();
            runs = expandGrids(grids);
            setups.push_back(secondsSince(t0));
        }
        r.setupS = median(setups);
        CampaignOptions opts;
        opts.jobs = kCampaignJobs;
        std::ostringstream out;
        JsonlSink sink(out);
        const double c0 = cpuSeconds();
        const auto t1 = Clock::now();
        runCampaign(runs, opts, {&sink});
        r.runS = secondsSince(t1);
        r.cpuS = cpuSeconds() - c0;
        r.records = splitLines(out.str());
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    return r;
}

OpResult
runOp(const Workload& w, std::uint64_t sim_seed)
{
    return w.config != nullptr ? runSingle(w.config(sim_seed))
                               : runCampaignOp(sim_seed);
}

// --- Traced pass ------------------------------------------------------

/** In-memory spans around public calls, written out at the end. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    int
    open(const char* name, int parent = -1)
    {
        spans_.push_back({name, parent, Clock::now(), {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Closes span id; returns its duration in seconds. */
    double
    close(int id)
    {
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.end = Clock::now();
        return std::chrono::duration<double>(s.end - s.start).count();
    }

    /** Total seconds of every span called name. */
    double
    total(const std::string& name) const
    {
        double sum = 0.0;
        for (const Span& s : spans_) {
            if (name == s.name)
                sum += std::chrono::duration<double>(s.end - s.start)
                           .count();
        }
        return sum;
    }

    void
    write(const std::string& path) const
    {
        std::ofstream out(path);
        auto ns = [this](Clock::time_point t) {
            return static_cast<long long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - origin_)
                    .count());
        };
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "{\"id\":" << i << ",\"name\":\"" << s.name
                << "\",\"parent\":" << s.parent
                << ",\"start_ns\":" << ns(s.start)
                << ",\"end_ns\":" << ns(s.end) << "}\n";
        }
    }

  private:
    struct Span
    {
        const char* name;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Counters summed over the traced runs. */
struct LayerTotals
{
    std::uint64_t runs = 0;
    std::uint64_t inferredSaturated = 0;
    std::uint64_t cycles = 0;
    Network::KernelCounters kernel;
    double shardImbalance = 1.0;
    std::uint64_t issued = 0;
    std::uint64_t retries = 0;
    std::uint64_t completed = 0;
    std::uint64_t duplicateReplies = 0;
    double seriesMaxS = 0.0;
};

/** One run under spans: the three layer builds timed on their own
 *  (the Simulation constructor repeats them internally), then the
 *  constructor and run(). Returns the stats; adds counters to tot. */
SimStats
tracedRun(const SimConfig& cfg, SpanLog& spans, int parent,
          LayerTotals& tot, OpResult& op)
{
    int id = spans.open("topology.build", parent);
    const Topology topo = buildTopology(cfg);
    spans.close(id);
    id = spans.open("routing.build", parent);
    const RoutingAlgorithmPtr algo = makeRoutingAlgorithm(cfg.routing, topo);
    spans.close(id);
    id = spans.open("tables.program", parent);
    const RoutingTablePtr table = makeRoutingTable(cfg.table, topo, *algo);
    spans.close(id);

    id = spans.open("sim.construct", parent);
    Simulation sim(cfg);
    op.setupS += spans.close(id);
    const double c0 = cpuSeconds();
    id = spans.open("sim.run", parent);
    const SimStats stats = sim.run();
    op.runS += spans.close(id);
    op.cpuS += cpuSeconds() - c0;

    Network& net = sim.network();
    op.cycles += net.now();
    ++tot.runs;
    tot.cycles += net.now();
    const Network::KernelCounters kc = net.kernelCounters();
    tot.kernel.nicSteps += kc.nicSteps;
    tot.kernel.routerSteps += kc.routerSteps;
    tot.kernel.wireEventsDelivered += kc.wireEventsDelivered;
    tot.kernel.fastForwardedCycles += kc.fastForwardedCycles;
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (std::size_t s = 0; s < net.shardCount(); ++s) {
        const Network::KernelCounters& sc = net.shardCounters(s);
        const std::uint64_t steps = sc.nicSteps + sc.routerSteps;
        lo = std::min(lo, steps);
        hi = std::max(hi, steps);
    }
    if (lo > 0)
        tot.shardImbalance =
            std::max(tot.shardImbalance,
                     static_cast<double>(hi) / static_cast<double>(lo));
    const Network::WorkloadCounters wc = net.workloadCounters();
    tot.issued += wc.issued;
    tot.retries += wc.retries;
    tot.completed += wc.completed;
    tot.duplicateReplies += wc.duplicateReplies;
    return stats;
}

/** Replays cfg for `cycles` simulated cycles in stepCycles chunks,
 *  reading the network counters between chunks. */
struct Replay
{
    double chunkS = 0.0;
    std::uint64_t steps = 0;
    double occupancyMean = 0.0;
    double backlogMean = 0.0;
};

Replay
replay(const SimConfig& cfg, std::uint64_t cycles, SpanLog& spans)
{
    constexpr Cycle kChunk = 64;
    Replay out;
    int id = spans.open("replay.construct");
    Simulation sim(cfg);
    spans.close(id);
    Network& net = sim.network();
    const Network::KernelCounters before = net.kernelCounters();
    double occupancy = 0.0, backlog = 0.0;
    std::uint64_t samples = 0;
    const int parent = spans.open("replay.run");
    while (net.now() < cycles) {
        const Cycle n = std::min<Cycle>(kChunk, cycles - net.now());
        id = spans.open("network.chunk", parent);
        sim.stepCycles(n);
        out.chunkS += spans.close(id);
        occupancy += static_cast<double>(net.totalOccupancy());
        backlog += static_cast<double>(net.totalBacklog());
        ++samples;
    }
    spans.close(parent);
    const Network::KernelCounters after = net.kernelCounters();
    out.steps = (after.nicSteps - before.nicSteps) +
                (after.routerSteps - before.routerSteps);
    if (samples > 0) {
        out.occupancyMean = occupancy / static_cast<double>(samples);
        out.backlogMean = backlog / static_cast<double>(samples);
    }
    return out;
}

/** Median nanoseconds per call of body(), which makes `calls` calls. */
template <typename Body>
double
nsPerCall(std::size_t calls, Body&& body)
{
    constexpr int kRepeats = 7;
    std::vector<double> ns;
    for (int i = 0; i < kRepeats; ++i) {
        const auto t0 = Clock::now();
        body();
        ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(calls));
    }
    return median(ns);
}

/** route()/lookup()/grant()/select() timed over a seeded sample. */
void
emitLayerProbes(const SimConfig& cfg, std::uint64_t seed)
{
    constexpr std::size_t kSample = 1 << 14;
    const Topology topo = buildTopology(cfg);
    const RoutingAlgorithmPtr algo = makeRoutingAlgorithm(cfg.routing, topo);
    const RoutingTablePtr table = makeRoutingTable(cfg.table, topo, *algo);

    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    while (pairs.size() < kSample) {
        const auto node = static_cast<NodeId>(
            rng.nextBounded(static_cast<std::uint64_t>(topo.numNodes())));
        const NodeId dest = topo.endpoint(static_cast<NodeId>(
            rng.nextBounded(static_cast<std::uint64_t>(topo.numEndpoints()))));
        if (node != dest)
            pairs.emplace_back(node, dest);
    }

    std::uint64_t sink = 0;
    metric("routing.route_ns", nsPerCall(kSample, [&] {
               for (const auto& [node, dest] : pairs)
                   sink += static_cast<std::uint64_t>(
                       algo->route(node, dest).count());
           }),
           "ns");
    metric("tables.lookup_ns", nsPerCall(kSample, [&] {
               for (const auto& [node, dest] : pairs)
                   sink += static_cast<std::uint64_t>(
                       table->lookup(node, dest).count());
           }),
           "ns");

    // Arbiter sized to the router's input VCs, fed seeded request sets.
    const int requesters = topo.numPorts() * cfg.vcsPerPort;
    RoundRobinArbiter arb(requesters);
    std::vector<std::uint64_t> masks(kSample);
    for (std::uint64_t& m : masks)
        m = rng.next64() | 1;
    metric("router.arbiter_grant_ns", nsPerCall(kSample, [&] {
               for (std::uint64_t m : masks) {
                   for (int i = 0; i < requesters; ++i) {
                       if ((m >> (i % 64)) & 1)
                           arb.request(i);
                   }
                   sink += static_cast<std::uint64_t>(arb.grant());
               }
           }),
           "ns");

    // Selector over the table's own candidate sets with seeded port
    // status (free VCs, credits, use counts).
    const PathSelectorPtr selector =
        makePathSelector(cfg.selector, Rng(seed));
    std::vector<std::vector<PortStatus>> sets;
    for (const auto& [node, dest] : pairs) {
        const RouteCandidates rc = table->lookup(node, dest);
        std::vector<PortStatus> set;
        for (int i = 0; i < rc.count(); ++i) {
            PortStatus ps;
            ps.port = rc.at(i);
            ps.freeVcs = static_cast<int>(rng.nextBounded(
                static_cast<std::uint64_t>(cfg.vcsPerPort) + 1));
            ps.totalCredits = static_cast<int>(rng.nextBounded(
                static_cast<std::uint64_t>(cfg.vcsPerPort *
                                           cfg.bufferDepth) + 1));
            ps.activeVcs = cfg.vcsPerPort - ps.freeVcs;
            ps.useCount = rng.nextBounded(1000);
            ps.lastUseCycle = rng.nextBounded(100000);
            set.push_back(ps);
        }
        if (!set.empty())
            sets.push_back(std::move(set));
    }
    metric("selection.select_ns", nsPerCall(sets.size(), [&] {
               for (const std::vector<PortStatus>& set : sets)
                   sink += static_cast<std::uint64_t>(
                       selector->select(set));
           }),
           "ns");
    keep(sink);
}

/** Metrics shared by the single-run and campaign traced passes. */
void
emitLayerMetrics(const SpanLog& spans, const LayerTotals& tot,
                 const Replay& rp, const OpResult& untraced,
                 const OpResult& traced, unsigned threads)
{
    const double topo_s = spans.total("topology.build");
    const double routing_s = spans.total("routing.build");
    const double tables_s = spans.total("tables.program");
    metric("topology.build_s", topo_s, "s");
    metric("routing.build_s", routing_s, "s");
    metric("tables.program_s", tables_s, "s");
    metric("network.build_s",
           spans.total("sim.construct") - topo_s - routing_s - tables_s,
           "s");

    const auto cycles = static_cast<double>(std::max<std::uint64_t>(
        tot.cycles, 1));
    metric("network.cycles", cycles, "cycles");
    metric("network.router_steps_per_cycle",
           static_cast<double>(tot.kernel.routerSteps) / cycles,
           "steps/cycle");
    metric("network.nic_steps_per_cycle",
           static_cast<double>(tot.kernel.nicSteps) / cycles,
           "steps/cycle");
    metric("network.wire_events_per_cycle",
           static_cast<double>(tot.kernel.wireEventsDelivered) / cycles,
           "events/cycle");
    metric("network.fast_forward_frac",
           static_cast<double>(tot.kernel.fastForwardedCycles) / cycles,
           "ratio");
    metric("network.ns_per_step",
           rp.steps > 0 ? rp.chunkS * 1e9 / static_cast<double>(rp.steps)
                        : 0.0,
           "ns");
    metric("network.occupancy_flits_mean", rp.occupancyMean, "flits");
    metric("network.backlog_msgs_mean", rp.backlogMean, "msgs");
    metric("network.shard_imbalance", tot.shardImbalance, "ratio");

    // Open-loop traffic retries nothing and wastes nothing.
    const double attempts = static_cast<double>(tot.issued + tot.retries);
    metric("workload.retry_frac",
           tot.issued > 0 ? static_cast<double>(tot.retries) /
                                static_cast<double>(tot.issued)
                          : 0.0,
           "ratio");
    metric("workload.useful_frac",
           attempts > 0 ? static_cast<double>(tot.completed) / attempts
                        : 1.0,
           "ratio");
    metric("workload.duplicate_replies",
           static_cast<double>(tot.duplicateReplies), "count");

    metric("exp.runs", static_cast<double>(tot.runs), "count");
    metric("exp.runs_inferred_saturated",
           static_cast<double>(tot.inferredSaturated), "count");
    metric("exp.run_setup_s_sum", traced.setupS, "s");
    metric("exp.run_s_sum", traced.runS, "s");
    metric("exp.series_s_max", tot.seriesMaxS, "s");
    metric("exp.busy_frac",
           untraced.cpuS / (static_cast<double>(threads) * untraced.runS),
           "ratio");
}

void
traceSingle(const Workload& w, std::uint64_t sim_seed,
            std::uint64_t probe_seed, SpanLog& spans)
{
    const SimConfig cfg = w.config(sim_seed);
    const OpResult untraced = runSingle(cfg);
    emitOp(0, untraced);

    OpResult traced;
    traced.simSeed = cfg.seed;
    LayerTotals tot;
    Replay rp;
    try {
        const int run = spans.open("exp.run");
        traced.records.push_back(
            statsToJson(tracedRun(cfg, spans, run, tot, traced)));
        spans.close(run);
        tot.seriesMaxS = traced.setupS + traced.runS;
        rp = replay(cfg, tot.cycles, spans);
    } catch (const std::exception& e) {
        traced.error = e.what();
    }
    emitOp(1, traced);

    emitLayerProbes(cfg, probe_seed);
    emitLayerMetrics(spans, tot, rp, untraced, traced, w.threads);
    metric("trace.overhead_frac", traced.runS / untraced.runS - 1.0,
           "ratio");
}

/**
 * The campaign's traced pass: the same runs executed one at a time in
 * run-index order, with runCampaign's saturated-tail inference, so the
 * JSONL it reassembles must equal the pinned campaign output.
 */
void
traceCampaign(const Workload& w, std::uint64_t campaign_seed,
              std::uint64_t probe_seed, SpanLog& spans)
{
    const OpResult untraced = runCampaignOp(campaign_seed);
    emitOp(0, untraced);

    OpResult traced;
    traced.simSeed = campaign_seed;
    LayerTotals tot;
    Replay rp;
    try {
        int id = spans.open("exp.expand");
        const std::vector<CampaignRun> runs =
            expandGrids(fig5Grids(campaign_seed));
        spans.close(id);

        std::map<std::size_t, double> series_s;
        std::map<std::size_t, bool> series_saturated;
        const SimConfig* longest = nullptr;
        std::uint64_t longest_cycles = 0;
        for (const CampaignRun& run : runs) {
            RunResult result;
            result.run = run;
            if (series_saturated[run.series]) {
                result.stats.saturated = true;
                result.inferredSaturated = true;
                ++tot.inferredSaturated;
            } else {
                const std::uint64_t before = traced.cycles;
                const double before_s = traced.setupS + traced.runS;
                const int span = spans.open("exp.run");
                result.stats = tracedRun(run.config, spans, span, tot,
                                         traced);
                spans.close(span);
                series_s[run.series] +=
                    traced.setupS + traced.runS - before_s;
                series_saturated[run.series] = result.stats.saturated;
                if (traced.cycles - before > longest_cycles) {
                    longest_cycles = traced.cycles - before;
                    longest = &run.config;
                }
            }
            traced.records.push_back(runResultJson(result));
        }
        for (const auto& [series, s] : series_s)
            tot.seriesMaxS = std::max(tot.seriesMaxS, s);
        if (longest != nullptr)
            rp = replay(*longest, longest_cycles, spans);
    } catch (const std::exception& e) {
        traced.error = e.what();
    }
    emitOp(1, traced);

    emitLayerProbes(fig5Grids(campaign_seed).front().base, probe_seed);
    emitLayerMetrics(spans, tot, rp, untraced, traced, w.threads);
    // Work against work: the untraced campaign's CPU seconds over both
    // jobs versus the traced constructors and runs on one thread.
    metric("trace.overhead_frac",
           (spans.total("sim.construct") + spans.total("sim.run")) /
                   untraced.cpuS -
               1.0,
           "ratio");
}

// --- Main ---------------------------------------------------------------

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "lapses-perfbench: %s\n"
                 "usage: lapses-perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--pin-seed K] "
                 "[--spans-out FILE]\nworkloads:",
                 msg);
    for (const Workload& w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseU64(const std::string& flag, const std::string& value)
{
    try {
        return parseCheckedU64(flag, value);
    } catch (const std::exception& e) {
        usage(e.what());
    }
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("GCC ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

int
main(int argc, char** argv)
{
    // Knobs the library resolves from the environment (KernelKind::Auto,
    // intraJobs/maxBatch 0, bench mode, campaign jobs and shards). Every
    // workload sets them explicitly; clearing them as well means a stray
    // shell variable can never change what is measured.
    for (const char* var :
         {"LAPSES_KERNEL", "LAPSES_INTRA_JOBS", "LAPSES_MAX_BATCH",
          "LAPSES_BENCH_MODE", "LAPSES_JOBS", "LAPSES_SHARD"}) {
        unsetenv(var);
    }

    std::string workload, spans_out;
    std::uint64_t seed = 0, seconds = 10, trace = 0, pin_seed = 0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = parseU64(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            seconds = parseU64(flag, value);
        } else if (flag == "--trace") {
            trace = parseU64(flag, value);
        } else if (flag == "--pin-seed") {
            pin_seed = parseU64(flag, value);
        } else if (flag == "--spans-out") {
            spans_out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    const Workload* w = nullptr;
    for (const Workload& cand : kWorkloads) {
        if (workload == cand.name)
            w = &cand;
    }
    if (w == nullptr)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!have_seed)
        usage("--seed is required");
    if (trace > 1)
        usage("--trace must be 0 or 1");

    std::printf("HOST {\"build_type\":%s,\"compiler\":%s,\"threads\":%u,"
                "\"workload\":%s}\n",
                jsonString(LAPSES_PERFBENCH_BUILD_TYPE).c_str(),
                jsonString(compilerName()).c_str(), w->threads,
                jsonString(w->name).c_str());

    if (trace == 1 || pin_seed != 0) {
        // --pin-seed runs the traced pass on one simulation seed: its
        // untraced and traced operations must agree, and the campaign's
        // traced path also yields the summed simulated cycles that
        // runCampaign cannot report.
        const std::uint64_t sim_seed =
            pin_seed != 0 ? pin_seed : simSeedFor(seed, 0);
        SpanLog spans;
        if (w->config != nullptr)
            traceSingle(*w, sim_seed, seed, spans);
        else
            traceCampaign(*w, sim_seed, seed, spans);
        if (!spans_out.empty()) {
            spans.write(spans_out);
            std::printf("SPANS %s\n", spans_out.c_str());
        }
    } else {
        const auto start = Clock::now();
        for (std::size_t op = 0;
             op == 0 || secondsSince(start) < static_cast<double>(seconds);
             ++op) {
            emitOp(op, runOp(*w, simSeedFor(seed, op)));
        }
    }
    metric("peak_rss_mb", peakRssMb(), "MB");
    return 0;
}
