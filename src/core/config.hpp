/**
 * @file
 * User-facing simulation configuration (paper Table 2 defaults).
 */

#ifndef LAPSES_CORE_CONFIG_HPP
#define LAPSES_CORE_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "routing/algorithm_factory.hpp"
#include "selection/selector_factory.hpp"
#include "tables/table_factory.hpp"
#include "topology/spec.hpp"
#include "traffic/injection.hpp"
#include "traffic/patterns.hpp"
#include "workload/workload.hpp"

namespace lapses
{

/** Router pipeline model (Fig. 1 vs Fig. 2). */
enum class RouterModel
{
    Proud,   //!< 5-stage pipe, dedicated table-lookup stage
    LaProud, //!< 4-stage pipe, look-ahead routing
};

/** Short identifier, e.g. "la-proud". */
std::string routerModelName(RouterModel m);

/** Contention-free per-hop latency in cycles (pipeline stages + unit
 *  link delay): Table 2's 5 for LA-PROUD, 6 for PROUD. Feeds the span
 *  exporter's transfer/queueing split. */
int contentionFreeHopCycles(RouterModel m);

/** Complete configuration of one simulation point. */
struct SimConfig
{
    // --- Topology (Table 2: 256-node 16x16 mesh) ---
    /** Which port graph the run uses (--topology). Mesh kinds read
     *  radices/torus below; the other kinds carry their own shape. */
    TopologySpec topology;
    std::vector<int> radices = {16, 16};
    bool torus = false;

    // --- Router microarchitecture ---
    RouterModel model = RouterModel::LaProud;
    int vcsPerPort = 4;      //!< Table 2: 4 VCs per physical channel
    int bufferDepth = 20;    //!< Table 2: 20-flit in/out buffers
    /** Escape VCs under Duato's protocol; -1 = automatic (2 for
     *  meta-tables' two-phase escape, 1 otherwise). */
    int escapeVcs = -1;

    // --- Routing ---
    RoutingAlgo routing = RoutingAlgo::DuatoFullyAdaptive;
    TableKind table = TableKind::EconomicalStorage;
    SelectorKind selector = SelectorKind::StaticXY;

    // --- Workload (Table 2) ---
    TrafficKind traffic = TrafficKind::Uniform;
    HotspotOptions hotspot;
    double normalizedLoad = 0.1; //!< fraction of bisection saturation
    int msgLen = 20;             //!< Table 2: 20 flits
    InjectionKind injection = InjectionKind::Exponential;
    BurstOptions burst;          //!< shape of InjectionKind::Bursty

    // --- Closed-loop service workload (src/workload/, DESIGN.md
    // "Closed-loop determinism contract") -------------------------
    /** Open keeps the classic open-loop streams above; RequestReply
     *  turns nodes [0, servers) into servers and every other node
     *  into a windowed request/reply client with deadline timeouts
     *  and seeded retry/backoff. */
    WorkloadKind workload = WorkloadKind::Open;
    /** Cycles a client waits on a reply before timing out. */
    Cycle requestTimeout = 4000;
    /** Retransmissions allowed per request (0 = fail on the first
     *  timeout). */
    int maxRetries = 3;
    /** Base backoff: retry k waits backoffBase << (k-1) cycles plus
     *  seeded jitter in [0, backoffBase). */
    Cycle backoffBase = 64;
    /** Outstanding requests a client keeps in flight. */
    int inflightWindow = 2;
    /** Server nodes (ids [0, servers)); must stay below numNodes. */
    int servers = 8;
    /** Mean request service time at a server. */
    Cycle serviceTime = 16;

    /** True when the closed-loop request/reply engines drive the
     *  NICs. */
    bool
    closedLoop() const
    {
        return workload == WorkloadKind::RequestReply;
    }

    // --- Measurement ---
    // Defaults are smoke-test scale so interactive runs finish in
    // seconds. The paper's Section 2.2 scale (10k warm-up, 400k
    // measured) is applyBenchMode(cfg, BenchMode::Paper), selected by
    // LAPSES_BENCH_MODE=paper or --mode paper on the CLIs.
    std::uint64_t warmupMessages = 1000;
    std::uint64_t measureMessages = 10000;

    // --- Telemetry (DESIGN.md "Telemetry determinism contract") ---
    /** Cycles per telemetry sampling window; 0 = telemetry off. Any
     *  value leaves every statistic byte-identical — the window only
     *  controls when counters are snapshotted (and how idle stretches
     *  are split by the wake source), so it is safe as a campaign
     *  grid axis. */
    Cycle telemetryWindow = 0;

    // --- Dynamic link faults (src/fault/, README "Fault injection") ---
    /** Random link-down events injected mid-run (0 = none). Sites are
     *  derived from faultSeed, event i fires at
     *  faultStart + i * faultSpacing. */
    int faultCount = 0;
    /** Seed of the random fault sites; 0 derives the stream from the
     *  run seed, keeping sharded campaigns byte-identical. */
    std::uint64_t faultSeed = 0;
    Cycle faultStart = 2000;   //!< cycle of the first random fault
    Cycle faultSpacing = 2000; //!< cycles between random faults
    /** Cycles between a fault event and the reconfiguration that
     *  reprograms full tables / re-routes held headers around it. */
    Cycle reconfigLatency = 200;
    /** Drop or reinject the messages a dying link cuts. */
    FaultPolicy faultPolicy = FaultPolicy::Reinject;
    /** Explicit events (CLI --fail-link/--repair-link), merged with
     *  the random ones; validated against the topology at build. */
    std::vector<FaultEvent> faultEvents;

    /** True when any fault event (random or explicit) is configured. */
    bool
    hasFaults() const
    {
        return faultCount > 0 || !faultEvents.empty();
    }

    // --- Safety rails ---
    /** Mean total latency beyond which the run is declared saturated. */
    double latencySatCutoff = 4000.0;
    /** Mean per-node source backlog (messages) declaring saturation. */
    double backlogSatPerNode = 16.0;
    /** Hard cycle cap (counts as saturation if hit). */
    Cycle maxCycles = 5'000'000;
    /** Cycles without any flit movement that trigger the deadlock
     *  watchdog (SimulationError). */
    Cycle deadlockCycles = 50'000;

    std::uint64_t seed = 1;

    /** Simulation kernel: Auto resolves via LAPSES_KERNEL (default
     *  the activity-driven kernel). Results are byte-identical for
     *  every kernel; Scan exists for differential testing, Parallel
     *  shards one run across threads. */
    KernelKind kernel = KernelKind::Auto;

    /** Parallel-kernel worker/shard count (--intra-jobs); 0 = auto
     *  (LAPSES_INTRA_JOBS, else hardware concurrency). Never changes
     *  results — combine with campaign --jobs knowing the effective
     *  thread count is their product. */
    unsigned intraJobs = 0;

    /** Link traversal delay in cycles (Table 2 uses 1). Raising it
     *  deepens wires and widens the parallel kernel's safe batching
     *  lookahead (linkDelay + 1 cycles). */
    Cycle linkDelay = 1;

    /** Parallel-kernel barrier batch cap (--max-batch); 0 = auto
     *  (LAPSES_MAX_BATCH, else linkDelay + 1), clamped to
     *  [1, linkDelay + 1]. 1 restores a barrier every cycle. Never
     *  changes results — only how often the shards rejoin. */
    Cycle maxBatchCycles = 0;

    /** The resolved topology spec: mesh kinds reflect the torus
     *  flag, other kinds pass through. */
    TopologySpec resolvedTopology() const;

    /** Throw ConfigError on inconsistent settings. */
    void validate() const;

    /** One-line description, e.g. for bench output headers. */
    std::string describe() const;
};

/** Build the run's port graph from the resolved topology spec. */
Topology buildTopology(const SimConfig& cfg);

/** Merge the explicit fault events with the seeded random schedule
 *  and validate the whole sequence against `topo` (range checks,
 *  legal transitions, connectivity after every down event); throws
 *  ConfigError. */
FaultSchedule buildFaultSchedule(const SimConfig& cfg,
                                 const Topology& topo);

/** Escape VCs per port (DESIGN.md "Escape-VC discipline"): explicit
 *  cfg.escapeVcs wins; otherwise max(algo.escapeClasses(), 2 for
 *  meta-tables else 1). 1 (unused) when the algorithm has no escape
 *  discipline. Throws ConfigError when no adaptive VC is left. */
int resolveEscapeVcs(const SimConfig& cfg, const RoutingAlgorithm& algo);

} // namespace lapses

#endif // LAPSES_CORE_CONFIG_HPP
