/**
 * @file
 * Google-benchmark microbenchmarks for the router datapath: arbitration
 * (the other critical stage of Section 2.2), path selection, and
 * whole-network cycle throughput of the simulator.
 *
 * The BM_Kernel* cases compare the activity-driven kernel against the
 * scan kernel at low / medium / saturated load and on a drain-heavy
 * (mostly idle) network; items/sec is simulated router-cycles per wall
 * second. CI runs them into BENCH_kernel.json:
 *
 *   ./bench/micro_router --benchmark_filter='BM_Kernel' \
 *       --benchmark_out=BENCH_kernel.json --benchmark_out_format=json
 */

#include <benchmark/benchmark.h>

#include "core/simulation.hpp"
#include "router/arbiter.hpp"
#include "selection/selector_factory.hpp"
#include "telemetry/telemetry.hpp"

namespace
{

using namespace lapses;

void
BM_ArbiterGrant(benchmark::State& state)
{
    const int requesters = static_cast<int>(state.range(0));
    RoundRobinArbiter arb(requesters);
    for (auto _ : state) {
        for (int i = 0; i < requesters; i += 2)
            arb.request(i);
        benchmark::DoNotOptimize(arb.grant());
    }
}
BENCHMARK(BM_ArbiterGrant)->Arg(4)->Arg(20)->Arg(64);

void
BM_PathSelection(benchmark::State& state)
{
    const SelectorKind kind =
        static_cast<SelectorKind>(state.range(0));
    const PathSelectorPtr sel = makePathSelector(kind, Rng{1});
    PortStatus status[2];
    status[0] = {1, 2, 35, 1, 100, 40};
    status[1] = {3, 1, 62, 3, 80, 55};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sel->select(std::span<const PortStatus>(status, 2)));
        ++status[0].useCount;
        ++status[1].totalCredits;
    }
}
BENCHMARK(BM_PathSelection)
    ->Arg(static_cast<int>(SelectorKind::StaticXY))
    ->Arg(static_cast<int>(SelectorKind::MinMux))
    ->Arg(static_cast<int>(SelectorKind::Lfu))
    ->Arg(static_cast<int>(SelectorKind::Lru))
    ->Arg(static_cast<int>(SelectorKind::MaxCredit));

void
networkCycles(benchmark::State& state, double load)
{
    SimConfig cfg;
    cfg.model = RouterModel::LaProud;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    cfg.traffic = TrafficKind::Uniform;
    cfg.normalizedLoad = load;
    Simulation sim(cfg);
    sim.stepCycles(2000); // warm the network up
    for (auto _ : state)
        sim.stepCycles(100);
    // Report simulated router-cycles per wall second.
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 100 * sim.topology().numNodes()));
}

void
BM_NetworkCycleLowLoad(benchmark::State& state)
{
    networkCycles(state, 0.1);
}
BENCHMARK(BM_NetworkCycleLowLoad)->Unit(benchmark::kMicrosecond);

void
BM_NetworkCycleHighLoad(benchmark::State& state)
{
    networkCycles(state, 0.7);
}
BENCHMARK(BM_NetworkCycleHighLoad)->Unit(benchmark::kMicrosecond);

SimConfig
kernelBenchConfig(double load, KernelKind kernel)
{
    SimConfig cfg;
    cfg.model = RouterModel::LaProud;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    cfg.traffic = TrafficKind::Uniform;
    cfg.normalizedLoad = load;
    cfg.kernel = kernel;
    return cfg;
}

/** Steady-state cycle throughput at one load under one kernel. */
void
kernelCycles(benchmark::State& state, double load, KernelKind kernel)
{
    Simulation sim(kernelBenchConfig(load, kernel));
    sim.stepCycles(2000); // warm the network up
    for (auto _ : state)
        sim.stepCycles(200);
    // Report simulated router-cycles per wall second, comparable
    // across kernels (the active kernel simply executes fewer steps
    // for the same simulated cycles).
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 200 * sim.topology().numNodes()));
}

void
BM_KernelLowLoad(benchmark::State& state)
{
    kernelCycles(state, 0.05,
                 static_cast<KernelKind>(state.range(0)));
}
BENCHMARK(BM_KernelLowLoad)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

void
BM_KernelMediumLoad(benchmark::State& state)
{
    kernelCycles(state, 0.3, static_cast<KernelKind>(state.range(0)));
}
BENCHMARK(BM_KernelMediumLoad)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

void
BM_KernelSaturatedLoad(benchmark::State& state)
{
    kernelCycles(state, 1.2, static_cast<KernelKind>(state.range(0)));
}
BENCHMARK(BM_KernelSaturatedLoad)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

/** Drain-heavy case: a warmed network with injection cut — the regime
 *  of drain phases and deadlock watchdog waits, mostly dead cycles. */
void
BM_KernelDrainHeavy(benchmark::State& state)
{
    const auto kernel = static_cast<KernelKind>(state.range(0));
    Simulation sim(kernelBenchConfig(0.3, kernel));
    sim.stepCycles(2000);
    sim.network().setInjectionEnabled(false);
    while (sim.network().totalOccupancy() > 0 ||
           sim.network().totalBacklog() > 0) {
        sim.stepCycles(200);
    }
    for (auto _ : state)
        sim.stepCycles(200);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 200 * sim.topology().numNodes()));
}
BENCHMARK(BM_KernelDrainHeavy)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

/** Closed-loop request/reply service on an 8x8 mesh: the NIC-side
 *  client/server engines (timer wheel, seeded backoff, duplicate
 *  bookkeeping) run inside the kernel step, so their cost shows up
 *  here and nowhere else. */
void
BM_ClosedLoopMesh64(benchmark::State& state)
{
    SimConfig cfg;
    cfg.radices = {8, 8};
    cfg.model = RouterModel::LaProud;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    cfg.workload = WorkloadKind::RequestReply;
    cfg.kernel = static_cast<KernelKind>(state.range(0));
    Simulation sim(cfg);
    sim.stepCycles(2000); // reach the steady in-flight window
    for (auto _ : state)
        sim.stepCycles(200);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 200 * sim.topology().numNodes()));
}
BENCHMARK(BM_ClosedLoopMesh64)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

/** Non-mesh fabrics on the kernel hot path: the graph-generic
 *  topology core (BFS tables, up*-down* routing, endpoint-indexed
 *  injection) must not tax the per-cycle stepping. Gated like the
 *  BM_Kernel* mesh cases on the active/scan ratio. */
void
fabricKernelCycles(benchmark::State& state, const char* topo,
                   double load)
{
    SimConfig cfg = kernelBenchConfig(
        load, static_cast<KernelKind>(state.range(0)));
    cfg.topology = parseTopologySpec("--topology", topo);
    Simulation sim(cfg);
    sim.stepCycles(2000); // warm the network up
    for (auto _ : state)
        sim.stepCycles(200);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 200 * sim.topology().numNodes()));
}

/** 4-ary 3-tree: 64 hosts, 112 nodes. */
void
BM_KernelFatTree64(benchmark::State& state)
{
    fabricKernelCycles(state, "fattree4x3", 0.1);
}
BENCHMARK(BM_KernelFatTree64)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

/** dragonfly(6,2,12): 72 routers in 12 groups. Light load — the
 *  up*-down* tree root saturates this fabric early, and the bench
 *  must measure flowing traffic, not a clogged root. */
void
BM_KernelDragonfly72(benchmark::State& state)
{
    fabricKernelCycles(state, "dragonfly6x2x12", 0.02);
}
BENCHMARK(BM_KernelDragonfly72)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

/**
 * The BM_KernelParallel* cases measure what spreading the sharded
 * event kernel over threads buys over its one-shard form (the active
 * kernel) on meshes big enough for one cycle's component work to
 * amortize the barrier. Arg encoding differs from the BM_Kernel*
 * cases: Arg(0) is the one-shard reference, Arg(N > 1) the parallel
 * kernel at N intra-jobs (one intra-job is the reference itself).
 * check_perf.py recognizes the /0 reference and gates on the
 * parallel/reference ratio per job count. The cases still report
 * main-thread CPU time: UseRealTime would suffix their names with
 * /real_time, which that /0-reference scheme does not match, and so
 * would drop the gate.
 */
SimConfig
parallelBenchConfig(int radix, unsigned jobs)
{
    SimConfig cfg;
    cfg.radices = {radix, radix};
    cfg.model = RouterModel::LaProud;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    cfg.traffic = TrafficKind::Uniform;
    cfg.normalizedLoad = 0.3;
    cfg.msgLen = 8;
    cfg.seed = 4242;
    cfg.kernel = jobs == 0 ? KernelKind::Active : KernelKind::Parallel;
    cfg.intraJobs = jobs;
    return cfg;
}

void
parallelCycles(benchmark::State& state, int radix)
{
    Simulation sim(parallelBenchConfig(
        radix, static_cast<unsigned>(state.range(0))));
    sim.stepCycles(500); // warm the network up
    for (auto _ : state)
        sim.stepCycles(50);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 50 * sim.topology().numNodes()));
}

void
BM_KernelParallelMesh64(benchmark::State& state)
{
    parallelCycles(state, 64);
}
BENCHMARK(BM_KernelParallelMesh64)
    ->Arg(0) // one-shard reference
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_KernelParallelMesh128(benchmark::State& state)
{
    parallelCycles(state, 128);
}
BENCHMARK(BM_KernelParallelMesh128)
    ->Arg(0) // one-shard reference
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/**
 * BM_KernelParallelBatch128 isolates what multi-cycle barrier
 * batching buys on deep wires: linkDelay 3 widens the safe lookahead
 * to 4 cycles, and the Args({jobs, batch}) members run the parallel
 * kernel at 4 intra-jobs under batch caps 1 / 2 / 4 against the
 * Args({0, 0}) one-shard reference (the active kernel at its default
 * cap) on the same physics; batch 1 doubles as the barrier-every-cycle
 * worst case. Gated by check_perf.py on the parallel/reference ratio
 * per member, so the barrier amortization cannot silently erode.
 */
void
BM_KernelParallelBatch128(benchmark::State& state)
{
    SimConfig cfg = parallelBenchConfig(
        128, static_cast<unsigned>(state.range(0)));
    cfg.linkDelay = 3;
    cfg.maxBatchCycles = static_cast<Cycle>(state.range(1));
    Simulation sim(cfg);
    sim.stepCycles(500); // warm the network up
    for (auto _ : state)
        sim.stepCycles(48);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 48 * sim.topology().numNodes()));
}
BENCHMARK(BM_KernelParallelBatch128)
    ->Args({0, 0}) // one-shard reference
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond);

/**
 * The BM_Router* cases isolate the router hot path in the saturated
 * regime — the regime that dominates every load sweep past the knee —
 * on a fully pinned configuration (independent of SimConfig defaults),
 * so the committed BENCH_router.json baseline stays comparable across
 * PRs. CI runs them into BENCH_router.json:
 *
 *   ./bench/micro_router --benchmark_filter='BM_Router' \
 *       --benchmark_out=BENCH_router.json --benchmark_out_format=json
 */
SimConfig
routerBenchConfig(TrafficKind traffic, KernelKind kernel)
{
    SimConfig cfg;
    cfg.radices = {8, 8};
    cfg.model = RouterModel::LaProud;
    cfg.vcsPerPort = 4;
    cfg.bufferDepth = 20;
    cfg.routing = RoutingAlgo::DuatoFullyAdaptive;
    cfg.table = TableKind::EconomicalStorage;
    cfg.selector = SelectorKind::MaxCredit;
    cfg.traffic = traffic;
    cfg.normalizedLoad = 1.2;
    cfg.msgLen = 8;
    cfg.seed = 4242;
    cfg.kernel = kernel;
    return cfg;
}

/** Saturated steady-state cycle throughput on the pinned config. */
void
routerCycles(benchmark::State& state, TrafficKind traffic)
{
    Simulation sim(routerBenchConfig(
        traffic, static_cast<KernelKind>(state.range(0))));
    sim.stepCycles(2000); // fill the network to saturation
    for (auto _ : state)
        sim.stepCycles(200);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 200 * sim.topology().numNodes()));
}

void
BM_RouterSaturatedUniform(benchmark::State& state)
{
    routerCycles(state, TrafficKind::Uniform);
}
BENCHMARK(BM_RouterSaturatedUniform)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

void
BM_RouterSaturatedHotspot(benchmark::State& state)
{
    routerCycles(state, TrafficKind::Hotspot);
}
BENCHMARK(BM_RouterSaturatedHotspot)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

/**
 * BM_RouterFaulted*: the saturated pinned config again, but running
 * degraded — two links died (and their reconfigurations completed)
 * during warm-up, so the measured steady state exercises the
 * dead-port masks on the router hot path. Gated via check_perf.py
 * like the healthy BM_Router* cases: a regression of the active/scan
 * ratio here means the fault machinery leaked cost into stepping.
 */
void
BM_RouterFaultedUniform(benchmark::State& state)
{
    SimConfig cfg = routerBenchConfig(
        TrafficKind::Uniform, static_cast<KernelKind>(state.range(0)));
    cfg.table = TableKind::Full; // reprogramming path included
    cfg.faultCount = 2;
    cfg.faultStart = 500;
    cfg.faultSpacing = 500;
    cfg.reconfigLatency = 200;
    Simulation sim(cfg);
    sim.stepCycles(2000); // saturate; both faults + reconfigs land
    for (auto _ : state)
        sim.stepCycles(200);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 200 * sim.topology().numNodes()));
}
BENCHMARK(BM_RouterFaultedUniform)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

/**
 * BM_RouterTelemetryWindow: the saturated pinned config with the
 * telemetry subsystem fully engaged — a 64-cycle sampling window and
 * an attached buffer, so every boundary snapshots all 64 routers.
 * Two jobs: (1) quantify what observation costs when it is ON, and
 * (2) guard the telemetry-OFF hot path — the plain BM_Router* cases
 * above run the exact same stepping code with the hooks compiled in
 * but disabled, so a drift in *their* ratios against the committed
 * BENCH_router.json baseline means the off path stopped being free.
 */
void
BM_RouterTelemetryWindow(benchmark::State& state)
{
    SimConfig cfg = routerBenchConfig(
        TrafficKind::Uniform, static_cast<KernelKind>(state.range(0)));
    cfg.telemetryWindow = 64;
    Simulation sim(cfg);
    TelemetryBuffer buffer(sim.topology().numNodes(),
                           sim.topology().numPorts());
    sim.network().attachTelemetryBuffer(&buffer);
    sim.stepCycles(2000); // fill the network to saturation
    for (auto _ : state)
        sim.stepCycles(200);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 200 * sim.topology().numNodes()));
}
BENCHMARK(BM_RouterTelemetryWindow)
    ->Arg(static_cast<int>(KernelKind::Active))
    ->Arg(static_cast<int>(KernelKind::Scan))
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
