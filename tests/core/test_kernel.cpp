/**
 * @file
 * Unit tests for the activity-driven kernel's bookkeeping: idle
 * fast-forward (an empty active set advances the clock in O(events),
 * not O(cycles)), quiescence (a drained network stops stepping
 * routers entirely), the LAPSES_KERNEL escape hatch resolution, and
 * the deadlock watchdog (which must keep firing on a genuinely
 * deadlocked network — deadlocked routers hold flits, stay active,
 * and are never fast-forwarded over).
 */

#include <gtest/gtest.h>

#include <chrono>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

SimConfig
kernelBase()
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.2;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 400;
    cfg.seed = 7;
    cfg.kernel = KernelKind::Active;
    return cfg;
}

TEST(Kernel, ExplicitSelectionOverridesEnvironment)
{
    ::setenv("LAPSES_KERNEL", "scan", 1);
    SimConfig cfg = kernelBase();
    cfg.kernel = KernelKind::Active;
    Simulation active(cfg);
    EXPECT_EQ(active.network().kernel(), KernelKind::Active);

    ::setenv("LAPSES_KERNEL", "active", 1);
    cfg.kernel = KernelKind::Scan;
    Simulation scan(cfg);
    EXPECT_EQ(scan.network().kernel(), KernelKind::Scan);

    cfg.kernel = KernelKind::Auto;
    Simulation from_env(cfg);
    EXPECT_EQ(from_env.network().kernel(), KernelKind::Active);
    ::setenv("LAPSES_KERNEL", "scan", 1);
    Simulation from_env_scan(cfg);
    EXPECT_EQ(from_env_scan.network().kernel(), KernelKind::Scan);

    // A typo must refuse rather than silently fall back to Active
    // (which would make a differential run vacuous).
    ::setenv("LAPSES_KERNEL", "sacn", 1);
    EXPECT_THROW(Simulation bad(cfg), ConfigError);
    ::unsetenv("LAPSES_KERNEL");
}

TEST(Kernel, ParallelSelectionAndIntraJobResolution)
{
    // LAPSES_KERNEL=parallel resolves Auto to the parallel kernel,
    // and the shard count follows --intra-jobs / LAPSES_INTRA_JOBS
    // with the explicit request winning.
    ::setenv("LAPSES_KERNEL", "parallel", 1);
    SimConfig cfg = kernelBase();
    cfg.kernel = KernelKind::Auto;
    cfg.intraJobs = 3;
    Simulation from_env(cfg);
    EXPECT_EQ(from_env.network().kernel(), KernelKind::Parallel);
    EXPECT_EQ(from_env.network().shardCount(), 3u);
    ::unsetenv("LAPSES_KERNEL");

    cfg.kernel = KernelKind::Parallel;
    ::setenv("LAPSES_INTRA_JOBS", "2", 1);
    cfg.intraJobs = 0; // auto: take the environment value
    Simulation from_env_jobs(cfg);
    EXPECT_EQ(from_env_jobs.network().shardCount(), 2u);
    cfg.intraJobs = 5; // explicit request beats the environment
    Simulation explicit_jobs(cfg);
    EXPECT_EQ(explicit_jobs.network().shardCount(), 5u);

    // Junk or nonpositive LAPSES_INTRA_JOBS must refuse, not fall
    // back silently (a parallel run with a typo'd job count would
    // quietly measure the wrong thing). 2^32 + 2 must not wrap to 2.
    cfg.intraJobs = 0;
    for (const char* bad : {"0", "-3", "four", "2x", "4294967298"}) {
        ::setenv("LAPSES_INTRA_JOBS", bad, 1);
        EXPECT_THROW(Simulation sim(cfg), ConfigError) << bad;
    }
    // An empty value is "unset", not an error.
    ::setenv("LAPSES_INTRA_JOBS", "", 1);
    EXPECT_NO_THROW(Simulation sim(cfg));
    ::unsetenv("LAPSES_INTRA_JOBS");

    // More jobs than nodes clamps to one shard per node.
    cfg.intraJobs = 4096;
    Simulation clamped(cfg);
    EXPECT_EQ(clamped.network().shardCount(), 16u);
}

TEST(Kernel, ActiveIsOneShardAndBatchesLikeParallel)
{
    // Active is the sharded event kernel at exactly one shard: intra
    // job requests never split it. Its barrier batch cap resolves like
    // the parallel kernel's: --max-batch, else LAPSES_MAX_BATCH, else
    // linkDelay + 1.
    SimConfig cfg = kernelBase();
    cfg.kernel = KernelKind::Active;
    cfg.linkDelay = 3;
    cfg.intraJobs = 4;
    ::setenv("LAPSES_INTRA_JOBS", "3", 1);
    Simulation requested(cfg);
    EXPECT_EQ(requested.network().shardCount(), 1u);
    EXPECT_EQ(requested.network().batchCap(), 4u);
    cfg.intraJobs = 0;
    Simulation from_env(cfg);
    EXPECT_EQ(from_env.network().shardCount(), 1u);
    ::unsetenv("LAPSES_INTRA_JOBS");

    ::setenv("LAPSES_MAX_BATCH", "2", 1);
    Simulation env_batch(cfg);
    EXPECT_EQ(env_batch.network().batchCap(), 2u);
    cfg.maxBatchCycles = 1;
    Simulation explicit_batch(cfg);
    EXPECT_EQ(explicit_batch.network().batchCap(), 1u);
    // Junk, nonpositive or out-of-range (2^64) values refuse too.
    cfg.maxBatchCycles = 0;
    for (const char* bad :
         {"0", "-1", "x", "2x", "18446744073709551616"}) {
        ::setenv("LAPSES_MAX_BATCH", bad, 1);
        EXPECT_THROW(Simulation sim(cfg), ConfigError) << bad;
    }
    ::unsetenv("LAPSES_MAX_BATCH");

    // The scan oracle never batches.
    cfg.kernel = KernelKind::Scan;
    cfg.maxBatchCycles = 0;
    Simulation scan(cfg);
    EXPECT_EQ(scan.network().batchCap(), 1u);
}

TEST(Kernel, KernelKindNamesRoundTrip)
{
    EXPECT_STREQ(kernelKindName(KernelKind::Active), "active");
    EXPECT_STREQ(kernelKindName(KernelKind::Scan), "scan");
    EXPECT_STREQ(kernelKindName(KernelKind::Parallel), "parallel");
    EXPECT_STREQ(kernelKindName(KernelKind::Auto), "auto");
}

TEST(Kernel, IdleNetworkFastForwards)
{
    // At a vanishing load the network is idle almost always; the
    // active kernel must cross those stretches by fast-forwarding,
    // doing component work only around the rare arrivals.
    SimConfig cfg = kernelBase();
    cfg.normalizedLoad = 1e-4; // aggregate arrival every ~2500 cycles
    Simulation sim(cfg);
    const Cycle span = 100000;
    sim.stepCycles(span);
    EXPECT_EQ(sim.network().now(), span);

    const auto& c = sim.network().kernelCounters();
    const auto n =
        static_cast<std::uint64_t>(sim.topology().numNodes());
    // The scan kernel would execute span * numNodes() steps per
    // component class; the active kernel must be orders of magnitude
    // below that and skip most of the clock outright.
    EXPECT_LT(c.nicSteps, span * n / 20);
    EXPECT_LT(c.routerSteps, span * n / 20);
    EXPECT_GT(c.fastForwardedCycles, span / 2);
}

TEST(Kernel, ScanKernelNeverFastForwards)
{
    SimConfig cfg = kernelBase();
    cfg.normalizedLoad = 1e-4;
    cfg.kernel = KernelKind::Scan;
    Simulation sim(cfg);
    sim.stepCycles(5000);
    const auto& c = sim.network().kernelCounters();
    const auto n =
        static_cast<std::uint64_t>(sim.topology().numNodes());
    EXPECT_EQ(c.fastForwardedCycles, 0u);
    EXPECT_EQ(c.nicSteps, 5000u * n);
    EXPECT_EQ(c.routerSteps, 5000u * n);
}

TEST(Kernel, DrainCompletesInEventBoundedWork)
{
    // Fill the network, cut injection, and let it drain. Once empty,
    // routers must never be stepped again — remaining work is only the
    // NIC injection-process clock ticking at its arrival events.
    SimConfig cfg = kernelBase();
    cfg.normalizedLoad = 0.3;
    Simulation sim(cfg);
    sim.stepCycles(1000);
    sim.network().setInjectionEnabled(false);

    Cycle waited = 0;
    while ((sim.network().totalOccupancy() > 0 ||
            sim.network().totalBacklog() > 0) &&
           waited < 100000) {
        sim.stepCycles(100);
        waited += 100;
    }
    ASSERT_EQ(sim.network().totalOccupancy(), 0u) << "drain hung";
    ASSERT_EQ(sim.network().totalBacklog(), 0u) << "drain hung";

    // The quiescence predicate agrees with the drained state: every
    // router is a guaranteed no-op until traffic returns.
    for (NodeId id = 0; id < sim.topology().numNodes(); ++id) {
        EXPECT_TRUE(sim.network().router(id).isQuiescent()) << id;
        EXPECT_GT(sim.network().router(id).forwardedFlits(), 0u) << id;
    }

    const auto before = sim.network().kernelCounters();
    const Cycle idle_span = 50000;
    sim.stepCycles(idle_span);
    const auto after = sim.network().kernelCounters();

    // A drained network does no router work at all...
    EXPECT_EQ(after.routerSteps, before.routerSteps);
    EXPECT_EQ(after.wireEventsDelivered, before.wireEventsDelivered);
    // ... and NIC work is bounded by injection-process events, far
    // below the numNodes() * cycles the scan kernel would spend.
    const auto n =
        static_cast<std::uint64_t>(sim.topology().numNodes());
    EXPECT_LT(after.nicSteps - before.nicSteps, idle_span * n / 4);
}

TEST(Kernel, WatchdogStillFiresOnRealDeadlock)
{
    // XY routing on a torus with one VC and tiny buffers deadlocks
    // around the wrap cycle at high load. Deadlocked routers hold
    // flits, so they stay in the active set, the clock advances cycle
    // by cycle, and the progress watchdog must keep firing exactly as
    // it does under the scan kernel.
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.torus = true;
    cfg.routing = RoutingAlgo::DeterministicXY;
    cfg.table = TableKind::Full;
    cfg.traffic = TrafficKind::Uniform;
    cfg.vcsPerPort = 1;
    cfg.bufferDepth = 2;
    cfg.msgLen = 8;
    cfg.normalizedLoad = 1.8;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 2000;
    cfg.maxCycles = 120000;
    cfg.deadlockCycles = 5000;
    cfg.seed = 99;

    // Whatever the outcome (deadlock throw, saturation, completion),
    // the two kernels must reach the same one at the same cycle.
    auto outcome = [&](KernelKind kernel) {
        SimConfig run_cfg = cfg;
        run_cfg.kernel = kernel;
        Simulation sim(run_cfg);
        std::string result;
        try {
            const SimStats st = sim.run();
            result = st.saturated ? "saturated" : "completed";
        } catch (const SimulationError& e) {
            result = "deadlock";
            EXPECT_NE(std::string(e.what()).find("deadlock"),
                      std::string::npos);
        }
        return std::make_pair(result, sim.network().now());
    };

    const auto scan = outcome(KernelKind::Scan);
    const auto active = outcome(KernelKind::Active);
    EXPECT_EQ(scan.first, active.first);
    EXPECT_EQ(scan.second, active.second);
}

TEST(Kernel, OneShardProfileNeverExceedsWallTime)
{
    // On one shard every profiled phase runs on the calling thread and
    // no phase timer may wrap another, so the phases must sum to at
    // most the wall time around run() — a nested timer would count its
    // inner phase twice.
    for (const KernelKind kernel :
         {KernelKind::Active, KernelKind::Parallel, KernelKind::Scan}) {
        SimConfig cfg = kernelBase();
        cfg.radices = {8, 8};
        cfg.normalizedLoad = 0.3;
        cfg.warmupMessages = 200;
        cfg.measureMessages = 3000;
        cfg.kernel = kernel;
        cfg.intraJobs = 1;
        Simulation sim(cfg);
        ASSERT_EQ(sim.network().shardCount(), 1u);
        sim.network().setProfiling(true);
        const auto t0 = std::chrono::steady_clock::now();
        sim.run();
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        const KernelProfile prof = sim.network().kernelProfile();
        EXPECT_GT(prof.routerStepSeconds, 0.0)
            << kernelKindName(kernel);
        EXPECT_LE(prof.totalSeconds(), wall) << kernelKindName(kernel);
    }
}

TEST(Kernel, ProfileSerialSecondsSumsTheLabelledTerms)
{
    // Distinct powers of two, so any missing or extra term shows as an
    // exact mismatch.
    KernelProfile prof;
    prof.wireDrainSeconds = 1.0;
    prof.nicStepSeconds = 2.0;
    prof.routerStepSeconds = 4.0;
    prof.faultSeconds = 8.0;
    prof.telemetrySeconds = 16.0;
    prof.boundaryDrainSeconds = 32.0;
    prof.intraDeliverySeconds = 64.0;
    prof.barrierWaitSeconds = 128.0;
    // boundary drain + barrier wait + fault + telemetry; the scan
    // kernel's wire drain and the worker phases are not serial.
    EXPECT_EQ(prof.serialSeconds(), 32.0 + 128.0 + 8.0 + 16.0);
    EXPECT_EQ(prof.totalSeconds(), 255.0);
}

TEST(Kernel, StepUntilNeverPassesHorizon)
{
    SimConfig cfg = kernelBase();
    cfg.normalizedLoad = 1e-4;
    Simulation sim(cfg);
    // Odd-sized jumps through an almost-dead network must land exactly
    // on the requested cycle, fast-forward or not.
    Cycle expect_now = 0;
    for (const Cycle n : {1u, 7u, 250u, 9001u, 3u}) {
        sim.stepCycles(n);
        expect_now += n;
        EXPECT_EQ(sim.network().now(), expect_now);
    }
}

} // namespace
} // namespace lapses
