/**
 * @file
 * Lockstep differential tests between the three simulation kernels:
 * the activity-driven kernel, the scan kernel (LAPSES_KERNEL=scan),
 * and the spatially sharded parallel kernel at several intra-job
 * counts. Over the full router catalog (both models, every routing
 * algorithm, table scheme and selector, plus every injection process,
 * fault schedules and telemetry windows), the kernels must agree
 * cycle by cycle on the progress counter and total occupancy, and
 * produce byte-identical final statistics. Any activation/quiescence
 * bug — a component put to sleep while it still had work, a wire
 * event delivered out of shard/scan order, an RNG stream perturbed by
 * a skipped step — diverges here with the offending cycle named.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/names.hpp"
#include "core/simulation.hpp"
#include "network/tracer.hpp"
#include "topology/spec.hpp"

namespace lapses
{
namespace
{

/** One kernel under differential test. */
struct KernelVariant
{
    std::string label;
    KernelKind kernel;
    unsigned intraJobs; //!< 0 outside the parallel kernel
    Cycle maxBatch = 0; //!< parallel barrier batch cap (0 = auto)
};

/** The standard three-way panel: scan is the oracle, active the
 *  production default, and parallel runs with three shards so a 4x4
 *  mesh gets uneven cuts (16 = 6+5+5 nodes). */
std::vector<KernelVariant>
threeWay()
{
    return {{"scan", KernelKind::Scan, 0},
            {"active", KernelKind::Active, 0},
            {"parallel/3", KernelKind::Parallel, 3}};
}

/** The intra-job sweep the issue pins: every power of two up to 8,
 *  alongside both sequential kernels. */
std::vector<KernelVariant>
intraJobSweep()
{
    return {{"scan", KernelKind::Scan, 0},
            {"active", KernelKind::Active, 0},
            {"parallel/1", KernelKind::Parallel, 1},
            {"parallel/2", KernelKind::Parallel, 2},
            {"parallel/4", KernelKind::Parallel, 4},
            {"parallel/8", KernelKind::Parallel, 8}};
}

/** The batch-cap sweep: the sequential oracles against 4-shard
 *  parallel runs re-barriering every 1, 2 and 4 cycles. Pair with a
 *  base config at linkDelay 3 so cap 4 is actually reachable. */
std::vector<KernelVariant>
batchSweep()
{
    return {{"scan", KernelKind::Scan, 0},
            {"active", KernelKind::Active, 0},
            {"parallel/4@batch1", KernelKind::Parallel, 4, 1},
            {"parallel/4@batch2", KernelKind::Parallel, 4, 2},
            {"parallel/4@batch4", KernelKind::Parallel, 4, 4}};
}

/** The golden-stats scenario: small, fast, unsaturated, fixed seed. */
SimConfig
diffBase()
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.2;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 400;
    cfg.seed = 20260727;
    return cfg;
}

/** One configuration per catalog entry (the golden-stats catalog),
 *  plus one per injection process, plus fault-schedule and telemetry
 *  variants. */
std::vector<std::pair<std::string, SimConfig>>
diffCases()
{
    std::vector<std::pair<std::string, SimConfig>> cases;
    auto add = [&](const std::string& name, SimConfig cfg) {
        cases.emplace_back(name, std::move(cfg));
    };

    for (RouterModel model :
         {RouterModel::Proud, RouterModel::LaProud}) {
        SimConfig cfg = diffBase();
        cfg.model = model;
        add("model:" + routerModelName(model), cfg);
    }

    for (RoutingAlgo routing :
         {RoutingAlgo::DeterministicXY, RoutingAlgo::DeterministicYX,
          RoutingAlgo::DuatoFullyAdaptive, RoutingAlgo::NorthLast,
          RoutingAlgo::WestFirst, RoutingAlgo::NegativeFirst,
          RoutingAlgo::TorusAdaptive}) {
        SimConfig cfg = diffBase();
        cfg.routing = routing;
        if (routing == RoutingAlgo::TorusAdaptive) {
            cfg.torus = true;
            cfg.table = TableKind::Full; // economical is mesh-only
        }
        add("routing:" + routingAlgoName(routing), cfg);
    }

    for (TableKind table :
         {TableKind::Full, TableKind::MetaRowMinimal,
          TableKind::MetaBlockMaximal, TableKind::EconomicalStorage,
          TableKind::Interval}) {
        SimConfig cfg = diffBase();
        cfg.table = table;
        if (table == TableKind::Interval) // deterministic-only scheme
            cfg.routing = RoutingAlgo::DeterministicXY;
        add("table:" + tableKindName(table), cfg);
    }

    for (SelectorKind selector :
         {SelectorKind::StaticXY, SelectorKind::FirstFree,
          SelectorKind::Random, SelectorKind::MinMux,
          SelectorKind::Lfu, SelectorKind::Lru,
          SelectorKind::MaxCredit}) {
        SimConfig cfg = diffBase();
        cfg.selector = selector;
        add("selector:" + selectorKindName(selector), cfg);
    }

    for (InjectionKind injection :
         {InjectionKind::Exponential, InjectionKind::Bernoulli,
          InjectionKind::Bursty}) {
        SimConfig cfg = diffBase();
        cfg.injection = injection;
        add("injection:" + injectionKindName(injection), cfg);
    }

    for (FaultPolicy policy :
         {FaultPolicy::Reinject, FaultPolicy::Drop}) {
        SimConfig cfg = diffBase();
        cfg.faultCount = 2;
        cfg.faultStart = 300;
        cfg.faultSpacing = 250;
        cfg.reconfigLatency = 100;
        cfg.faultPolicy = policy;
        add(std::string("faults:") +
                (policy == FaultPolicy::Drop ? "drop" : "reinject"),
            cfg);
    }

    for (Cycle window : {Cycle{1}, Cycle{64}}) {
        SimConfig cfg = diffBase();
        cfg.telemetryWindow = window;
        add("telemetry:window" + std::to_string(window), cfg);
    }

    // The one large mesh: 400 nodes, so a calendar bucket holds the
    // events of many wires at once, and each of up to 8 shards fills
    // its boundary lists over the ~21 links of every cut it borders.
    // On the 4x4 cases a bucket holds a handful of events.
    SimConfig large = diffBase();
    large.radices = {20, 20};
    large.normalizedLoad = 0.05;
    add("mesh20x20", large);

    // 17 ports x 4 VCs = 68 crossbar requesters: the only case past
    // the arbiter's one-word limit of 64, so the wide request path
    // runs under every kernel.
    SimConfig wide = diffBase();
    wide.topology = parseTopologySpec("--topology", "fattree8x2");
    wide.routing = RoutingAlgo::UpDown;
    wide.table = TableKind::Full;
    wide.normalizedLoad = 0.1;
    wide.msgLen = 8;
    add("fattree8x2", wide);
    return cases;
}

/** Build one Simulation per variant and check the kernel resolved. */
std::vector<std::unique_ptr<Simulation>>
buildVariants(const SimConfig& base,
              const std::vector<KernelVariant>& variants,
              const std::string& name)
{
    std::vector<std::unique_ptr<Simulation>> sims;
    sims.reserve(variants.size());
    for (const KernelVariant& v : variants) {
        SimConfig cfg = base;
        cfg.kernel = v.kernel;
        cfg.intraJobs = v.intraJobs;
        cfg.maxBatchCycles = v.maxBatch;
        sims.push_back(std::make_unique<Simulation>(cfg));
        EXPECT_EQ(sims.back()->network().kernel(), v.kernel)
            << name << ' ' << v.label;
        if (v.kernel == KernelKind::Parallel) {
            EXPECT_EQ(sims.back()->network().shardCount(), v.intraJobs)
                << name << ' ' << v.label;
            if (v.maxBatch > 0) {
                EXPECT_EQ(sims.back()->network().batchCap(),
                          v.maxBatch)
                    << name << ' ' << v.label;
            }
        } else {
            EXPECT_EQ(sims.back()->network().shardCount(), 1u)
                << name << ' ' << v.label;
        }
    }
    return sims;
}

/**
 * Step every variant one cycle at a time for `cycles` cycles,
 * asserting after each cycle that all variants agree with variant 0
 * on the externally visible counters, that every variant's O(1)
 * counters track their recomputed sums, and that the parallel
 * kernel's per-shard work counters merge to exactly the active
 * kernel's totals (the shards must not duplicate or drop steps).
 */
void
lockstep(std::vector<std::unique_ptr<Simulation>>& sims,
         const std::vector<KernelVariant>& variants,
         const std::string& name, Cycle cycles, Cycle stride = 1,
         bool pin_fast_forward = true)
{
    // Index of the active-kernel variant: the work-counter reference.
    std::size_t active_idx = variants.size();
    for (std::size_t i = 0; i < variants.size(); ++i) {
        if (variants[i].kernel == KernelKind::Active)
            active_idx = i;
    }

    Simulation& ref = *sims.front();
    for (Cycle t = 0; t < cycles; t += stride) {
        for (auto& sim : sims)
            sim->stepCycles(stride);
        for (std::size_t i = 1; i < sims.size(); ++i) {
            Network& net = sims[i]->network();
            ASSERT_EQ(net.progressCounter(),
                      ref.network().progressCounter())
                << name << ' ' << variants[i].label
                << " diverged at cycle " << t;
            ASSERT_EQ(net.totalOccupancy(),
                      ref.network().totalOccupancy())
                << name << ' ' << variants[i].label
                << " diverged at cycle " << t;
            ASSERT_EQ(net.deliveredTotal(), ref.network().deliveredTotal())
                << name << ' ' << variants[i].label
                << " diverged at cycle " << t;
        }
        // The O(1) counters must track their recomputed sums — for the
        // parallel kernel this pins the barrier merge of the per-shard
        // occupancy/progress deltas every single cycle.
        for (std::size_t i = 0; i < sims.size(); ++i) {
            Network& net = sims[i]->network();
            ASSERT_EQ(net.totalOccupancy(), net.totalOccupancySlow())
                << name << ' ' << variants[i].label
                << " occupancy counter drift at cycle " << t;
            ASSERT_EQ(net.progressCounter(), net.progressCounterSlow())
                << name << ' ' << variants[i].label
                << " progress counter drift at cycle " << t;
        }
        // Sharding repartitions work, it must not change it: merged
        // per-shard counters equal the active kernel's, cycle-level.
        if (active_idx < sims.size()) {
            const Network::KernelCounters ac =
                sims[active_idx]->network().kernelCounters();
            for (std::size_t i = 0; i < sims.size(); ++i) {
                if (variants[i].kernel != KernelKind::Parallel)
                    continue;
                const Network::KernelCounters pc =
                    sims[i]->network().kernelCounters();
                ASSERT_EQ(pc.nicSteps, ac.nicSteps)
                    << name << ' ' << variants[i].label
                    << " NIC step drift at cycle " << t;
                ASSERT_EQ(pc.routerSteps, ac.routerSteps)
                    << name << ' ' << variants[i].label
                    << " router step drift at cycle " << t;
                ASSERT_EQ(pc.wireEventsDelivered,
                          ac.wireEventsDelivered)
                    << name << ' ' << variants[i].label
                    << " wire event drift at cycle " << t;
                // A multi-cycle batch may step through idle cycles a
                // 1-cycle stride would fast-forward, so this pin only
                // holds at stride 1.
                if (pin_fast_forward) {
                    ASSERT_EQ(pc.fastForwardedCycles,
                              ac.fastForwardedCycles)
                        << name << ' ' << variants[i].label
                        << " fast-forward drift at cycle " << t;
                }
            }
        }
    }
}

/** Every field of SimStats, compared exactly (byte identity). */
void
expectStatsIdentical(const SimStats& scan, const SimStats& other,
                     const std::string& name)
{
    EXPECT_EQ(scan.saturated, other.saturated) << name;
    EXPECT_EQ(scan.injectedMessages, other.injectedMessages) << name;
    EXPECT_EQ(scan.deliveredMessages, other.deliveredMessages)
        << name;
    EXPECT_EQ(scan.deliveredFlits, other.deliveredFlits) << name;
    EXPECT_EQ(scan.measuredCycles, other.measuredCycles) << name;
    EXPECT_EQ(scan.acceptedFlitRate, other.acceptedFlitRate) << name;
    EXPECT_EQ(scan.offeredFlitRate, other.offeredFlitRate) << name;
    EXPECT_EQ(scan.linkDownEvents, other.linkDownEvents) << name;
    EXPECT_EQ(scan.linkUpEvents, other.linkUpEvents) << name;
    EXPECT_EQ(scan.reconfigurations, other.reconfigurations) << name;
    EXPECT_EQ(scan.droppedMessages, other.droppedMessages) << name;
    EXPECT_EQ(scan.droppedFlits, other.droppedFlits) << name;
    EXPECT_EQ(scan.reinjectedMessages, other.reinjectedMessages)
        << name;
    EXPECT_EQ(scan.reroutedHeads, other.reroutedHeads) << name;
    for (const auto& [label, s, a] :
         {std::tuple<const char*, const Accumulator&,
                     const Accumulator&>{
              "totalLatency", scan.totalLatency, other.totalLatency},
          {"networkLatency", scan.networkLatency,
           other.networkLatency},
          {"hops", scan.hops, other.hops}}) {
        EXPECT_EQ(s.count(), a.count()) << name << ' ' << label;
        EXPECT_EQ(s.mean(), a.mean()) << name << ' ' << label;
        EXPECT_EQ(s.min(), a.min()) << name << ' ' << label;
        EXPECT_EQ(s.max(), a.max()) << name << ' ' << label;
        EXPECT_EQ(s.sum(), a.sum()) << name << ' ' << label;
    }
    for (double q : {0.5, 0.9, 0.99}) {
        EXPECT_EQ(scan.latencyHist.percentile(q),
                  other.latencyHist.percentile(q))
            << name << " p" << q;
    }
}

TEST(KernelDifferential, LockstepOverCatalog)
{
    const auto variants = threeWay();
    for (const auto& [name, base] : diffCases()) {
        auto sims = buildVariants(base, variants, name);
        lockstep(sims, variants, name, 800);
    }
}

TEST(KernelDifferential, IntraJobSweepUnderFaultsAndTelemetry)
{
    // The issue's pinned matrix: scan vs active vs parallel at 1, 2,
    // 4 and 8 intra-jobs, with a live fault schedule (link death,
    // reconfiguration, reinjection) and a telemetry window, stepping
    // through the fault epochs in lockstep. Shard counts 1 (single
    // shard — the parallel machinery with no concurrency), 2/4
    // (balanced cuts) and 8 (2-node slivers) all reduce to the same
    // byte-identical run.
    SimConfig base = diffBase();
    base.faultCount = 2;
    base.faultStart = 250;
    base.faultSpacing = 300;
    base.reconfigLatency = 80;
    base.telemetryWindow = 64;
    const auto variants = intraJobSweep();
    auto sims = buildVariants(base, variants, "intra-sweep");
    lockstep(sims, variants, "intra-sweep", 1000);
}

TEST(KernelDifferential, SaturationLockstepOverTablesAndTraffic)
{
    // The occupied-VC hot path earns its keep past the knee, so pin
    // byte-identity exactly there: dense uniform and hotspot traffic
    // at saturating load, across every table kind. All kernels must
    // agree cycle by cycle while routers run full — for the parallel
    // kernel this is the regime where every shard has work and all
    // stepping really happens concurrently.
    const auto variants = threeWay();
    for (TableKind table :
         {TableKind::Full, TableKind::MetaRowMinimal,
          TableKind::MetaBlockMaximal, TableKind::EconomicalStorage,
          TableKind::Interval}) {
        for (TrafficKind traffic :
             {TrafficKind::Uniform, TrafficKind::Hotspot}) {
            SimConfig base = diffBase();
            base.table = table;
            base.traffic = traffic;
            base.normalizedLoad = 1.3;
            if (table == TableKind::Interval) // deterministic-only
                base.routing = RoutingAlgo::DeterministicXY;
            const std::string name =
                "saturation:" + tableKindName(table) + '+' +
                trafficKindName(traffic);

            auto sims = buildVariants(base, variants, name);
            // Let the network fill well past the knee, then lockstep.
            for (auto& sim : sims)
                sim->stepCycles(400);
            lockstep(sims, variants, name, 400);
            // The saturated network is genuinely loaded (the regime
            // under test) and the descriptor pool is bounded by the
            // in-flight population, not by messages ever created.
            Network& active = sims[1]->network();
            EXPECT_GT(active.totalOccupancy(), 0u) << name;
            EXPECT_LT(active.messagePool().capacity(),
                      static_cast<std::size_t>(active.createdTotal()))
                << name;
        }
    }
}

TEST(KernelDifferential, FinalStatsByteIdenticalOverCatalog)
{
    const auto variants = threeWay();
    for (const auto& [name, base] : diffCases()) {
        auto sims = buildVariants(base, variants, name);
        std::vector<SimStats> stats;
        stats.reserve(sims.size());
        for (auto& sim : sims)
            stats.push_back(sim->run());
        for (std::size_t i = 1; i < sims.size(); ++i) {
            expectStatsIdentical(stats[0], stats[i],
                                 name + " vs " + variants[i].label);
            // The whole-run cycle clocks must agree too: fast-forward
            // may skip stepping dead cycles but never bends the time
            // axis.
            EXPECT_EQ(sims[0]->network().now(), sims[i]->network().now())
                << name << ' ' << variants[i].label;
            EXPECT_EQ(sims[0]->network().progressCounter(),
                      sims[i]->network().progressCounter())
                << name << ' ' << variants[i].label;
        }
    }
}

TEST(KernelDifferential, BatchSweepLockstepHealthyAndFaulted)
{
    // Multi-cycle batching under an 8-cycle stride (the phase
    // quantum): batch caps 1, 2 and 4 against both sequential oracles,
    // healthy and with live fault epochs plus telemetry windows that
    // force barriers mid-batch. Counter comparisons run at every
    // stride boundary; the fault/telemetry/boundary caps must place
    // barriers so precisely that no counter ever drifts.
    for (const bool faulted : {false, true}) {
        SimConfig base = diffBase();
        base.linkDelay = 3;
        if (faulted) {
            base.faultCount = 2;
            base.faultStart = 250;
            base.faultSpacing = 300;
            base.reconfigLatency = 80;
            base.telemetryWindow = 64;
        }
        const std::string name = faulted ? "batch-sweep:faulted"
                                         : "batch-sweep:healthy";
        const auto variants = batchSweep();
        auto sims = buildVariants(base, variants, name);
        lockstep(sims, variants, name, 1000, /*stride=*/8,
                 /*pin_fast_forward=*/false);
    }
}

TEST(KernelDifferential, BatchSweepFinalStatsByteIdentical)
{
    // run() interleaves batched stepping with phase predicates (on the
    // fixed 8-cycle quantum), saturation checks, fault events and the
    // sharded stats reduction; every batch cap must produce the same
    // byte-identical statistics as the sequential oracles.
    SimConfig base = diffBase();
    base.linkDelay = 3;
    base.faultCount = 2;
    base.faultStart = 300;
    base.faultSpacing = 250;
    base.reconfigLatency = 100;
    base.telemetryWindow = 64;
    const auto variants = batchSweep();
    auto sims = buildVariants(base, variants, "batch-final");
    std::vector<SimStats> stats;
    stats.reserve(sims.size());
    for (auto& sim : sims)
        stats.push_back(sim->run());
    for (std::size_t i = 1; i < sims.size(); ++i) {
        expectStatsIdentical(stats[0], stats[i],
                             "batch-final vs " + variants[i].label);
        EXPECT_EQ(sims[0]->network().now(), sims[i]->network().now())
            << "batch-final " << variants[i].label;
    }
}

TEST(KernelDifferential, SaturatedRunsAgree)
{
    // Past saturation the active set is the whole network; the kernels
    // must still agree byte-for-byte, including on the saturation
    // verdict itself.
    SimConfig base = diffBase();
    base.normalizedLoad = 1.2;
    base.measureMessages = 600;
    base.maxCycles = 60000;
    const auto variants = threeWay();
    for (SelectorKind selector :
         {SelectorKind::StaticXY, SelectorKind::Random}) {
        SimConfig cfg = base;
        cfg.selector = selector;
        const std::string name =
            "saturated:" + selectorKindName(selector);
        auto sims = buildVariants(cfg, variants, name);
        std::vector<SimStats> stats;
        for (auto& sim : sims)
            stats.push_back(sim->run());
        for (std::size_t i = 1; i < sims.size(); ++i) {
            expectStatsIdentical(stats[0], stats[i],
                                 name + " vs " + variants[i].label);
            EXPECT_EQ(sims[0]->network().now(),
                      sims[i]->network().now())
                << name << ' ' << variants[i].label;
        }
    }

    // The same saturated regime with multi-cycle batching: saturation
    // checks land on the 256-cycle window inside run(), mid-stream of
    // batched stepping, and must still agree — including the verdict.
    SimConfig cfg = base;
    cfg.linkDelay = 3;
    const auto batched = batchSweep();
    auto sims = buildVariants(cfg, batched, "saturated-batched");
    std::vector<SimStats> stats;
    for (auto& sim : sims)
        stats.push_back(sim->run());
    for (std::size_t i = 1; i < sims.size(); ++i) {
        expectStatsIdentical(stats[0], stats[i],
                             "saturated-batched vs " +
                                 batched[i].label);
        EXPECT_EQ(sims[0]->network().now(), sims[i]->network().now())
            << "saturated-batched " << batched[i].label;
    }
}

/** Every field of every retained tracer event, one line each. */
std::string
ringBytes(const FlitTracer& tracer)
{
    std::ostringstream os;
    for (const TraceEvent& ev : tracer.events()) {
        os << ev.cycle << ' ' << static_cast<int>(ev.kind) << ' '
           << ev.node << ' ' << static_cast<int>(ev.port) << ' '
           << ev.msg << ' ' << ev.seq << ' '
           << static_cast<int>(ev.type) << ' '
           << static_cast<int>(ev.role) << ' ' << ev.attempt << '\n';
    }
    return os.str();
}

TEST(KernelDifferential, TracedStreamsIdentical)
{
    // Deliveries run on every shard's thread, but the tracer is a
    // single-writer stream: each shard buffers its own records and the
    // barrier merge replays them in (cycle, sending wire) order. The
    // event ring and the span JSONL must come out byte-identical under
    // every kernel, shard count and batch size. Link delay 3 makes
    // batches of up to 4 cycles possible while the tracer is attached.
    const std::vector<KernelVariant> variants = {
        {"scan", KernelKind::Scan, 0},
        {"active", KernelKind::Active, 0},
        {"parallel/2@batch1", KernelKind::Parallel, 2, 1},
        {"parallel/2@batch4", KernelKind::Parallel, 2, 4},
        {"parallel/4@batch1", KernelKind::Parallel, 4, 1},
        {"parallel/4@batch4", KernelKind::Parallel, 4, 4}};
    SimConfig mesh = diffBase();
    mesh.linkDelay = 3;
    SimConfig fattree = mesh;
    fattree.topology = parseTopologySpec("--topology", "fattree4x3");
    fattree.normalizedLoad = 0.05;
    for (const auto& [name, base] :
         {std::pair<std::string, SimConfig>{"mesh4x4", mesh},
          {"fattree4x3", fattree}}) {
        auto sims = buildVariants(base, variants, name);
        std::vector<std::string> rings;
        std::vector<std::string> spans;
        for (auto& sim : sims) {
            FlitTracer tracer(1 << 17);
            std::ostringstream os;
            tracer.enableSpanExport(
                os, 1,
                static_cast<Cycle>(contentionFreeHopCycles(base.model)));
            sim->network().setTracer(&tracer);
            const SimStats stats = sim->run();
            sim->network().setTracer(nullptr);
            EXPECT_FALSE(stats.saturated) << name;
            // The ring holds the whole stream, not just its tail.
            EXPECT_EQ(tracer.recorded(), tracer.size()) << name;
            EXPECT_GT(tracer.spansExported(), 0u) << name;
            rings.push_back(ringBytes(tracer));
            spans.push_back(os.str());
        }
        for (std::size_t i = 1; i < sims.size(); ++i) {
            EXPECT_TRUE(rings[i] == rings[0])
                << name << ' ' << variants[i].label
                << ": event ring differs from scan";
            EXPECT_TRUE(spans[i] == spans[0])
                << name << ' ' << variants[i].label
                << ": span JSONL differs from scan";
        }
    }
}

} // namespace
} // namespace lapses
