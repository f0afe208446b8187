/**
 * @file
 * Shard-boundary property tests for the parallel kernel. The sharding
 * contract (DESIGN.md "Parallel kernel") is that the cut points are
 * pure bookkeeping: for ANY strictly ascending set of interior cuts,
 * boundary-crossing wire events drain through the coordinator in the
 * sequential (node, port, wire-kind) order while each shard's worker
 * delivers its intra-shard events in the same per-shard order, so
 * every externally observable sequence — the per-destination
 * delivery-hook streams, occupancy, progress, the work counters — is
 * byte-identical to the single-shard active kernel and the scan
 * oracle. Deliveries eject on the destination's owning worker, so the
 * observable ordering contract is per destination node (a single
 * global stream across shards is not defined under worker delivery).
 * These tests build networks directly with explicit shard_cuts
 * constructor arguments to drive randomized and adversarial
 * cuts the balanced partition would never produce, including slivers
 * that spend most cycles with no active component (the idle-shard
 * fast-forward path) and multi-cycle batches that must break exactly
 * at fault and telemetry boundaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "network/network.hpp"
#include "routing/algorithm_factory.hpp"
#include "tables/table_factory.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/mesh.hpp"
#include "traffic/patterns.hpp"

namespace lapses
{
namespace
{

/** Optional NetRig knobs beyond the common (kernel, cuts, load, seed)
 *  set; defaults match the pre-batching rigs. */
struct RigOpts
{
    Cycle linkDelay = 1;
    Cycle maxBatch = 0; //!< 0 = auto (linkDelay + 1)
    Cycle telemetryWindow = 0;
    FaultSchedule faults;
    Cycle reconfigLatency = 40;
};

/** A directly constructed network plus everything it borrows, with a
 *  delivery-hook recorder attached. */
struct NetRig
{
    Topology topo;
    RoutingAlgorithmPtr algo;
    RoutingTablePtr table;
    TrafficPatternPtr pattern;
    std::unique_ptr<Network> net;
    /** Per-destination delivery streams: deliveries[d] holds node d's
     *  (message id, cycle) arrivals in ejection order. Node d ejects
     *  only on its shard's worker, so recording is race-free and the
     *  per-destination order is the canonical one. */
    std::vector<std::vector<std::pair<MessageId, Cycle>>> deliveries;

    NetRig(const std::vector<int>& radices, KernelKind kernel,
           std::vector<NodeId> boundaries, double load,
           std::uint64_t seed, RigOpts opts = {})
        : topo(makeMeshTopology(radices, false))
    {
        SimConfig cfg; // Duato on a full table, uniform traffic
        cfg.table = TableKind::Full;
        cfg.vcsPerPort = 2;
        cfg.bufferDepth = 8;
        cfg.msgLen = 4;
        cfg.normalizedLoad = load;
        cfg.seed = seed;
        cfg.kernel = kernel;
        cfg.intraJobs = 1; // overridden by explicit boundaries
        cfg.linkDelay = opts.linkDelay;
        cfg.maxBatchCycles = opts.maxBatch;
        cfg.telemetryWindow = opts.telemetryWindow;
        cfg.faultEvents = opts.faults.events();
        cfg.reconfigLatency = opts.reconfigLatency;
        algo = makeRoutingAlgorithm(cfg.routing, topo);
        table = makeRoutingTable(cfg.table, topo, *algo);
        pattern = makeTrafficPattern(cfg.traffic, topo);
        deliveries.resize(static_cast<std::size_t>(topo.numNodes()));
        net = std::make_unique<Network>(cfg, topo, *algo, *table,
                                        *pattern, std::move(boundaries));
        net->setDeliveryHook(&NetRig::record, this);
    }

    static void
    record(void* ctx, const MessageDescriptor& msg, Cycle now)
    {
        auto* rig = static_cast<NetRig*>(ctx);
        rig->deliveries[msg.dest].emplace_back(msg.id, now);
    }

    std::size_t
    deliveredCount() const
    {
        std::size_t n = 0;
        for (const auto& stream : deliveries)
            n += stream.size();
        return n;
    }
};

/** Assert a's per-destination delivery streams equal b's element by
 *  element — same messages, same cycles, same order at each node. */
void
expectSameDeliveryStreams(const NetRig& a, const NetRig& b,
                          const std::string& name)
{
    ASSERT_EQ(a.deliveries.size(), b.deliveries.size()) << name;
    for (std::size_t d = 0; d < a.deliveries.size(); ++d) {
        ASSERT_EQ(a.deliveries[d].size(), b.deliveries[d].size())
            << name << " dest " << d;
        for (std::size_t i = 0; i < a.deliveries[d].size(); ++i) {
            ASSERT_EQ(a.deliveries[d][i], b.deliveries[d][i])
                << name << " dest " << d << " delivery " << i;
        }
    }
}

/** Random strictly ascending interior cut points for an n-node mesh. */
std::vector<NodeId>
randomCuts(std::mt19937& rng, NodeId n)
{
    std::uniform_int_distribution<int> count_dist(1, 7);
    const int want = count_dist(rng);
    std::vector<NodeId> all;
    for (NodeId b = 1; b < n; ++b)
        all.push_back(b);
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(std::min<std::size_t>(
        static_cast<std::size_t>(want), all.size()));
    std::sort(all.begin(), all.end());
    return all;
}

std::string
describeCuts(const std::vector<NodeId>& cuts)
{
    std::string s = "cuts{";
    for (const NodeId b : cuts)
        s += std::to_string(b) + ',';
    s += '}';
    return s;
}

TEST(ShardBoundary, RandomizedCutsMatchSequentialDeliveryOrder)
{
    // Property: for randomized shard cuts on a 5x5 mesh, the parallel
    // kernel's per-destination delivery streams and per-cycle counters
    // equal the scan oracle's. Scan delivers wires by one global
    // ascending (node, port, wire-kind) sweep, so equality here IS the
    // two-tier (boundary + intra-shard) ordering contract.
    std::mt19937 rng(0xC0FFEEu);
    const std::vector<int> radices = {5, 5};
    for (int trial = 0; trial < 8; ++trial) {
        const std::vector<NodeId> cuts = randomCuts(rng, 25);
        const std::string name =
            "trial " + std::to_string(trial) + ' ' + describeCuts(cuts);

        NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 777);
        NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 777);
        ASSERT_EQ(sharded.net->shardCount(), cuts.size() + 1) << name;

        for (Cycle t = 0; t < 600; ++t) {
            oracle.net->step();
            sharded.net->stepUntil(oracle.net->now());
            ASSERT_EQ(sharded.net->now(), oracle.net->now()) << name;
            ASSERT_EQ(sharded.net->totalOccupancy(),
                      oracle.net->totalOccupancy())
                << name << " at cycle " << t;
            ASSERT_EQ(sharded.net->progressCounter(),
                      oracle.net->progressCounter())
                << name << " at cycle " << t;
            ASSERT_EQ(sharded.net->totalOccupancy(),
                      sharded.net->totalOccupancySlow())
                << name << " merge drift at cycle " << t;
        }
        expectSameDeliveryStreams(sharded, oracle, name);
        EXPECT_GT(oracle.deliveredCount(), 0u) << name;
    }
}

TEST(ShardBoundary, AdversarialSliverCutsStayLockstep)
{
    // Three 1-node shards carved off the corner plus the 13-node rest:
    // the slivers spend most low-load cycles with no active component,
    // so the coordinator constantly crosses idle shards while others
    // work. Everything must still match the scan oracle exactly.
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {1, 2, 3};
    NetRig oracle(radices, KernelKind::Scan, {}, 0.05, 4242);
    NetRig sharded(radices, KernelKind::Parallel, cuts, 0.05, 4242);
    ASSERT_EQ(sharded.net->shardCount(), 4u);

    for (Cycle t = 0; t < 2000; ++t) {
        oracle.net->step();
        sharded.net->stepUntil(oracle.net->now());
        ASSERT_EQ(sharded.net->now(), oracle.net->now());
        ASSERT_EQ(sharded.net->totalOccupancy(),
                  oracle.net->totalOccupancy())
            << " at cycle " << t;
        ASSERT_EQ(sharded.net->progressCounter(),
                  oracle.net->progressCounter())
            << " at cycle " << t;
    }
    expectSameDeliveryStreams(sharded, oracle, "sliver cuts");
}

TEST(ShardBoundary, IdleShardsFastForwardLikeActive)
{
    // Cut injection, drain, and step a long span: a fully idle sharded
    // network must fast-forward exactly as the active kernel does —
    // same clock, same fast-forward count, no component work at all.
    auto drain = [](NetRig& rig) {
        for (Cycle t = 0; t < 400; ++t)
            rig.net->step();
        rig.net->setInjectionEnabled(false);
        Cycle waited = 0;
        while ((rig.net->totalOccupancy() > 0 ||
                rig.net->totalBacklog() > 0) &&
               waited < 20000) {
            rig.net->stepUntil(rig.net->now() + 100);
            ++waited;
        }
        ASSERT_EQ(rig.net->totalOccupancy(), 0u) << "drain hung";
    };
    const std::vector<int> radices = {4, 4};
    // Batch cap 1: this test pins per-call stepUntil parity (the
    // fast-forward skip counts), which is only defined when the
    // parallel kernel barriers every cycle like the active kernel.
    // Batching-vs-fast-forward interplay is covered by
    // BatchSizesAgreeOnCountersAndStreams.
    RigOpts opts;
    opts.maxBatch = 1;
    NetRig active(radices, KernelKind::Active, {}, 0.2, 99, opts);
    NetRig sharded(radices, KernelKind::Parallel, {5, 9}, 0.2, 99,
                   opts);
    drain(active);
    drain(sharded);
    ASSERT_EQ(sharded.net->now(), active.net->now());
    expectSameDeliveryStreams(sharded, active, "idle shards");

    const Network::KernelCounters a0 = active.net->kernelCounters();
    const Network::KernelCounters p0 = sharded.net->kernelCounters();
    const Cycle horizon = active.net->now() + 50000;
    while (active.net->now() < horizon) {
        active.net->stepUntil(horizon);
        sharded.net->stepUntil(horizon);
        ASSERT_EQ(sharded.net->now(), active.net->now());
    }
    const Network::KernelCounters a1 = active.net->kernelCounters();
    const Network::KernelCounters p1 = sharded.net->kernelCounters();
    // The drained span is crossed by fast-forward, not stepping: no
    // router work on either kernel, identical skip counts.
    EXPECT_EQ(a1.routerSteps, a0.routerSteps);
    EXPECT_EQ(p1.routerSteps, p0.routerSteps);
    EXPECT_EQ(p1.fastForwardedCycles - p0.fastForwardedCycles,
              a1.fastForwardedCycles - a0.fastForwardedCycles);
    EXPECT_GT(p1.fastForwardedCycles, p0.fastForwardedCycles);
}

TEST(ShardBoundary, BatchedSteppingMatchesScanOracle)
{
    // linkDelay 3 widens the safe lookahead to 4 cycles. Batch caps
    // 1, 2 and 4 must all reproduce the scan oracle exactly at every
    // 8-cycle checkpoint (stepUntil horizons cap batches, so every
    // variant lands on each checkpoint cycle precisely).
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {4, 8, 12};
    for (const Cycle batch : {Cycle{1}, Cycle{2}, Cycle{4}}) {
        const std::string name = "batch " + std::to_string(batch);
        RigOpts scan_opts;
        scan_opts.linkDelay = 3;
        RigOpts par_opts;
        par_opts.linkDelay = 3;
        par_opts.maxBatch = batch;
        NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 777,
                      scan_opts);
        NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 777,
                       par_opts);
        ASSERT_EQ(sharded.net->batchCap(), batch) << name;

        for (Cycle cp = 8; cp <= 800; cp += 8) {
            while (oracle.net->now() < cp)
                oracle.net->stepUntil(cp);
            while (sharded.net->now() < cp)
                sharded.net->stepUntil(cp);
            ASSERT_EQ(sharded.net->now(), oracle.net->now()) << name;
            ASSERT_EQ(sharded.net->totalOccupancy(),
                      oracle.net->totalOccupancy())
                << name << " at cycle " << cp;
            ASSERT_EQ(sharded.net->progressCounter(),
                      oracle.net->progressCounter())
                << name << " at cycle " << cp;
            ASSERT_EQ(sharded.net->totalOccupancy(),
                      sharded.net->totalOccupancySlow())
                << name << " merge drift at cycle " << cp;
        }
        expectSameDeliveryStreams(sharded, oracle, name);
        EXPECT_GT(oracle.deliveredCount(), 0u) << name;
    }
}

TEST(ShardBoundary, BatchSizesAgreeOnCountersAndStreams)
{
    // Batch cap 1 (barrier every cycle) versus the full 4-cycle
    // lookahead: identical work counters at every checkpoint and
    // identical per-destination streams. Fast-forward counts are NOT
    // pinned — a 1-cycle batch may skip idle stretches a wider batch
    // steps through — but component work must match exactly because
    // the active sets evolve identically.
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {4, 8, 12};
    RigOpts o1;
    o1.linkDelay = 3;
    o1.maxBatch = 1;
    RigOpts o4;
    o4.linkDelay = 3;
    o4.maxBatch = 4;
    NetRig a(radices, KernelKind::Parallel, cuts, 0.4, 1234, o1);
    NetRig b(radices, KernelKind::Parallel, cuts, 0.4, 1234, o4);
    for (Cycle cp = 8; cp <= 640; cp += 8) {
        while (a.net->now() < cp)
            a.net->stepUntil(cp);
        while (b.net->now() < cp)
            b.net->stepUntil(cp);
        const Network::KernelCounters ka = a.net->kernelCounters();
        const Network::KernelCounters kb = b.net->kernelCounters();
        ASSERT_EQ(ka.wireEventsDelivered, kb.wireEventsDelivered)
            << "at cycle " << cp;
        ASSERT_EQ(ka.nicSteps, kb.nicSteps) << "at cycle " << cp;
        ASSERT_EQ(ka.routerSteps, kb.routerSteps) << "at cycle " << cp;
    }
    // The same work also landed on the same shards.
    for (std::size_t s = 0; s < a.net->shardCount(); ++s) {
        const Network::KernelCounters& sa = a.net->shardCounters(s);
        const Network::KernelCounters& sb = b.net->shardCounters(s);
        EXPECT_EQ(sa.nicSteps, sb.nicSteps) << "shard " << s;
        EXPECT_EQ(sa.routerSteps, sb.routerSteps) << "shard " << s;
        EXPECT_EQ(sa.wireEventsDelivered, sb.wireEventsDelivered)
            << "shard " << s;
    }
    expectSameDeliveryStreams(a, b, "batch 1 vs 4");
}

TEST(ShardBoundary, FaultsMidBatchForceBarriersAtExactCycles)
{
    // A link down at cycle 402 and its repair at 450 both sit mid-way
    // through a 4-cycle batch window. The kernel must place a barrier
    // at exactly those cycles (batchCycles ends the batch at the next
    // fault event; the idle fast-forward also stops there), collapse
    // to 1-cycle batches while the failure is live, and keep the
    // whole faulted run byte-identical to the scan oracle.
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {4, 8, 12};
    auto makeOpts = [](Cycle max_batch) {
        RigOpts opts;
        opts.linkDelay = 3;
        opts.maxBatch = max_batch;
        opts.faults.addDown(402, 5, 1);
        opts.faults.addUp(450, 5, 1);
        opts.reconfigLatency = 37; // reconfig at 439 / 487, mid-batch
        return opts;
    };
    NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 90210,
                  makeOpts(0));
    NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 90210,
                   makeOpts(4));

    std::vector<Cycle> barriers;
    for (Cycle cp = 8; cp <= 800; cp += 8) {
        while (oracle.net->now() < cp)
            oracle.net->stepUntil(cp);
        while (sharded.net->now() < cp) {
            sharded.net->stepUntil(cp);
            barriers.push_back(sharded.net->now());
        }
        ASSERT_EQ(sharded.net->totalOccupancy(),
                  oracle.net->totalOccupancy())
            << "at cycle " << cp;
        ASSERT_EQ(sharded.net->progressCounter(),
                  oracle.net->progressCounter())
            << "at cycle " << cp;
    }
    // The stepping sequence paused exactly at both fault events and
    // both reconfiguration sweeps — no batch crossed them.
    for (const Cycle must_stop : {Cycle{402}, Cycle{439}, Cycle{450},
                                  Cycle{487}}) {
        EXPECT_TRUE(std::find(barriers.begin(), barriers.end(),
                              must_stop) != barriers.end())
            << "no barrier at cycle " << must_stop;
    }
    ASSERT_EQ(sharded.net->faultCounters().linkDownEvents, 1u);
    ASSERT_EQ(sharded.net->faultCounters().linkUpEvents, 1u);
    expectSameDeliveryStreams(sharded, oracle, "fault mid-batch");
}

TEST(ShardBoundary, TelemetryWindowsMidBatchStayByteIdentical)
{
    // A 6-cycle telemetry window never aligns with the 4-cycle batch
    // cap, so every capture forces a barrier mid-batch. The JSONL
    // telemetry streams must come out byte-for-byte equal to the scan
    // oracle's — same windows, same per-node counters, same idle
    // splits.
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {4, 8, 12};
    auto makeOpts = [](Cycle max_batch) {
        RigOpts opts;
        opts.linkDelay = 3;
        opts.maxBatch = max_batch;
        opts.telemetryWindow = 6;
        return opts;
    };
    NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 5150,
                  makeOpts(0));
    NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 5150,
                   makeOpts(4));
    TelemetryBuffer oracle_buf(oracle.topo.numNodes(),
                               oracle.topo.numPorts());
    TelemetryBuffer sharded_buf(sharded.topo.numNodes(),
                                sharded.topo.numPorts());
    oracle.net->attachTelemetryBuffer(&oracle_buf);
    sharded.net->attachTelemetryBuffer(&sharded_buf);

    for (Cycle cp = 8; cp <= 600; cp += 8) {
        while (oracle.net->now() < cp)
            oracle.net->stepUntil(cp);
        while (sharded.net->now() < cp)
            sharded.net->stepUntil(cp);
    }
    ASSERT_EQ(sharded_buf.windows(), oracle_buf.windows());
    ASSERT_GT(sharded_buf.windows(), 0u);
    std::ostringstream oracle_jsonl;
    std::ostringstream sharded_jsonl;
    oracle_buf.writeJsonl(oracle_jsonl);
    sharded_buf.writeJsonl(sharded_jsonl);
    EXPECT_EQ(sharded_jsonl.str(), oracle_jsonl.str());
    expectSameDeliveryStreams(sharded, oracle, "telemetry mid-batch");
}

TEST(ShardBoundary, InvalidBoundariesRefuse)
{
    const std::vector<int> radices = {4, 4};
    auto build = [&](std::vector<NodeId> cuts) {
        NetRig rig(radices, KernelKind::Parallel, std::move(cuts),
                   0.1, 1);
    };
    EXPECT_THROW(build({0}), ConfigError);        // not interior
    EXPECT_THROW(build({16}), ConfigError);       // past the edge
    EXPECT_THROW(build({4, 4}), ConfigError);     // duplicate
    EXPECT_THROW(build({9, 3}), ConfigError);     // not ascending
    EXPECT_NO_THROW(build({1, 15}));              // extremes are legal
}

TEST(ShardBoundary, ParallelSaturationSoakCountersExactEveryBarrier)
{
    // Soak at saturating load with the balanced 4-shard cut: every
    // cycle barrier must leave the O(1) occupancy and progress
    // counters exactly equal to their recomputed sums. Any lost or
    // double-merged per-shard delta (the classic parallel-reduction
    // bug) trips within one cycle of happening.
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 1.5;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 5000;
    cfg.seed = 31337;
    cfg.kernel = KernelKind::Parallel;
    cfg.intraJobs = 4;
    Simulation sim(cfg);
    ASSERT_EQ(sim.network().shardCount(), 4u);
    for (Cycle t = 0; t < 3000; ++t) {
        sim.stepCycles(1);
        ASSERT_EQ(sim.network().totalOccupancy(),
                  sim.network().totalOccupancySlow())
            << "occupancy merge drift at cycle " << t;
        ASSERT_EQ(sim.network().progressCounter(),
                  sim.network().progressCounterSlow())
            << "progress merge drift at cycle " << t;
    }
    // The soak genuinely saturated the network (the regime under
    // test), with every shard holding work.
    EXPECT_GT(sim.network().totalOccupancy(),
              static_cast<std::size_t>(cfg.radices[0]));
}

} // namespace
} // namespace lapses
