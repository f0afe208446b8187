#include "core/simulation.hpp"

#include <algorithm>

namespace lapses
{
namespace
{

/** Cycles between phase-predicate evaluations inside a saturation
 *  window. Every kernel steps to the same quantum boundaries (the
 *  quantum is the stepUntil horizon, so a parallel-kernel batch never
 *  crosses one), which makes phase transitions — measure start/end,
 *  drain end — land on identical cycles and keeps the results
 *  byte-identical across kernels, shard counts and batch caps. */
constexpr Cycle kPhaseQuantum = 8;

/** Merge lanes [begin, end) with a pairwise tree (recursive
 *  midpoint split). The tree shape depends only on the lane count,
 *  never on delivery order or shard layout, so the merged Welford
 *  state is bit-for-bit reproducible. */
template <typename Lane>
Lane
reduceTree(const std::vector<Lane>& lanes, std::size_t begin,
           std::size_t end)
{
    if (end - begin == 1)
        return lanes[begin];
    const std::size_t mid = begin + (end - begin) / 2;
    Lane left = reduceTree(lanes, begin, mid);
    left.merge(reduceTree(lanes, mid, end));
    return left;
}

} // namespace

Simulation::Simulation(const SimConfig& cfg)
    : cfg_(cfg), topo_(buildTopology(cfg))
{
    cfg_.validate();
    algo_ = makeRoutingAlgorithm(cfg_.routing, topo_);
    table_ = makeRoutingTable(cfg_.table, topo_, *algo_);
    pattern_ = makeTrafficPattern(cfg_.traffic, topo_, cfg_.hotspot);
    net_ = std::make_unique<Network>(cfg_, topo_, *algo_, *table_,
                                     *pattern_);
    net_->setDeliveryHook(&Simulation::deliveryHook, this);
    net_->setRequestHook(&Simulation::requestHook, this);

    // Delivery-side accumulators: one lane per destination node (node
    // d ejects on the thread owning d's shard, so lane writes never
    // race), one integer tally per shard. reduceStats() folds them
    // into stats_ at phase boundaries and saturation checks.
    lanes_.resize(topo_.numNodes());
    request_lanes_.resize(topo_.numNodes());
    tallies_.reserve(net_->shardCount());
    for (std::size_t s = 0; s < net_->shardCount(); ++s) {
        tallies_.emplace_back(
            stats_.latencyHist.bucketWidth(),
            stats_.latencyHist.numBuckets(),
            stats_.requestLatencyHist.bucketWidth(),
            stats_.requestLatencyHist.numBuckets());
    }

    stats_.offeredFlitRate = net_->msgsPerCycle() * cfg_.msgLen;
}

Simulation::~Simulation() = default;

void
Simulation::deliveryHook(void* ctx, const MessageDescriptor& msg,
                         Cycle now)
{
    static_cast<Simulation*>(ctx)->recordDelivery(msg, now);
}

void
Simulation::LatencyLane::add(double latency, Cycle at, Cycle lastFault)
{
    all.add(latency);
    if (lastFault == kNeverCycle)
        return;
    postFault.add(latency);
    recovery[std::min<std::size_t>(
                 (at - lastFault) / SimStats::kRecoveryBucketCycles,
                 SimStats::kRecoveryBuckets - 1)]
        .add(latency);
}

void
Simulation::LatencyLane::merge(const LatencyLane& other)
{
    all.merge(other.all);
    postFault.merge(other.postFault);
    for (std::size_t b = 0; b < SimStats::kRecoveryBuckets; ++b)
        recovery[b].merge(other.recovery[b]);
}

void
Simulation::DeliveryLane::merge(const DeliveryLane& other)
{
    total.merge(other.total);
    network.merge(other.network);
    hops.merge(other.hops);
}

void
Simulation::recordDelivery(const MessageDescriptor& msg, Cycle now)
{
    // Runs on the thread that ejected the message (a shard worker
    // under the parallel kernel): only the per-destination lane and
    // the owning shard's tally may be touched here. measuring_window_
    // and lastFaultCycle() are written in sequential phases only.
    ShardTally& tally = tallies_[net_->shardOf(msg.dest)];
    if (measuring_window_)
        tally.windowFlits += msg.msgLen;
    if (!msg.measured)
        return;
    const auto total = static_cast<double>(now - msg.createdAt);
    DeliveryLane& lane = lanes_[msg.dest];
    lane.total.add(total, now, net_->lastFaultCycle());
    lane.network.add(static_cast<double>(now - msg.injectedAt));
    lane.hops.add(static_cast<double>(msg.hops));
    tally.latencyHist.add(total);
    ++tally.deliveredMessages;
    tally.deliveredFlits += msg.msgLen;
}

void
Simulation::requestHook(void* ctx, NodeId client, Cycle issuedAt,
                        Cycle completedAt, bool measured)
{
    // Runs on the thread owning the client's shard (completions fire
    // at the client NIC's ejection path): touch only that node's
    // request lane and its shard's tally. Requests issued in the
    // measurement window are recorded wherever they complete —
    // including the drain phase, or p99/p999 would be survivorship-
    // biased toward the fast ones.
    if (!measured)
        return;
    auto& sim = *static_cast<Simulation*>(ctx);
    const auto latency = static_cast<double>(completedAt - issuedAt);
    sim.request_lanes_[client].add(latency, completedAt,
                                   sim.net_->lastFaultCycle());
    sim.tallies_[sim.net_->shardOf(client)].requestLatencyHist.add(
        latency);
}

void
Simulation::reduceStats()
{
    const std::size_t n = lanes_.size();
    const DeliveryLane delivery = reduceTree(lanes_, 0, n);
    stats_.totalLatency = delivery.total.all;
    stats_.postFaultLatency = delivery.total.postFault;
    stats_.recoveryCurve = delivery.total.recovery;
    stats_.networkLatency = delivery.network;
    stats_.hops = delivery.hops;
    const LatencyLane requests = reduceTree(request_lanes_, 0, n);
    stats_.requestLatency = requests.all;
    stats_.postFaultRequestLatency = requests.postFault;
    stats_.requestRecoveryCurve = requests.recovery;

    stats_.latencyHist.reset();
    stats_.requestLatencyHist.reset();
    stats_.deliveredMessages = 0;
    stats_.deliveredFlits = 0;
    window_flits_ = 0;
    for (const ShardTally& t : tallies_) {
        stats_.latencyHist.merge(t.latencyHist);
        stats_.requestLatencyHist.merge(t.requestLatencyHist);
        stats_.deliveredMessages += t.deliveredMessages;
        stats_.deliveredFlits += t.deliveredFlits;
        window_flits_ += t.windowFlits;
    }

    // Closed-loop reliability counters are integers summed over the
    // engines in node order — exact and kernel-invariant.
    if (net_->closedLoop()) {
        const Network::WorkloadCounters wc = net_->workloadCounters();
        stats_.requestsIssued = wc.issuedMeasured;
        stats_.requestsCompleted = wc.completedMeasured;
        stats_.requestsFailed = wc.failedMeasured;
        stats_.requestTimeouts = wc.timeouts;
        stats_.requestRetries = wc.retries;
        stats_.duplicateRequests = wc.duplicateRequests;
        stats_.duplicateReplies = wc.duplicateReplies;
        stats_.suppressedReinjects =
            net_->faultCounters().suppressedReinjects;
    }
}

bool
Simulation::saturationCheck()
{
    Network& net = *net_;
    const Cycle now = net.now();

    // Fold the per-node lanes and per-shard tallies into stats_ so the
    // latency cutoff below sees current values. Runs between stepping
    // slices, so no shard worker is touching the sources.
    reduceStats();

    // Deadlock watchdog: flits are in the network but nothing moved for
    // a long time. This is a configuration error (non-deadlock-free
    // routing), not saturation. Closed-loop runs also count the
    // reliability layer's events as progress (a long backoff moves no
    // flits but is not a stall), and a trip with requests outstanding
    // dumps the outstanding-request table — the flit occupancy alone
    // says nothing about which client/server pair wedged.
    std::uint64_t progress = net.progressCounter();
    if (net.closedLoop()) {
        const Network::WorkloadCounters wc = net.workloadCounters();
        progress += wc.completed + wc.failed + wc.timeouts +
                    wc.retries;
    }
    if (progress != last_progress_count_) {
        last_progress_count_ = progress;
        last_progress_cycle_ = now;
    } else if (now - last_progress_cycle_ > cfg_.deadlockCycles &&
               (net.totalOccupancy() > 0 ||
                (net.closedLoop() &&
                 !net.outstandingRequests().empty()))) {
        std::string msg =
            "deadlock detected: no flit movement for " +
            std::to_string(now - last_progress_cycle_) +
            " cycles with flits in flight (" + cfg_.describe() + ")";
        if (net.closedLoop()) {
            const auto rows = net.outstandingRequests();
            msg += "\noutstanding requests (" +
                   std::to_string(rows.size()) + "):";
            constexpr std::size_t kMaxRows = 20;
            for (std::size_t i = 0;
                 i < rows.size() && i < kMaxRows; ++i) {
                const Network::OutstandingRow& r = rows[i];
                msg += "\n  client " + std::to_string(r.client) +
                       " -> server " + std::to_string(r.server) +
                       " req " + std::to_string(r.reqSeq) +
                       " attempt " + std::to_string(r.attempt) +
                       (r.backingOff ? " (backing off)" : "") +
                       " deadline " + std::to_string(r.deadline);
            }
            if (rows.size() > kMaxRows)
                msg += "\n  ... " +
                       std::to_string(rows.size() - kMaxRows) +
                       " more";
        }
        throw SimulationError(msg);
    }

    // Saturation: the offered load exceeds what the network drains.
    // Source backlog accumulates only at endpoints, so the limit
    // scales with the endpoint count (== numNodes on meshes).
    const double backlog_limit =
        cfg_.backlogSatPerNode *
        static_cast<double>(topo_.numEndpoints());
    if (static_cast<double>(net.totalBacklog()) > backlog_limit)
        return true;
    if (stats_.totalLatency.count() >= 100 &&
        stats_.totalLatency.mean() > cfg_.latencySatCutoff) {
        return true;
    }
    return now >= cfg_.maxCycles;
}

template <typename Pred>
bool
Simulation::runUntil(Pred pred)
{
    Network& net = *net_;
    while (!pred()) {
        // Batch cycles between saturation checks to keep the check off
        // the per-cycle fast path. The 256-cycle window is measured on
        // the cycle clock, not in step() calls, so every kernel runs
        // saturationCheck() at identical cycles and stays
        // byte-identical; inside a window the active kernel
        // fast-forwards idle stretches via stepUntil and the phase
        // predicate is evaluated on the fixed kPhaseQuantum grid.
        const Cycle window_end = net.now() + 256;
        while (net.now() < window_end && !pred()) {
            Cycle q = net.now() + kPhaseQuantum -
                      net.now() % kPhaseQuantum;
            if (q > window_end)
                q = window_end;
            while (net.now() < q)
                net.stepUntil(q);
        }
        if (saturationCheck()) {
            stats_.saturated = true;
            return false;
        }
    }
    return true;
}

void
Simulation::stepCycles(Cycle n)
{
    const Cycle end = net_->now() + n;
    while (net_->now() < end)
        net_->stepUntil(end);
}

Simulation::PhaseCounts
Simulation::phaseCounts() const
{
    const Network& net = *net_;
    if (net.closedLoop()) {
        const Network::WorkloadCounters wc = net.workloadCounters();
        return {wc.issued, wc.issuedMeasured,
                wc.completedMeasured + wc.failedMeasured};
    }
    // Measured messages a fault permanently dropped never deliver;
    // they count as resolved.
    return {net.createdTotal(), net.createdMeasured(),
            net.deliveredMeasured() + net.droppedMeasured()};
}

void
Simulation::runPhases()
{
    Network& net = *net_;

    // Phase 1: warm-up. Run unmeasured until the configured number of
    // messages (requests) has been issued.
    if (!runUntil([&] {
            return phaseCounts().issued >= cfg_.warmupMessages;
        })) {
        return;
    }

    // Phase 2: measurement window. Tag new messages (requests, and
    // the flits they generate); stop tagging after the quota.
    net.setMeasuring(true);
    measuring_window_ = true;
    measure_start_ = net.now();
    const bool measured = runUntil([&] {
        return phaseCounts().issuedMeasured >= cfg_.measureMessages;
    });
    net.setMeasuring(false);
    measure_end_ = net.now();
    measuring_window_ = false;
    stats_.injectedMessages = phaseCounts().issuedMeasured;
    if (!measured)
        return;

    // Phase 3: drain. Open-loop injection continues (unmeasured) to
    // hold the load steady while tagged messages finish. Closed loop
    // stops admitting new requests but keeps the reliability layer
    // live — timers, retries and backoff continue until every
    // measured request has completed or exhausted its retry budget,
    // which takes a bounded number of timeout + backoff rounds.
    if (net.closedLoop())
        net.setInjectionEnabled(false);
    if (!runUntil([&] {
            const PhaseCounts c = phaseCounts();
            return c.resolvedMeasured >= c.issuedMeasured;
        })) {
        return;
    }

    stats_.measuredCycles = measure_end_ - measure_start_;
    reduceStats();
    if (stats_.measuredCycles > 0) {
        const auto cycles = static_cast<double>(stats_.measuredCycles);
        stats_.acceptedFlitRate =
            static_cast<double>(window_flits_) /
            (cycles * static_cast<double>(topo_.numEndpoints()));
        if (net.closedLoop()) {
            stats_.requestGoodput =
                static_cast<double>(stats_.requestsCompleted) / cycles;
            stats_.requestOffered =
                static_cast<double>(stats_.requestsIssued) / cycles;
        }
    }
}

SimStats
Simulation::run()
{
    runPhases();
    // Every exit path — including saturation and the early returns in
    // runPhases — reports fully reduced statistics.
    reduceStats();
    // Resilience counters accumulate in the network across all
    // phases; every exit path (including saturation) reports them.
    const Network::FaultCounters& fc = net_->faultCounters();
    stats_.linkDownEvents = fc.linkDownEvents;
    stats_.linkUpEvents = fc.linkUpEvents;
    stats_.reconfigurations = fc.reconfigurations;
    stats_.droppedMessages = fc.droppedMessages;
    stats_.droppedFlits = fc.droppedFlits;
    stats_.reinjectedMessages = fc.reinjectedMessages;
    stats_.reroutedHeads = fc.reroutedHeads;
    return stats_;
}

} // namespace lapses
