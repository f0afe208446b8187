#include "network/network.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "core/experiment.hpp"
#include "exp/thread_pool.hpp"
#include "selection/selector_factory.hpp"

namespace lapses
{
namespace
{

/** Accumulates wall-clock seconds into `acc` while in scope; reads the
 *  host clock only when profiling is on (one branch otherwise). */
class ScopedPhaseTimer
{
  public:
    ScopedPhaseTimer(bool on, double& acc) : acc_(on ? &acc : nullptr)
    {
        if (acc_ != nullptr)
            t0_ = std::chrono::steady_clock::now();
    }

    ~ScopedPhaseTimer()
    {
        if (acc_ != nullptr) {
            *acc_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0_)
                         .count();
        }
    }

    ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
    ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

  private:
    double* acc_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace

// A flit transmitted during cycle t is latched into the sender's output
// register at the end of t, spends linkDelay cycles on the wire, and is
// synchronized by the receiver during t + 1 + linkDelay. This keeps the
// contention-free hop cost at exactly (pipeline stages + link delay)
// cycles, matching Table 2 (6 for PROUD, 5 for LA-PROUD with unit link
// delay).

KernelKind
resolveKernelKind(KernelKind requested)
{
    if (requested != KernelKind::Auto)
        return requested;
    const char* env = std::getenv("LAPSES_KERNEL");
    if (env == nullptr || *env == '\0' ||
        std::strcmp(env, "active") == 0) {
        return KernelKind::Active;
    }
    if (std::strcmp(env, "scan") == 0)
        return KernelKind::Scan;
    if (std::strcmp(env, "parallel") == 0)
        return KernelKind::Parallel;
    // A typo here would silently bend a differential run back to the
    // default kernel; refuse instead.
    throw ConfigError("bad LAPSES_KERNEL value '" + std::string(env) +
                      "' (want scan, active or parallel)");
}

unsigned
resolveIntraJobs(unsigned requested)
{
    unsigned jobs = requested;
    const char* env = std::getenv("LAPSES_INTRA_JOBS");
    if (jobs == 0 && env != nullptr && *env != '\0') {
        jobs = static_cast<unsigned>(parseCheckedInt(
            "LAPSES_INTRA_JOBS", env, 1, std::numeric_limits<int>::max()));
    }
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    return std::min(jobs, MessagePool::kMaxBanks);
}

Cycle
resolveMaxBatchCycles(Cycle requested, Cycle linkDelay)
{
    Cycle cap = requested;
    const char* env = std::getenv("LAPSES_MAX_BATCH");
    if (cap == 0 && env != nullptr && *env != '\0') {
        cap = parseCheckedU64("LAPSES_MAX_BATCH", env);
        if (cap == 0) {
            throw ConfigError("bad LAPSES_MAX_BATCH value '0' (want a "
                              "positive integer)");
        }
    }
    if (cap == 0)
        cap = linkDelay + 1;
    // Events emitted at shard-local cycle t are due t + linkDelay + 1,
    // so a batch of linkDelay + 1 cycles can never consume anything
    // produced inside itself — the largest provably safe window.
    return std::min(cap, linkDelay + 1);
}

void
Network::RouterEnv::flitOut(PortId out_port, VcId out_vc,
                            const Flit& flit)
{
    // The shard-local clock, not now_: mid-batch the sender may be
    // ahead of the global cycle, and its emissions must land relative
    // to its own time axis.
    Network& net = *net_;
    net.emit(*sh_, {flit, id_, out_port, out_vc, WireKind::Flit},
             net.boundary_wire_[net.wireIndex(id_, out_port)] != 0);
}

void
Network::RouterEnv::creditOut(PortId in_port, VcId vc)
{
    Network& net = *net_;
    net.emit(*sh_, {{}, id_, in_port, vc, WireKind::Credit},
             net.boundary_wire_[net.wireIndex(id_, in_port)] != 0);
}

void
Network::RouterEnv::headUnroutable(PortId in_port, VcId vc)
{
    // Deferred: purging mid-step would make the kernels' (different
    // but unobservable) stepping orders observable through cross-
    // router state surgery — and, under the parallel kernel, would be
    // a cross-shard write from a stepping thread. Each shard collects
    // its own reports; processPendingUnroutable() merges and sorts
    // them after the step loops, identically under every kernel.
    sh_->pending_unroutable.emplace_back(id_, in_port, vc);
}

void
Network::NicEnv::injectFlit(VcId vc, const Flit& flit)
{
    // Injection wires deliver to the sender's own router: always
    // intra-shard.
    net_->emit(*sh_, {flit, id_, kLocalPort, vc, WireKind::Inject},
               /*boundary=*/false);
    // The flit enters the tracked domain (wires + router FIFOs). The
    // global occupancy counter belongs to the sequential phases;
    // stepping threads record the delta shard-locally and the barrier
    // merge folds it in.
    ++sh_->injected_flits;
}

Network::Network(const SimConfig& cfg, const Topology& topo,
                 const RoutingAlgorithm& algo, RoutingTable& table,
                 const TrafficPattern& pattern,
                 std::vector<NodeId> shard_cuts)
    : topo_(topo), cfg_(cfg), kernel_(resolveKernelKind(cfg.kernel)),
      escape_vcs_(resolveEscapeVcs(cfg, algo))
{
    const NodeId n = topo.numNodes();
    const int ports = topo.numPorts();
    Rng master(cfg.seed);

    // Validated before any component exists. Online reconfiguration
    // reprograms full tables only; other storage schemes cannot
    // express fault-aware entries (the Table 5 flexibility trade-off)
    // and fall back to dead-port masking.
    fault_events_ = buildFaultSchedule(cfg, topo).events();
    if (cfg.hasFaults())
        reprogram_table_ = dynamic_cast<FullTable*>(&table);

    // Closed-loop workload: the NICs' engines hash everything off the
    // run seed and all read this one copy of the options.
    workload_opts_ = {.kind = cfg.workload,
                      .requestTimeout = cfg.requestTimeout,
                      .maxRetries = cfg.maxRetries,
                      .backoffBase = cfg.backoffBase,
                      .inflightWindow = cfg.inflightWindow,
                      .servers = cfg.servers,
                      .serverNodes = {},
                      .serviceTime = cfg.serviceTime,
                      .seed = cfg.seed};
    if (closedLoop()) {
        // Servers are the first `servers` endpoints (the identity
        // block [0, servers) on all-endpoint topologies).
        if (cfg.servers >= topo.numEndpoints()) {
            throw ConfigError("servers must be in [1, numEndpoints) for "
                              "the request-reply workload");
        }
        for (int s = 0; s < cfg.servers; ++s)
            workload_opts_.serverNodes.push_back(
                topo.endpoint(static_cast<NodeId>(s)));
    }
    // Closed-loop runs zero the open-loop injectors: demand comes
    // from the request/reply engines instead of a rate process.
    if (!closedLoop())
        msgs_per_cycle_ = msgRateForLoad(topo, cfg.normalizedLoad,
                                         cfg.msgLen);
    const bool lookahead = cfg.model == RouterModel::LaProud;
    const RouterParams router_params{.vcsPerPort = cfg.vcsPerPort,
                                     .inBufDepth = cfg.bufferDepth,
                                     .outBufDepth = cfg.bufferDepth,
                                     .lookahead = lookahead,
                                     .escapeVcs = escape_vcs_};
    const Nic::Params nic_params{.numVcs = cfg.vcsPerPort,
                                 .routerBufDepth = cfg.bufferDepth,
                                 .msgLen = cfg.msgLen,
                                 .lookahead = lookahead,
                                 .injection = cfg.injection,
                                 .burst = cfg.burst,
                                 .msgsPerCycle = msgs_per_cycle_,
                                 .workload = &workload_opts_};

    // Contiguous component storage: stepping walks flat arrays instead
    // of chasing one heap pointer per router/NIC.
    routers_.reserve(static_cast<std::size_t>(n));
    nics_.reserve(static_cast<std::size_t>(n));
    router_envs_.resize(static_cast<std::size_t>(n));
    nic_envs_.resize(static_cast<std::size_t>(n));

    for (NodeId id = 0; id < n; ++id) {
        routers_.emplace_back(
            id, topo, router_params, table, algo.usesEscapeChannels(),
            makePathSelector(cfg.selector,
                             master.split(0x5E1Eu + static_cast<
                                          std::uint64_t>(id))),
            pool_);
        // Only endpoints source traffic: a pure-switch node keeps a
        // NIC (ejection port, credits) but its injector stays silent.
        Nic::Params node_params = nic_params;
        node_params.endpointIndex = topo.endpointIndex(id);
        if (node_params.endpointIndex == kInvalidNode) {
            node_params.msgsPerCycle = 0.0;
            node_params.workload = nullptr;
        }
        nics_.emplace_back(
            id, node_params, table, pattern,
            master.split(0x417Cu + static_cast<std::uint64_t>(id)),
            pool_);
        router_envs_[static_cast<std::size_t>(id)].bind(this, id);
        nic_envs_[static_cast<std::size_t>(id)].bind(this, id);
    }

    // Event-driven kernel bookkeeping.
    router_active_.assign(static_cast<std::size_t>(n), 0);
    nic_active_.assign(static_cast<std::size_t>(n), 0);
    nic_wake_at_.assign(static_cast<std::size_t>(n), kNeverCycle);
    buildShards(shard_cuts);

    // Telemetry: one counter block per router, allocated once so the
    // pointers handed to the routers stay stable, and the first window
    // boundary armed as a wake source.
    if (cfg.telemetryWindow > 0) {
        router_telemetry_.assign(static_cast<std::size_t>(n),
                                 RouterTelemetry(ports));
        for (NodeId id = 0; id < n; ++id) {
            routers_[static_cast<std::size_t>(id)].setTelemetry(
                &router_telemetry_[static_cast<std::size_t>(id)]);
        }
        next_telemetry_at_ = cfg.telemetryWindow;
    }
}

Network::~Network() = default;

void
Network::buildShards(const std::vector<NodeId>& shard_cuts)
{
    const NodeId n = topo_.numNodes();
    // Shard-count resolution: Active is the event kernel at exactly
    // one shard, whatever intraJobs or LAPSES_INTRA_JOBS say; Scan
    // keeps one inert shard so observers and merges stay uniform.
    std::vector<NodeId> bounds;
    if (kernel_ == KernelKind::Parallel) {
        if (!shard_cuts.empty()) {
            bounds = shard_cuts;
            NodeId prev = 0;
            for (const NodeId b : bounds) {
                if (b <= prev || b >= n) {
                    throw ConfigError(
                        "shard boundaries must be strictly ascending "
                        "interior node ids");
                }
                prev = b;
            }
            if (bounds.size() + 1 > MessagePool::kMaxBanks) {
                throw ConfigError("too many shards (max " +
                                  std::to_string(
                                      MessagePool::kMaxBanks) +
                                  ")");
            }
        } else {
            const auto jobs = static_cast<std::size_t>(std::min<
                unsigned>(resolveIntraJobs(cfg_.intraJobs),
                          static_cast<unsigned>(n)));
            for (std::size_t s = 1; s < jobs; ++s) {
                bounds.push_back(static_cast<NodeId>(
                    (static_cast<std::size_t>(n) * s) / jobs));
            }
        }
    }
    const std::size_t s_count = bounds.size() + 1;
    shards_.resize(s_count);
    shard_of_.assign(static_cast<std::size_t>(n), 0);
    for (std::size_t s = 0; s < s_count; ++s) {
        Shard& sh = shards_[s];
        sh.begin = s == 0 ? 0 : bounds[s - 1];
        sh.end = s + 1 == s_count ? n : bounds[s];
        sh.calendar = WireCalendar(cfg_.linkDelay);
        for (NodeId id = sh.begin; id < sh.end; ++id)
            shard_of_[static_cast<std::size_t>(id)] =
                static_cast<std::uint32_t>(s);
    }
    // One descriptor bank per shard: NICs of a shard acquire from its
    // bank, so concurrent injections never contend. Refs depend on
    // the bank layout — nothing observable may be ordered by MsgRef.
    pool_.configureBanks(static_cast<unsigned>(s_count));
    for (NodeId id = 0; id < n; ++id) {
        nics_[static_cast<std::size_t>(id)].setPoolBank(
            shard_of_[static_cast<std::size_t>(id)]);
    }
    // Every NIC starts active: its injection process may have an
    // arrival due at cycle 0. Routers start empty and asleep.
    for (NodeId id = 0; id < n; ++id)
        activateNic(id);
    // Classify every wire once: flit and credit wires at (node, port)
    // both connect to neighbor(node, port), so one table serves both
    // kinds. Port 0 (ejection / NIC credit) and injection wires stay
    // with their own node, hence intra-shard by construction.
    boundary_wire_.assign(static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(
                                  topo_.numPorts()),
                          0);
    if (s_count > 1) {
        for (NodeId id = 0; id < n; ++id) {
            for (PortId p = 1; p < topo_.numPorts(); ++p) {
                const NodeId peer = topo_.neighbor(id, p);
                if (peer != kInvalidNode &&
                    shard_of_[static_cast<std::size_t>(peer)] !=
                        shard_of_[static_cast<std::size_t>(id)]) {
                    boundary_wire_[wireIndex(id, p)] = 1;
                }
            }
        }
    }
    // Rebind the env adapters to their owning shards: emissions read
    // the shard-local clock and calendar cursor.
    for (NodeId id = 0; id < n; ++id) {
        Shard* sh = &shards_[shard_of_[static_cast<std::size_t>(id)]];
        router_envs_[static_cast<std::size_t>(id)].setShard(sh);
        nic_envs_[static_cast<std::size_t>(id)].setShard(sh);
    }
    batch_cap_ = kernel_ == KernelKind::Scan
                     ? 1
                     : resolveMaxBatchCycles(cfg_.maxBatchCycles,
                                             cfg_.linkDelay);
    // Workers for shards 1..S-1; the caller thread steps shard 0.
    // The pool is per-network, so campaign workers that each own a
    // parallel network can never deadlock on a shared pool.
    shard_errors_.resize(s_count);
    if (s_count > 1) {
        intra_pool_ = std::make_unique<ThreadPool>(
            static_cast<unsigned>(s_count - 1));
    }
}

void
Network::attachTelemetryBuffer(TelemetryBuffer* buffer)
{
    if (buffer != nullptr && cfg_.telemetryWindow == 0) {
        throw ConfigError(
            "telemetry buffer needs a nonzero telemetry window "
            "(set SimConfig::telemetryWindow / --telemetry-window)");
    }
    telemetry_buffer_ = buffer;
}

void
Network::captureTelemetryWindow()
{
    if (telemetry_buffer_ != nullptr) {
        telemetry_buffer_->beginWindow(
            now_ - cfg_.telemetryWindow, now_);
        for (NodeId id = 0; id < topo_.numNodes(); ++id) {
            telemetry_buffer_->sample(
                id, router_telemetry_[static_cast<std::size_t>(id)],
                nics_[static_cast<std::size_t>(id)].backlog());
        }
    }
    next_telemetry_at_ = now_ + cfg_.telemetryWindow;
}

void
Network::activateRouter(NodeId id)
{
    std::uint8_t& mark = router_active_[static_cast<std::size_t>(id)];
    if (mark == 0) {
        mark = 1;
        shards_[shard_of_[static_cast<std::size_t>(id)]]
            .active_routers.push_back(id);
    }
}

void
Network::activateNic(NodeId id)
{
    std::uint8_t& mark = nic_active_[static_cast<std::size_t>(id)];
    if (mark == 0) {
        mark = 1;
        shards_[shard_of_[static_cast<std::size_t>(id)]]
            .active_nics.push_back(id);
        nic_wake_at_[static_cast<std::size_t>(id)] = kNeverCycle;
    }
}

bool
Network::anyComponentActive() const
{
    for (const Shard& sh : shards_) {
        if (!sh.active_routers.empty() || !sh.active_nics.empty())
            return true;
    }
    return false;
}

Cycle
Network::nextEventCycle()
{
    Cycle next = kNeverCycle;
    for (Shard& sh : shards_) {
        next = std::min(next, sh.calendar.earliestDue(0, false));
        // Drop stale wake entries (NIC re-activated or rescheduled
        // since). Shards with nothing pending cost two empty checks —
        // the fast-forward hops straight over idle shards.
        while (!sh.nic_wakes.empty()) {
            const auto [cycle, id] = sh.nic_wakes.top();
            if (nic_active_[static_cast<std::size_t>(id)] == 0 &&
                nic_wake_at_[static_cast<std::size_t>(id)] == cycle) {
                next = std::min(next, cycle);
                break;
            }
            sh.nic_wakes.pop();
        }
    }
    // Fault events and reconfigurations are wake-up sources too: the
    // idle fast-forward must stop exactly at their cycles.
    if (next_fault_ < fault_events_.size())
        next = std::min(next, fault_events_[next_fault_].cycle);
    if (next_reconfig_ < reconfig_due_.size())
        next = std::min(next, reconfig_due_[next_reconfig_]);
    // So is every telemetry window boundary (kNeverCycle when off):
    // the snapshot at the top of step() must run at the exact boundary
    // cycle under every kernel.
    next = std::min(next, next_telemetry_at_);
    return next;
}

void
Network::deliver(Shard& sh, const WireEvent& ev, Cycle at)
{
    ++sh.counters.wireEventsDelivered;
    const NodeId id = ev.node;
    const PortId p = ev.port;
    // Trace keys are dense in (sending node, port), with the injection
    // wire after the node's last port.
    const auto trace_key = [&](int slot) {
        return static_cast<std::int32_t>(id) * (topo_.numPorts() + 1) +
               slot;
    };
    if (ev.kind == WireKind::Inject) {
        if (tracer_ != nullptr) {
            const MessageDescriptor& desc = pool_[ev.flit.msg];
            sh.trace.push_back({trace_key(topo_.numPorts()),
                                {at, TraceEvent::Kind::Inject, id,
                                 kLocalPort, desc.id, ev.flit.seq,
                                 ev.flit.type, desc.role, desc.attempt}});
        }
        routers_[static_cast<std::size_t>(id)].acceptFlit(
            kLocalPort, ev.vc, ev.flit, at);
        activateRouter(id);
        return;
    }
    if (p == kLocalPort) {
        if (ev.kind == WireKind::Credit) {
            nics_[static_cast<std::size_t>(id)].acceptCredit(ev.vc);
            activateNic(id);
            return;
        }
        if (tracer_ != nullptr) {
            const MessageDescriptor& desc = pool_[ev.flit.msg];
            sh.trace.push_back(
                {trace_key(p),
                 {at, TraceEvent::Kind::Eject, id, kInvalidPort, desc.id,
                  ev.flit.seq, ev.flit.type, desc.role, desc.attempt}});
        }
        // The flit leaves the tracked domain at its destination NIC.
        // Ejections happen only on the owning shard's delivery path;
        // the barrier merge folds the delta into occupancy_.
        ++sh.ejected_flits;
        Nic& nic = nics_[static_cast<std::size_t>(id)];
        nic.acceptFlit(ev.flit, at, *this);
        // A delivered request/reply arms new engine work (a service
        // completion, a freed window slot) the NIC's recorded wake
        // cannot know about — re-activate so it is stepped this very
        // cycle, exactly when the scan kernel would step it. Ejection
        // is intra-shard, so this touches only the owning shard.
        if (nic.closedLoop())
            activateNic(id);
        return;
    }
    const NodeId peer = topo_.neighbor(id, p);
    LAPSES_ASSERT(peer != kInvalidNode);
    Router& receiver = routers_[static_cast<std::size_t>(peer)];
    if (ev.kind == WireKind::Credit) {
        receiver.acceptCredit(topo_.peerPort(id, p), ev.vc);
    } else {
        if (tracer_ != nullptr) {
            sh.trace.push_back({trace_key(p),
                                {at, TraceEvent::Kind::HopArrive, peer,
                                 topo_.peerPort(id, p),
                                 pool_[ev.flit.msg].id, ev.flit.seq,
                                 ev.flit.type}});
        }
        receiver.acceptFlit(topo_.peerPort(id, p), ev.vc, ev.flit, at);
    }
    activateRouter(peer);
}

void
Network::drainCalendar(Shard& sh, bool boundary)
{
    // Emission order: which arrival of a cycle comes first reaches no
    // result (DESIGN.md "Wire-event calendar").
    sh.calendar.drain(sh.now, boundary, [&](const WireEvent& ev) {
        deliver(sh, ev, sh.now);
    });
}

void
Network::stepScan()
{
    Shard& sh = shards_[0];
    {
        // One shard owns every wire, so nothing is boundary.
        ScopedPhaseTimer timer(profiling_, profile_.wireDrainSeconds);
        drainCalendar(sh, /*boundary=*/false);
    }
    const auto n = static_cast<std::size_t>(topo_.numNodes());
    counters_.nicSteps += n;
    counters_.routerSteps += n;
    {
        ScopedPhaseTimer timer(profiling_, profile_.nicStepSeconds);
        for (NodeId id = 0; id < topo_.numNodes(); ++id) {
            const StepActivity act =
                nics_[static_cast<std::size_t>(id)].step(
                    now_, nic_envs_[static_cast<std::size_t>(id)]);
            progress_flits_ += act.progressed;
        }
    }
    {
        ScopedPhaseTimer timer(profiling_, profile_.routerStepSeconds);
        for (NodeId id = 0; id < topo_.numNodes(); ++id) {
            const StepActivity act =
                routers_[static_cast<std::size_t>(id)].step(
                    now_, router_envs_[static_cast<std::size_t>(id)]);
            progress_flits_ += act.progressed;
        }
    }
    mergeShardCycleState();
    processPendingUnroutable();
    ++now_;
    // The scan kernel never batches; keep the (single) shard clock and
    // its calendar in lockstep so emissions land in the right bucket.
    sh.now = now_;
    sh.calendar.advance();
}

void
Network::stepShardComponents(Shard& sh)
{
    // Everything below runs against the shard-local clock: under a
    // multi-cycle batch sh.now walks ahead of the global now_ until
    // the barrier re-syncs them.
    // 1. Wake own NICs whose injection process has an event due.
    while (!sh.nic_wakes.empty() &&
           sh.nic_wakes.top().first <= sh.now) {
        const auto [cycle, id] = sh.nic_wakes.top();
        sh.nic_wakes.pop();
        if (nic_active_[static_cast<std::size_t>(id)] == 0 &&
            nic_wake_at_[static_cast<std::size_t>(id)] == cycle) {
            activateNic(id);
        }
    }

    // 2. Step active NICs; a NIC with no backlog leaves the set and
    //    schedules its next injection-process wake.
    sh.counters.nicSteps += sh.active_nics.size();
    sh.scratch_nics.clear();
    {
        ScopedPhaseTimer timer(profiling_, sh.profile.nicStepSeconds);
        for (const NodeId id : sh.active_nics) {
            const StepActivity act =
                nics_[static_cast<std::size_t>(id)].step(
                    sh.now, nic_envs_[static_cast<std::size_t>(id)]);
            sh.progress_flits += act.progressed;
            if (act.pendingWork || act.nextWake == sh.now + 1) {
                // Still has backlog — or must step again next cycle
                // anyway (e.g. a Bernoulli process draws every cycle):
                // staying in the set skips a pointless heap round-trip.
                sh.scratch_nics.push_back(id);
            } else {
                nic_active_[static_cast<std::size_t>(id)] = 0;
                nic_wake_at_[static_cast<std::size_t>(id)] =
                    act.nextWake;
                if (act.nextWake != kNeverCycle)
                    sh.nic_wakes.emplace(act.nextWake, id);
            }
        }
    }
    sh.active_nics.swap(sh.scratch_nics);

    // 3. Step active routers; a router with empty buffers leaves the
    //    set until a flit or credit arrival re-activates it.
    sh.counters.routerSteps += sh.active_routers.size();
    sh.scratch_routers.clear();
    {
        ScopedPhaseTimer timer(profiling_,
                               sh.profile.routerStepSeconds);
        for (const NodeId id : sh.active_routers) {
            const StepActivity act =
                routers_[static_cast<std::size_t>(id)].step(
                    sh.now,
                    router_envs_[static_cast<std::size_t>(id)]);
            sh.progress_flits += act.progressed;
            if (act.pendingWork)
                sh.scratch_routers.push_back(id);
            else
                router_active_[static_cast<std::size_t>(id)] = 0;
        }
    }
    sh.active_routers.swap(sh.scratch_routers);
}

void
Network::mergeShardCycleState()
{
    for (Shard& sh : shards_) {
        occupancy_ += sh.injected_flits;
        sh.injected_flits = 0;
        occupancy_ -= sh.ejected_flits;
        sh.ejected_flits = 0;
        progress_flits_ += sh.progress_flits;
        sh.progress_flits = 0;
        delivered_total_ += sh.delivered_total;
        sh.delivered_total = 0;
        delivered_measured_ += sh.delivered_measured;
        sh.delivered_measured = 0;
        // Descriptor frees deferred from the stepping threads; the
        // pool is sequential-phase-only. Shard order is fixed, so the
        // release order is deterministic for a given configuration
        // (MsgRefs are unobservable — nothing may be ordered by them).
        for (const MsgRef msg : sh.pending_release)
            pool_.release(msg);
        sh.pending_release.clear();
    }
    if (tracer_ != nullptr)
        flushTrace();
}

void
Network::flushTrace()
{
    // A wire carries at most one traced flit per cycle and trace keys
    // name the sending wire, so (cycle, key) is unique: one sort of the
    // shards' buffers replays the same event stream into the
    // single-writer tracer whatever the shard count, batch size or
    // emission order.
    trace_merge_.clear();
    for (Shard& sh : shards_) {
        trace_merge_.insert(trace_merge_.end(), sh.trace.begin(),
                            sh.trace.end());
        sh.trace.clear();
    }
    std::stable_sort(trace_merge_.begin(), trace_merge_.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                         return a.ev.cycle != b.ev.cycle
                                    ? a.ev.cycle < b.ev.cycle
                                    : a.key < b.key;
                     });
    for (const TraceRecord& r : trace_merge_)
        tracer_->record(r.ev);
}

void
Network::stepShardCycles(Shard& sh, Cycle cycles)
{
    for (Cycle c = 0; c < cycles; ++c) {
        // Intra-shard deliveries first (receivers join the active
        // set), then the component slice — the same phase order the
        // scan kernel uses.
        {
            ScopedPhaseTimer timer(profiling_,
                                   sh.profile.intraDeliverySeconds);
            drainCalendar(sh, /*boundary=*/false);
        }
        stepShardComponents(sh);
        ++sh.now;
        sh.calendar.advance();
    }
}

void
Network::stepSharded(Cycle cycles)
{
    // Coordinator boundary drain, before any worker starts: boundary
    // events touch only router ingress state of other shards. Everything
    // else — intra-shard deliveries, stats hooks, descriptor releases,
    // trace records — happens on the owning shard's thread inside
    // stepShardCycles.
    {
        ScopedPhaseTimer timer(profiling_,
                               profile_.boundaryDrainSeconds);
        for (Shard& sh : shards_) {
            LAPSES_ASSERT(sh.now == now_);
            drainCalendar(sh, /*boundary=*/true);
        }
    }

    // Parallel stepping: one shard per thread, shard 0 on the
    // coordinator. Conservative lookahead — everything a shard emits
    // at local cycle t is due t + linkDelay + 1 — plus the batch caps
    // (batchCycles) means no stepping thread can ever consume another
    // shard's output inside the batch, so the only synchronization is
    // the join barrier itself.
    if (intra_pool_ == nullptr) {
        for (Shard& sh : shards_)
            stepShardCycles(sh, cycles);
    } else {
        {
            const std::lock_guard<std::mutex> lock(barrier_mutex_);
            barrier_pending_ = shards_.size() - 1;
        }
        for (std::size_t s = 1; s < shards_.size(); ++s) {
            intra_pool_->post([this, s, cycles] {
                try {
                    stepShardCycles(shards_[s], cycles);
                } catch (...) {
                    shard_errors_[s] = std::current_exception();
                }
                const std::lock_guard<std::mutex> lock(
                    barrier_mutex_);
                if (--barrier_pending_ == 0)
                    barrier_cv_.notify_one();
            });
        }
        try {
            stepShardCycles(shards_[0], cycles);
        } catch (...) {
            shard_errors_[0] = std::current_exception();
        }
        // Wait for every shard before rethrowing anything, so a
        // throwing shard cannot leave the others running into the
        // sequential phases.
        {
            ScopedPhaseTimer timer(profiling_,
                                   profile_.barrierWaitSeconds);
            std::unique_lock<std::mutex> lock(barrier_mutex_);
            barrier_cv_.wait(
                lock, [this] { return barrier_pending_ == 0; });
        }
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            if (shard_errors_[s] != nullptr) {
                const std::exception_ptr err = shard_errors_[s];
                for (auto& e : shard_errors_)
                    e = nullptr;
                std::rethrow_exception(err);
            }
        }
    }

    mergeShardCycleState();
    processPendingUnroutable();
    now_ += cycles;
}

Cycle
Network::batchCycles(Cycle horizon) const
{
    Cycle k = std::min<Cycle>(horizon - now_, batch_cap_);
    if (k <= 1)
        return 1;
    // Fault epochs need per-cycle purge processing.
    if (!failures_.empty())
        return 1;
    // Fault events, reconfigurations and telemetry windows run at the
    // fixed top of a cycle on the coordinator — the batch must end
    // exactly at the next such boundary. topOfCycle() already applied
    // everything due at now_, so these cursors point strictly ahead.
    if (next_fault_ < fault_events_.size())
        k = std::min(k, fault_events_[next_fault_].cycle - now_);
    if (next_reconfig_ < reconfig_due_.size())
        k = std::min(k, reconfig_due_[next_reconfig_] - now_);
    if (next_telemetry_at_ != kNeverCycle)
        k = std::min(k, next_telemetry_at_ - now_);
    if (k <= 1)
        return 1;
    // A boundary-crossing event due mid-batch needs the coordinator's
    // merge at exactly its cycle: end the batch there. Events due now_
    // are about to be drained; events emitted inside the batch are due
    // >= now_ + linkDelay + 1 >= now_ + k, after the batch.
    for (const Shard& sh : shards_) {
        const Cycle due = sh.calendar.earliestDue(now_ + 1, true);
        if (due != kNeverCycle)
            k = std::min(k, due - now_);
    }
    return std::max<Cycle>(k, 1);
}

void
Network::applyFaultEvents()
{
    while (next_fault_ < fault_events_.size() &&
           fault_events_[next_fault_].cycle <= now_) {
        const FaultEvent& event = fault_events_[next_fault_++];
        if (event.down)
            applyDownEvent(event.node, event.port);
        else
            applyUpEvent(event.node, event.port);
        last_fault_cycle_ = now_;
        // Every event opens (or extends) a reconfiguration window.
        const Cycle due = now_ + cfg_.reconfigLatency;
        if (reconfig_due_.empty() || reconfig_due_.back() != due)
            reconfig_due_.push_back(due);
        for (auto& r : routers_)
            r.setReconfigPending(true);
    }
    while (next_reconfig_ < reconfig_due_.size() &&
           reconfig_due_[next_reconfig_] <= now_) {
        ++next_reconfig_;
        applyReconfiguration();
    }
}

void
Network::applyDownEvent(NodeId node, PortId port)
{
    const NodeId peer = topo_.neighbor(node, port);
    const PortId peer_port = topo_.peerPort(node, port);
    LAPSES_ASSERT(peer != kInvalidNode);
    failures_.fail(topo_, node, port);
    routers_[static_cast<std::size_t>(node)].markPortDead(port);
    routers_[static_cast<std::size_t>(peer)].markPortDead(peer_port);

    // Collect every message the dying link cuts: flits in flight on
    // its two wires, flits and worm owners at its two endpoint ports.
    std::vector<MsgRef> affected;
    const auto on_link = [&](const WireEvent& ev, WireKind kind) {
        return ev.kind == kind &&
               ((ev.node == node && ev.port == port) ||
                (ev.node == peer && ev.port == peer_port));
    };
    for (const Shard& sh : shards_) {
        sh.calendar.forEach([&](const WireEvent& ev) {
            if (on_link(ev, WireKind::Flit))
                affected.push_back(ev.flit.msg);
        });
    }
    routers_[static_cast<std::size_t>(node)].collectPortMessages(
        port, affected);
    routers_[static_cast<std::size_t>(peer)].collectPortMessages(
        peer_port, affected);
    // Purge in deterministic message-id order, never raw MsgRef
    // order: refs follow pool allocation order, which differs between
    // kernels (and with the shard/bank count under the parallel
    // kernel), while ids are per-NIC sequence numbers. Purge order is
    // observable when two purged messages share a source NIC — both
    // requeueFront at the same queue. Equal ids mean equal refs, so
    // the id sort also makes duplicates adjacent for unique().
    std::sort(affected.begin(), affected.end(),
              [this](MsgRef a, MsgRef b) {
                  return pool_[a].id < pool_[b].id;
              });
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    for (const MsgRef msg : affected)
        purgeMessage(msg, /*allow_reinject=*/true);

    // Quarantine the dead channel: in-flight credits are lost with
    // the link, endpoint credit counters drop to zero (reset to full
    // at repair — by then both peer input buffers are empty).
    for (Shard& sh : shards_) {
        sh.calendar.removeIf([&](const WireEvent& ev) {
            LAPSES_ASSERT(!on_link(ev, WireKind::Flit));
            return on_link(ev, WireKind::Credit);
        });
    }
    routers_[static_cast<std::size_t>(node)].quarantineDeadPort(port);
    routers_[static_cast<std::size_t>(peer)].quarantineDeadPort(
        peer_port);
    ++fault_counters_.linkDownEvents;
}

void
Network::applyUpEvent(NodeId node, PortId port)
{
    const NodeId peer = topo_.neighbor(node, port);
    const PortId peer_port = topo_.peerPort(node, port);
    LAPSES_ASSERT(peer != kInvalidNode);
    failures_.repair(topo_, node, port);
    // While the link was down nothing could enter either endpoint's
    // buffers, so a full credit line is exact.
    routers_[static_cast<std::size_t>(node)].markPortAlive(
        port, cfg_.bufferDepth);
    routers_[static_cast<std::size_t>(peer)].markPortAlive(
        peer_port, cfg_.bufferDepth);
    ++fault_counters_.linkUpEvents;
}

void
Network::applyReconfiguration()
{
    // 1. Reprogram the table around the surviving topology (full
    //    tables only; the schedule validator guarantees the network
    //    is still connected).
    if (reprogram_table_ != nullptr) {
        reprogramFaultAwareTable(*reprogram_table_, topo_, failures_);
    }

    // 2. Re-route every held header from the fresh tables; heads with
    //    no surviving candidate are purged (always dropped: under
    //    Reinject they would retry the same dead route forever).
    std::vector<std::pair<PortId, VcId>> unroutable;
    for (NodeId id = 0; id < topo_.numNodes(); ++id) {
        unroutable.clear();
        routers_[static_cast<std::size_t>(id)].rerouteHeldHeads(
            unroutable, fault_counters_.reroutedHeads);
        for (const auto& [p, v] : unroutable) {
            const MsgRef msg =
                routers_[static_cast<std::size_t>(id)]
                    .heldUnroutableMsg(p, v);
            if (msg != kInvalidMsgRef)
                purgeMessage(msg, /*allow_reinject=*/false);
        }
    }

    // 3. Close the window once every scheduled reconfiguration ran.
    if (next_reconfig_ == reconfig_due_.size()) {
        for (auto& r : routers_)
            r.setReconfigPending(false);
    }
    ++fault_counters_.reconfigurations;
}

void
Network::purgeMessage(MsgRef msg, bool allow_reinject)
{
    const MessageDescriptor& desc = pool_[msg];
    const NodeId src = desc.src;
    const NodeId dest = desc.dest;
    const Cycle created_at = desc.createdAt;
    const bool measured = desc.measured;

    std::size_t removed = 0;

    // Router buffers; freed input slots credit the upstream hop
    // directly (cleanup is instantaneous and bypasses the wires —
    // identical under both kernels).
    for (NodeId id = 0; id < topo_.numNodes(); ++id) {
        Router& router = routers_[static_cast<std::size_t>(id)];
        removed += router.purgeMessage(
            msg, [&](PortId in_port, VcId vc) {
                if (in_port == kLocalPort) {
                    nics_[static_cast<std::size_t>(id)].acceptCredit(
                        vc);
                    activateNic(id);
                    return;
                }
                const NodeId up = topo_.neighbor(id, in_port);
                LAPSES_ASSERT(up != kInvalidNode);
                routers_[static_cast<std::size_t>(up)].acceptCredit(
                    topo_.peerPort(id, in_port), vc);
                activateRouter(up);
            });
    }

    // Flits still on wires. A flit on a (non-ejection) wire consumed
    // the sender's credit at transmit time and would return it from
    // the receiver's buffer — restore it straight to the sender. The
    // sender's port may itself be the dying link: restore anyway,
    // quarantine zeroes the counter afterwards.
    for (Shard& sh : shards_) {
        removed += sh.calendar.removeIf([&](const WireEvent& ev) {
            if (ev.kind == WireKind::Credit || ev.flit.msg != msg)
                return false;
            const auto id = static_cast<std::size_t>(ev.node);
            if (ev.kind == WireKind::Inject) {
                // The NIC spent a local-port credit on this flit.
                nics_[id].acceptCredit(ev.vc);
            } else if (ev.port != kLocalPort) {
                routers_[id].acceptCredit(ev.port, ev.vc);
            }
            return true;
        });
    }

    occupancy_ -= removed;
    fault_counters_.droppedFlits += removed;

    // Cancel the source NIC's stream (no-op when the message had
    // fully left the source).
    nics_[static_cast<std::size_t>(src)].cancelInjection(msg);

    Nic& src_nic = nics_[static_cast<std::size_t>(src)];
    if (allow_reinject &&
        cfg_.faultPolicy == FaultPolicy::Reinject &&
        !src_nic.wantsReinject(desc)) {
        // The client's reliability layer already timed this
        // transmission out (or resolved the request); it owns the
        // retry, so putting the purged copy back on the wire would
        // race it. Not a drop either — the request is still live in
        // the client's outstanding table.
        ++fault_counters_.suppressedReinjects;
    } else if (allow_reinject &&
               cfg_.faultPolicy == FaultPolicy::Reinject) {
        src_nic.requeueFront(dest, created_at, measured, desc.role,
                             desc.reqSeq, desc.attempt);
        ++fault_counters_.reinjectedMessages;
    } else {
        ++fault_counters_.droppedMessages;
        if (measured)
            ++dropped_measured_;
    }
    activateNic(src);
    pool_.release(msg);
}

void
Network::processPendingUnroutable()
{
    bool any = false;
    for (const Shard& sh : shards_) {
        if (!sh.pending_unroutable.empty()) {
            any = true;
            break;
        }
    }
    if (!any)
        return;
    // Merge the shards' reports and sort by (node, port, vc): the
    // processing order is then independent of which thread collected
    // which report — and of the kernels' stepping orders.
    unroutable_scratch_.clear();
    for (Shard& sh : shards_) {
        unroutable_scratch_.insert(unroutable_scratch_.end(),
                                   sh.pending_unroutable.begin(),
                                   sh.pending_unroutable.end());
        sh.pending_unroutable.clear();
    }
    std::sort(unroutable_scratch_.begin(), unroutable_scratch_.end());
    for (const auto& [id, p, v] : unroutable_scratch_) {
        // Re-verify: an earlier purge this cycle may have freed the
        // VC, or a duplicate report may target an already-purged head.
        const MsgRef msg =
            routers_[static_cast<std::size_t>(id)].heldUnroutableMsg(
                p, v);
        if (msg != kInvalidMsgRef)
            purgeMessage(msg, /*allow_reinject=*/false);
    }
    unroutable_scratch_.clear();
}

void
Network::topOfCycle()
{
    if (next_fault_ < fault_events_.size() ||
        next_reconfig_ < reconfig_due_.size()) {
        ScopedPhaseTimer timer(profiling_, profile_.faultSeconds);
        applyFaultEvents();
    }
    if (now_ == next_telemetry_at_) {
        // Fixed snapshot point, like fault events: before any wire
        // delivery or component stepping of this cycle, so the window
        // [now - W, now) is complete and identical under both kernels.
        ScopedPhaseTimer timer(profiling_, profile_.telemetrySeconds);
        captureTelemetryWindow();
    }
}

void
Network::step()
{
    topOfCycle();
    if (kernel_ == KernelKind::Scan)
        stepScan();
    else
        stepSharded(1);
}

Cycle
Network::stepUntil(Cycle horizon)
{
    LAPSES_ASSERT(horizon > now_);
    if (kernel_ == KernelKind::Scan) {
        step();
        return 1;
    }
    if (!anyComponentActive()) {
        const Cycle next = nextEventCycle();
        if (next > now_) {
            // Nothing can happen before `next`: no component is
            // active in any shard, every wire event and NIC wake lies
            // at or beyond it. Skip the dead cycles (capped so phase
            // predicates and saturation checks keep their cycle
            // schedule). Idle shards cost nothing here — the clock
            // jumps over all of them at once.
            const Cycle target = std::min(horizon, next);
            const Cycle advanced = target - now_;
            counters_.fastForwardedCycles += advanced;
            now_ = target;
            for (Shard& sh : shards_) {
                sh.now = now_;
                sh.calendar.seek(now_);
            }
            return advanced;
        }
    }
    // Run the fixed top-of-cycle work, then let the shards step as
    // many cycles as the lookahead allows before the next barrier.
    // Callers see the same contract — at least one cycle, never past
    // the horizon.
    topOfCycle();
    const Cycle batch = batchCycles(horizon);
    stepSharded(batch);
    return batch;
}

void
Network::setMeasuring(bool on)
{
    for (auto& nic : nics_)
        nic.setMeasuring(on);
}

void
Network::setInjectionEnabled(bool on)
{
    for (auto& nic : nics_)
        nic.setInjectionEnabled(on);
}

std::uint64_t
Network::createdMeasured() const
{
    std::uint64_t n = 0;
    for (const auto& nic : nics_)
        n += nic.createdMeasured();
    return n;
}

std::uint64_t
Network::createdTotal() const
{
    std::uint64_t n = 0;
    for (const auto& nic : nics_)
        n += nic.createdTotal();
    return n;
}

std::size_t
Network::totalBacklog() const
{
    std::size_t n = 0;
    for (const auto& nic : nics_)
        n += nic.backlog();
    return n;
}

Network::WorkloadCounters
Network::workloadCounters() const
{
    WorkloadCounters wc;
    for (const Nic& nic : nics_) {
        if (const ClientEngine* client = nic.clientEngine()) {
            const ClientCounters& c = client->counters();
            wc.issued += c.issued;
            wc.issuedMeasured += c.issuedMeasured;
            wc.completed += c.completed;
            wc.completedMeasured += c.completedMeasured;
            wc.failed += c.failed;
            wc.failedMeasured += c.failedMeasured;
            wc.timeouts += c.timeouts;
            wc.retries += c.retries;
            wc.duplicateReplies += c.duplicateReplies;
        }
        if (const ServerEngine* server = nic.serverEngine())
            wc.duplicateRequests +=
                server->counters().duplicateRequests;
    }
    return wc;
}

std::vector<Network::OutstandingRow>
Network::outstandingRequests() const
{
    std::vector<OutstandingRow> rows;
    for (NodeId id = 0; id < topo_.numNodes(); ++id) {
        const ClientEngine* client =
            nics_[static_cast<std::size_t>(id)].clientEngine();
        if (client == nullptr)
            continue;
        for (const OutstandingRequest& r : client->outstanding())
            rows.push_back({id, r.server, r.reqSeq, r.attempt,
                            r.backingOff, r.deadline});
    }
    return rows;
}

std::size_t
Network::totalOccupancySlow() const
{
    std::size_t n = 0;
    for (const auto& r : routers_)
        n += r.occupancy();
    for (const Shard& sh : shards_) {
        sh.calendar.forEach([&](const WireEvent& ev) {
            n += ev.kind != WireKind::Credit ? 1 : 0;
        });
    }
    return n;
}

std::uint64_t
Network::progressCounterSlow() const
{
    std::uint64_t n = delivered_total_;
    for (const auto& r : routers_)
        n += r.forwardedFlits();
    for (const auto& nic : nics_)
        n += nic.injectedFlits();
    return n;
}

Network::KernelCounters
Network::kernelCounters() const
{
    // Per-shard accumulation with a merge on read: stepping threads
    // only ever touch their own shard's counters, so the parallel
    // kernel needs no shared mutable counter (and no atomics on the
    // step path).
    KernelCounters merged = counters_;
    for (const Shard& sh : shards_) {
        merged.nicSteps += sh.counters.nicSteps;
        merged.routerSteps += sh.counters.routerSteps;
        merged.wireEventsDelivered += sh.counters.wireEventsDelivered;
        merged.fastForwardedCycles += sh.counters.fastForwardedCycles;
    }
    return merged;
}

KernelProfile
Network::kernelProfile() const
{
    KernelProfile merged = profile_;
    for (const Shard& sh : shards_) {
        merged.wireDrainSeconds += sh.profile.wireDrainSeconds;
        merged.nicStepSeconds += sh.profile.nicStepSeconds;
        merged.routerStepSeconds += sh.profile.routerStepSeconds;
        merged.faultSeconds += sh.profile.faultSeconds;
        merged.telemetrySeconds += sh.profile.telemetrySeconds;
        merged.boundaryDrainSeconds += sh.profile.boundaryDrainSeconds;
        merged.intraDeliverySeconds += sh.profile.intraDeliverySeconds;
        merged.barrierWaitSeconds += sh.profile.barrierWaitSeconds;
    }
    return merged;
}

void
Network::messageDelivered(MsgRef msg, Cycle now)
{
    // Every ejection happens on the destination's owning shard (the
    // scan kernel's single shard included), so the counters, the
    // hook's per-destination stats lanes, and the deferred release
    // are all shard-local. The barrier merge folds them in.
    const MessageDescriptor& desc = pool_[msg];
    Shard& sh = shards_[shard_of_[static_cast<std::size_t>(desc.dest)]];
    ++sh.delivered_total;
    if (desc.measured)
        ++sh.delivered_measured;
    if (hook_ != nullptr)
        hook_(hook_ctx_, desc, now);
    sh.pending_release.push_back(msg);
}

} // namespace lapses
