/**
 * @file
 * The interconnection network: routers + NICs wired by 1-cycle links.
 *
 * Each bidirectional link is a pair of unidirectional flit wires
 * plus reverse credit wires. Delivery is staged: everything a component
 * emits at cycle t arrives at its peer at t + linkDelay, so the order in
 * which routers step within a cycle cannot matter.
 *
 * Two simulation kernels share this interface (see DESIGN.md):
 *
 *  - The sharded event kernel ("active", the default, and "parallel"):
 *    per-cycle work is O(active components + due wire events). Only
 *    routers/NICs with pending work are stepped, and when nothing is
 *    active the clock fast-forwards to the next wire event or
 *    injection-process wake. The nodes are cut into spatial shards
 *    (contiguous node ranges) — exactly one under "active",
 *    --intra-jobs under "parallel". Each emission is filed under its
 *    receiving shard, and every shard pulls the events addressed to
 *    it at the top of each local cycle, on its own thread. When
 *    lookahead allows (no fault or telemetry boundary inside the
 *    window) shards run up to linkDelay + 1 cycles between barriers
 *    (DESIGN.md "Parallel kernel" spells out both contracts).
 *  - KernelKind::Scan: steps every NIC and router every cycle, kept
 *    as the differential oracle of the activity tracking
 *    (LAPSES_KERNEL=scan).
 *
 * Every kernel keeps wire traffic in the same WireCalendar, one per
 * sending shard, and delivers each event at its due cycle through one
 * Network::deliver, sender shard by sender shard in emission order.
 * Both kernels produce byte-identical statistics and trace streams:
 * the order of arrivals within a cycle reaches no result, and
 * components are only put to sleep when stepping them is provably a
 * no-op (no buffered flits, no injection-process event due).
 */

#ifndef LAPSES_NETWORK_NETWORK_HPP
#define LAPSES_NETWORK_NETWORK_HPP

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <exception>
#include <optional>
#include <queue>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "fault/link_faults.hpp"
#include "network/nic.hpp"
#include "network/tracer.hpp"
#include "network/wire_calendar.hpp"
#include "router/router.hpp"
#include "telemetry/telemetry.hpp"

namespace lapses
{

/** Resolve KernelKind::Auto through LAPSES_KERNEL
 *  ("scan"/"active"/"parallel"); unset resolves to Active, anything
 *  else throws ConfigError. */
KernelKind resolveKernelKind(KernelKind requested);

/** Resolve the parallel kernel's shard/worker count (Active is
 *  always one shard and never asks): an explicit request (> 0) wins,
 *  else LAPSES_INTRA_JOBS, else the hardware concurrency. Always
 *  >= 1; a bad environment value throws ConfigError. Capped at
 *  MessagePool::kMaxBanks. */
unsigned resolveIntraJobs(unsigned requested);

/** Resolve the event kernel's barrier batch cap: an explicit
 *  request (> 0) wins, else LAPSES_MAX_BATCH, else the conservative
 *  lookahead linkDelay + 1. The result is always clamped to
 *  [1, linkDelay + 1] — events emitted inside a batch are due at
 *  least linkDelay + 1 cycles after the batch starts, so no larger
 *  batch can ever be safe. A bad environment value throws
 *  ConfigError. */
Cycle resolveMaxBatchCycles(Cycle requested, Cycle linkDelay);

/** Routers and NICs on any port graph, with credit-based flow
 *  control. */
class Network : public DeliverySink
{
  public:
    /** Cumulative kernel-side work counters (perf diagnostics; the
     *  activity-driven kernel's savings show up here). */
    struct KernelCounters
    {
        std::uint64_t nicSteps = 0;    //!< Nic::step invocations
        std::uint64_t routerSteps = 0; //!< Router::step invocations
        std::uint64_t wireEventsDelivered = 0;
        std::uint64_t fastForwardedCycles = 0; //!< cycles skipped idle
    };

    /** Closed-loop reliability counters summed over every NIC's
     *  engines in fixed node order (deterministic across kernels and
     *  shard layouts). All zero for open-loop workloads. */
    struct WorkloadCounters
    {
        std::uint64_t issued = 0;
        std::uint64_t issuedMeasured = 0;
        std::uint64_t completed = 0;
        std::uint64_t completedMeasured = 0;
        std::uint64_t failed = 0;
        std::uint64_t failedMeasured = 0;
        std::uint64_t timeouts = 0;
        std::uint64_t retries = 0;
        std::uint64_t duplicateRequests = 0;
        std::uint64_t duplicateReplies = 0;
    };

    /** One row of the outstanding-request table (watchdog dumps). */
    struct OutstandingRow
    {
        NodeId client = kInvalidNode;
        NodeId server = kInvalidNode;
        std::uint32_t reqSeq = 0;
        std::uint16_t attempt = 0;
        bool backingOff = false;
        Cycle deadline = 0;
    };

    /**
     * Build the network a run's configuration describes: routers and
     * NICs (RouterParams, Nic::Params and WorkloadOptions all come
     * from `cfg`), wires, the kernel's shards and the link faults
     * (LinkFaults). Throws ConfigError on a bad fault schedule, too
     * few VCs for the escape discipline, or servers not below the
     * endpoint count.
     *
     * @param algo    the routing the tables were built from: decides
     *                the Duato escape discipline and its escape VCs
     * @param table   programmed routing tables (must outlive Network);
     *                reprogrammed around faults when it is a FullTable
     * @param pattern traffic pattern (must outlive Network)
     * @param shard_cuts parallel-kernel interior cut points
     *                (ascending node ids in (0, numNodes)) overriding
     *                the balanced partition — a test hook for
     *                adversarial cuts; empty = balanced
     */
    Network(const SimConfig& cfg, const Topology& topo,
            const RoutingAlgorithm& algo, RoutingTable& table,
            const TrafficPattern& pattern,
            std::vector<NodeId> shard_cuts = {});

    ~Network();

    // Shard threads hold `this`.
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /** Advance the whole network by one cycle. */
    void step();

    /**
     * Advance at least one cycle, but never past `horizon` (> now()).
     * Under the event kernel an idle network (empty active sets) jumps
     * straight to the next wire event / NIC wake instead of stepping
     * through dead cycles, and a busy one steps one barrier batch; the
     * scan kernel always advances one cycle. Returns the number of
     * cycles advanced.
     */
    Cycle stepUntil(Cycle horizon);

    /** The next cycle to execute (cycles completed so far). */
    Cycle now() const { return now_; }

    /** The kernel this network runs (resolved, never Auto). */
    KernelKind kernel() const { return kernel_; }

    /** Escape VCs per port (resolveEscapeVcs). */
    int escapeVcs() const { return escape_vcs_; }

    /** Open-loop messages per cycle each endpoint NIC injects (0 on
     *  closed-loop runs). */
    double msgsPerCycle() const { return msgs_per_cycle_; }

    /** Shards the topology is partitioned into (1 unless Parallel). */
    std::size_t shardCount() const { return shards_.size(); }

    /** Owning shard index of a node (0 unless Parallel). */
    std::size_t
    shardOf(NodeId id) const
    {
        return shard_of_[static_cast<std::size_t>(id)];
    }

    /** The resolved barrier batch cap (1 under Scan). */
    Cycle batchCap() const { return batch_cap_; }

    /** Work counters for perf tests and benches: the coordinator's
     *  fast-forward counts merged with every shard's step and
     *  delivery counts (each shard accumulates its own, so stepping
     *  threads never write a shared counter). */
    KernelCounters kernelCounters() const;

    /** One shard's own counters: the components it stepped and the
     *  wire events delivered to it (load-imbalance diagnostics;
     *  --profile warns when max/min exceeds 2x). */
    const KernelCounters&
    shardCounters(std::size_t shard) const
    {
        return shards_[shard].counters;
    }

    /** The run's link faults: resilience counters, measured drops,
     *  the last fault cycle and the links currently down. */
    const LinkFaults& faults() const { return *faults_; }

    /** Start/stop tagging new messages as measured. */
    void setMeasuring(bool on);

    /** Stop/resume message generation at every NIC (drain support). */
    void setInjectionEnabled(bool on);

    /** Messages created with the measured tag. */
    std::uint64_t createdMeasured() const;

    /** Messages created in total. */
    std::uint64_t createdTotal() const;

    /** Measured messages delivered so far. */
    std::uint64_t deliveredMeasured() const
    {
        return delivered_measured_;
    }

    /** All messages delivered so far. */
    std::uint64_t deliveredTotal() const { return delivered_total_; }

    /** Sum of source-queue backlogs (saturation detector input). */
    std::size_t totalBacklog() const;

    // --- Closed-loop workload observers ---------------------------

    /** True when the NICs run the request/reply engines. */
    bool
    closedLoop() const
    {
        return workload_opts_.kind == WorkloadKind::RequestReply;
    }

    /** Reliability counters summed over all engines in node order. */
    WorkloadCounters workloadCounters() const;

    /** Every client's outstanding requests, in (client, reqSeq)
     *  order — the watchdog's stall diagnosis table. */
    std::vector<OutstandingRow> outstandingRequests() const;

    /** Flits buffered anywhere in routers or on wires. O(1): the
     *  counter moves only at injection (a flit enters the tracked
     *  domain) and ejection (it leaves); every other hop shifts flits
     *  between tracked stores. */
    std::size_t totalOccupancy() const { return occupancy_; }

    /** Recomputed-by-summation occupancy; the differential and unit
     *  suites pin it equal to the O(1) counter. */
    std::size_t totalOccupancySlow() const;

    /** Monotone progress counter (flit movements), for the deadlock
     *  watchdog. O(1): steps report their forwarded/injected flits
     *  and the network accumulates. */
    std::uint64_t
    progressCounter() const
    {
        return delivered_total_ + progress_flits_;
    }

    /** Recomputed-by-summation progress (test cross-check). */
    std::uint64_t progressCounterSlow() const;

    /** In-flight message descriptors (shared by NICs and routers). */
    MessagePool& messagePool() { return pool_; }
    const MessagePool& messagePool() const { return pool_; }

    /** Hook invoked on every delivered message (set by Simulation). */
    using DeliveryHook = void (*)(void* ctx, const MessageDescriptor& msg,
                                  Cycle now);
    void
    setDeliveryHook(DeliveryHook hook, void* ctx)
    {
        hook_ = hook;
        hook_ctx_ = ctx;
    }

    /** Hook invoked on every completed request (set by Simulation).
     *  Runs on the client node's owning shard thread under the
     *  parallel kernel — the sink must shard its accumulation by
     *  client node, exactly like the delivery hook. */
    using RequestHook = void (*)(void* ctx, NodeId client,
                                 Cycle issuedAt, Cycle completedAt,
                                 bool measured);
    void
    setRequestHook(RequestHook hook, void* ctx)
    {
        request_hook_ = hook;
        request_hook_ctx_ = ctx;
    }

    // DeliverySink: forwards a client engine's completion.
    void
    requestCompleted(NodeId client, Cycle issuedAt, Cycle completedAt,
                     bool measured) override
    {
        if (request_hook_ != nullptr)
            request_hook_(request_hook_ctx_, client, issuedAt,
                          completedAt, measured);
    }

    /** Attach (or detach with nullptr) a flit-event tracer. Shards
     *  buffer their own deliveries' events; every barrier merge
     *  replays them into the tracer sorted by (cycle, sending wire),
     *  so tracing never limits the batch size. */
    void setTracer(FlitTracer* tracer) { tracer_ = tracer; }

    // --- Telemetry / profiling (pure observers) -----------------------

    /**
     * Attach (or detach with nullptr) the buffer that receives one row
     * per node at every telemetry window boundary. Requires a nonzero
     * SimConfig::telemetryWindow (ConfigError otherwise) — the
     * counters and the wake source only exist when the window was
     * configured at construction. The buffer must outlive the network
     * or be detached first.
     */
    void attachTelemetryBuffer(TelemetryBuffer* buffer);

    /** The configured telemetry window (0 = off). */
    Cycle telemetryWindow() const { return cfg_.telemetryWindow; }

    /** Enable per-phase wall-clock timers (off by default; they read
     *  the host clock, never simulated state). */
    void setProfiling(bool on) { profiling_ = on; }

    /** Accumulated per-phase wall-clock seconds (--profile): the
     *  coordinator's phases merged with per-shard step timers. The
     *  phases never nest, so on one shard they sum to at most the
     *  wall time; across several shards the step phases sum CPU
     *  seconds and can exceed it. */
    KernelProfile kernelProfile() const;

    // DeliverySink; descriptor released at the next mergeShardCycleState().
    void messageDelivered(MsgRef msg, Cycle now) override;

    const Topology& topology() const { return topo_; }
    /** One node's NIC (tests / diagnostics). */
    const Nic&
    nic(NodeId id) const
    {
        return nics_[static_cast<std::size_t>(id)];
    }
    Router& router(NodeId id)
    {
        return routers_[static_cast<std::size_t>(id)];
    }
    const Router&
    router(NodeId id) const
    {
        return routers_[static_cast<std::size_t>(id)];
    }

  private:
    struct Shard;

    /** Adapter giving each router its link endpoints. The bound shard
     *  supplies the sender-local clock and calendar, so an emission
     *  lands in the right bucket even mid-batch when shards' local
     *  cycles differ. */
    class RouterEnv : public Router::Env
    {
      public:
        RouterEnv() : net_(nullptr), sh_(nullptr), id_(kInvalidNode) {}
        void
        bind(Network* net, NodeId id)
        {
            net_ = net;
            id_ = id;
        }
        void setShard(Shard* sh) { sh_ = sh; }
        void flitOut(PortId out_port, VcId out_vc,
                     const Flit& flit) override;
        void creditOut(PortId in_port, VcId vc) override;
        void headUnroutable(PortId in_port, VcId vc) override;

      private:
        Network* net_;
        Shard* sh_;
        NodeId id_;
    };

    /** Adapter for NIC injection. */
    class NicEnv : public Nic::Env
    {
      public:
        NicEnv() : net_(nullptr), sh_(nullptr), id_(kInvalidNode) {}
        void
        bind(Network* net, NodeId id)
        {
            net_ = net;
            id_ = id;
        }
        void setShard(Shard* sh) { sh_ = sh; }
        void injectFlit(VcId vc, const Flit& flit) override;

      private:
        Network* net_;
        Shard* sh_;
        NodeId id_;
    };

    friend class RouterEnv;
    friend class NicEnv;

    std::size_t
    wireIndex(NodeId node, PortId port) const
    {
        return static_cast<std::size_t>(node) *
                   static_cast<std::size_t>(topo_.numPorts()) +
               static_cast<std::size_t>(port);
    }

    /** A traced delivery awaiting the barrier merge. The key is dense
     *  in (sending node, port), with the injection wire after the
     *  node's last port; sorting by (cycle, key) gives the merge one
     *  order whatever the shard count, batch size or emission order. */
    struct TraceRecord
    {
        std::int32_t key;
        TraceEvent ev;
    };

    /**
     * Everything one stepping thread owns: Active and Scan run a
     * single shard spanning all nodes; Parallel runs one shard per
     * worker over [begin, end). During the (parallel) stepping phase
     * a shard's thread touches only this struct, its own nodes'
     * components and the lists addressed to it in other shards'
     * calendars — disjoint across shards — while the coordinator
     * touches shards only in the sequential phases on the other side
     * of the cycle barrier. Cache-line aligned so adjacent shards' hot
     * cursors never false-share.
     */
    struct alignas(64) Shard
    {
        NodeId begin = 0; //!< first owned node
        NodeId end = 0;   //!< one past the last owned node

        /** Wire events *sent by* this shard's nodes, one list per
         *  receiving shard. During stepping only this shard's thread
         *  pushes here, and each receiving shard's thread drains its
         *  own lists (the calendar's width keeps them in different
         *  buckets). */
        WireCalendar calendar;

        std::vector<NodeId> active_routers;
        std::vector<NodeId> active_nics;
        std::vector<NodeId> scratch_routers;
        std::vector<NodeId> scratch_nics;

        /** Wake heap of this shard's own NICs (see nic_wake_at_). */
        std::priority_queue<std::pair<Cycle, NodeId>,
                            std::vector<std::pair<Cycle, NodeId>>,
                            std::greater<>>
            nic_wakes;

        /** Own heads reported unroutable this batch; the coordinator
         *  hands them to the link faults afterwards. */
        std::vector<HeadSite> pending_unroutable;

        /** Cumulative step counts (merged on kernelCounters() read). */
        KernelCounters counters;

        /** Per-shard step-phase wall-clock (merged on read). */
        KernelProfile profile;

        /** Flits this shard's components progressed this cycle;
         *  drained into the global counter at the barrier. */
        std::uint64_t progress_flits = 0;

        /** Flits this shard's NICs put onto injection wires this
         *  cycle; drained into occupancy_ at the barrier. */
        std::size_t injected_flits = 0;

        /** Flits this shard's NICs ejected (left the tracked domain);
         *  subtracted from occupancy_ at the barrier. */
        std::size_t ejected_flits = 0;

        /** Shard-local clock, which the calendar's cursor follows.
         *  Between barriers it may run ahead of the global now_ by up
         *  to batchCap - 1; the sequential phases see it re-synced
         *  (sh.now == now_) on both sides of every batch, so the
         *  coordinator needs no clock of its own. */
        Cycle now = 0;

        /** Deliveries completed by this shard's worker this batch;
         *  folded into the global delivered counters at the barrier. */
        std::uint64_t delivered_total = 0;
        std::uint64_t delivered_measured = 0;

        /** Descriptors of messages delivered this batch, released by
         *  the coordinator at the barrier (MessagePool frees are
         *  sequential-phase only). */
        std::vector<MsgRef> pending_release;

        /** Trace records of this batch's deliveries (tracer attached
         *  only), merged into the tracer at the barrier. */
        std::vector<TraceRecord> trace;
    };

    /** Append an event sent by `sh`'s node at its local cycle to its
     *  calendar, due linkDelay + 1 cycles later, on receiving shard
     *  `to`'s list. */
    void
    emit(Shard& sh, const WireEvent& ev, std::size_t to)
    {
        sh.calendar.push(ev, sh.now + 1 + cfg_.linkDelay, to);
    }

    /** Add a router/NIC to its shard's active set (idempotent). Safe
     *  from a stepping thread only for the shard's own nodes; the
     *  sequential phases may activate anything. */
    void activateRouter(NodeId id);
    void activateNic(NodeId id);

    /** Earliest pending wire event, valid NIC wake or boundary over
     *  all shards; kNeverCycle when the network is fully drained with
     *  no scheduled arrivals. */
    Cycle nextEventCycle();

    /** The next fault, reconfiguration or telemetry cycle: the fixed
     *  top-of-cycle work that ends a batch and stops a fast-forward
     *  (kNeverCycle when none is left). */
    Cycle
    nextBoundary() const
    {
        return std::min(faults_->nextCycle(), next_telemetry_at_);
    }

    /** True while any shard holds an active router or NIC. */
    bool anyComponentActive() const;

    /** Build the shard partition and its descriptor banks at
     *  construction; see the constructor's shard_cuts. */
    void buildShards(const std::vector<NodeId>& shard_cuts);

    /** Start one thread per shard 1..S-1 (none at S = 1). The last
     *  step of construction: no later throw may leave a thread parked
     *  at the barrier with no destructor to release it. */
    void startShardThreads();

    /** Release the shard threads from the barrier and join them. */
    void stopShardThreads();

    /** Shard thread s: per batch, arrive at the start, step shard s,
     *  arrive at the end; leaves when a start finds a stop request. */
    void shardThreadLoop(std::stop_token stop, std::size_t s);

    /** Hand one wire event to its receiver at cycle `at` (trace
     *  record + hand-off + activation). Side effects are charged to
     *  `sh`, the receiver's shard, never to shared state. */
    void deliver(Shard& sh, const WireEvent& ev, Cycle at);

    /** Deliver every event addressed to shard `to` and due at its
     *  local cycle, pulled from each shard's calendar in shard order
     *  on `to`'s own thread. */
    void deliverDue(std::size_t to);

    void stepScan();

    /** Advance the event kernel by `cycles` (>= 1) barrier-to-
     *  barrier: every shard thread runs stepShardCycles on its own
     *  shard (the caller on shard 0, inline at S = 1), then the
     *  merge. */
    void stepSharded(Cycle cycles);

    /** Largest safe batch for the event kernel ending at or before
     *  `horizon`: capped by the conservative lookahead (batchCap) and
     *  the next boundary, and forced to 1 while links are down. */
    Cycle batchCycles(Cycle horizon) const;

    /** Shard `s`'s whole batch: per cycle, deliver the events due to
     *  it, then run its component slice, then advance its clock. */
    void stepShardCycles(std::size_t s, Cycle cycles);

    /** The per-shard slice of a cycle: process due NIC wakes, step
     *  active NICs, step active routers. Runs on the shard's stepping
     *  thread (the caller's for shard 0). */
    void stepShardComponents(Shard& sh);

    /** Fold per-batch shard deltas (injected/ejected/progressed flits,
     *  deliveries, deferred descriptor frees, trace records) into the
     *  global state after the barrier. */
    void mergeShardCycleState();

    /** Replay the shards' trace records into the tracer in
     *  (cycle, trace key) order. */
    void flushTrace();

    /** The fixed top-of-cycle work (fault events, reconfigurations,
     *  telemetry windows) shared by every kernel and the batch path:
     *  it runs before any wire delivery, so every kernel sees the
     *  same state all cycle. */
    void topOfCycle();

    /** Hand the shards' unroutable-head reports to the link faults,
     *  which purge them. Runs after the step loops: a mid-loop purge
     *  would make the kernels' stepping orders observable. */
    void processPendingUnroutable();

    /** Snapshot the window ending at `now` into the attached buffer
     *  (if any) and arm the next boundary — runs at the fixed top of
     *  step(), like fault events, under both kernels. */
    void captureTelemetryWindow();

    const Topology& topo_;
    const SimConfig cfg_;
    KernelKind kernel_;
    int escape_vcs_;
    double msgs_per_cycle_ = 0.0;
    Cycle now_ = 0;

    /** Descriptor store; declared before the components that hold
     *  references into it. */
    MessagePool pool_;

    std::vector<Router> routers_;
    std::vector<Nic> nics_;
    std::vector<RouterEnv> router_envs_;
    std::vector<NicEnv> nic_envs_;

    // Shards (Active and Scan = one shard, Parallel = one shard per
    // worker); every kernel keeps its wire events in their calendars.
    std::vector<Shard> shards_;
    /** Owning shard per node (all zero unless Parallel). */
    std::vector<std::uint32_t> shard_of_;
    /** Per wire index: the shard that owns the wire's receiver (the
     *  sender's own for ejection/NIC-credit wires). Fixed at
     *  construction; read by the env adapters to file emissions with
     *  one table load. */
    std::vector<std::uint8_t> receiver_shard_;
    /** Resolved barrier batch cap (resolveMaxBatchCycles). */
    Cycle batch_cap_ = 1;
    /** First exception each shard's batch raised (rethrown in shard
     *  order after the barrier; slots reset on throw). */
    std::vector<std::exception_ptr> shard_errors_;
    /** Activation marks. Activation is idempotent, so the delivery
     *  path sets them under every kernel; only the event kernel reads
     *  them. */
    std::vector<std::uint8_t> router_active_;
    std::vector<std::uint8_t> nic_active_;
    /** Pending wake cycle per NIC (kNeverCycle = none); entries in a
     *  shard's nic_wakes that disagree with this are stale and
     *  skipped. Only the owning shard's thread touches its nodes'
     *  entries during stepping. */
    std::vector<Cycle> nic_wake_at_;
    /** Coordinator counters: fast-forwards (a sequential phase);
     *  scan-kernel step counts also land here. */
    KernelCounters counters_;

    /** Link faults (DESIGN.md "Fault events"), bound to the routers,
     *  NICs, calendars and pool once the shards exist. */
    std::optional<LinkFaults> faults_;

    /** Flits in routers or on flit/injection wires (totalOccupancy). */
    std::size_t occupancy_ = 0;

    /** Flits forwarded by routers + injected by NICs (accumulated from
     *  step reports; progressCounter adds deliveries). */
    std::uint64_t progress_flits_ = 0;

    std::uint64_t delivered_measured_ = 0;
    std::uint64_t delivered_total_ = 0;
    DeliveryHook hook_ = nullptr;
    void* hook_ctx_ = nullptr;
    RequestHook request_hook_ = nullptr;
    void* request_hook_ctx_ = nullptr;
    FlitTracer* tracer_ = nullptr;
    /** Merge scratch for the shards' trace records. */
    std::vector<TraceRecord> trace_merge_;

    /** Workload options (from cfg_) every NIC engine reads. */
    WorkloadOptions workload_opts_;

    // Telemetry state. The per-node counter storage lives here (not in
    // the routers) so a single allocation at construction fixes every
    // pointer the routers hold. next_telemetry_at_ is kNeverCycle when
    // telemetry is off, making the step() boundary check one always-
    // false branch.
    std::vector<RouterTelemetry> router_telemetry_;
    Cycle next_telemetry_at_ = kNeverCycle;
    TelemetryBuffer* telemetry_buffer_ = nullptr;

    // Wall-clock phase profiling (setProfiling / kernelProfile).
    bool profiling_ = false;
    KernelProfile profile_;

    // Shard threads (S > 1 only), declared after everything they use.
    /** S participants, each arriving at the start and at the end of
     *  every batch. The start arrival publishes shard_batch_, which
     *  the caller writes before it. */
    std::optional<std::barrier<>> shard_barrier_;
    /** Cycles in the current batch. */
    Cycle shard_batch_ = 0;
    /** One thread per shard 1..S-1; the caller steps shard 0. Owned
     *  by the network, so campaign threads that each own a parallel
     *  network never wait on one another's shards. */
    std::vector<std::jthread> shard_threads_;
};

} // namespace lapses

#endif // LAPSES_NETWORK_NETWORK_HPP
