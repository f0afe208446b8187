/**
 * @file
 * Network interface controller: open-loop injection and ejection.
 *
 * The NIC owns the (unbounded) source queue, breaks messages into flits,
 * allocates virtual channels on the router's local input port with the
 * same conservative discipline routers use, streams at most one flit per
 * cycle over the local link, and in look-ahead mode performs the
 * first-hop table lookup so the header arrives at the source router with
 * its candidate set (Section 3.2).
 */

#ifndef LAPSES_NETWORK_NIC_HPP
#define LAPSES_NETWORK_NIC_HPP

#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"
#include "router/message_pool.hpp"
#include "tables/routing_table.hpp"
#include "traffic/injection.hpp"
#include "traffic/patterns.hpp"
#include "workload/workload.hpp"

namespace lapses
{

/** Receives delivered messages (tail ejection) for statistics. */
class DeliverySink
{
  public:
    virtual ~DeliverySink() = default;

    /** The tail flit of message `msg` reached its destination NIC.
     *  The descriptor stays valid for the duration of the call; the
     *  sink's owner recycles it afterwards. */
    virtual void messageDelivered(MsgRef msg, Cycle now) = 0;

    /** A closed-loop request completed: its reply reached the client
     *  at `completedAt`. Default no-op so open-loop sinks stay
     *  untouched. */
    virtual void
    requestCompleted(NodeId client, Cycle issuedAt, Cycle completedAt,
                     bool measured)
    {
        (void)client;
        (void)issuedAt;
        (void)completedAt;
        (void)measured;
    }
};

/** Injection + ejection endpoint of one node. */
class Nic
{
  public:
    /** Construction parameters shared by all NICs. */
    struct Params
    {
        int numVcs = 4;
        int routerBufDepth = 20; //!< credits toward the local input port
        int msgLen = 20;
        bool lookahead = false;
        InjectionKind injection = InjectionKind::Exponential;
        BurstOptions burst;
        double msgsPerCycle = 0.0;

        /** Closed-loop workload knobs (owned by the network; null or
         *  kind == Open leaves the NIC purely open-loop). */
        const WorkloadOptions* workload = nullptr;

        /** This node's index in the topology's endpoint set (the node
         *  id itself on all-endpoint topologies); selects the
         *  closed-loop server/client role. kInvalidNode for a
         *  non-endpoint node, whose NIC never injects. */
        NodeId endpointIndex = 0;
    };

    /** Environment callback: puts a flit on the NIC -> router link. */
    class Env
    {
      public:
        virtual ~Env() = default;
        virtual void injectFlit(VcId vc, const Flit& flit) = 0;
    };

    /** @param pool shared in-flight message descriptors (acquired at
     *         injection, recycled by the network on tail delivery) */
    Nic(NodeId node, const Params& params, const RoutingTable& table,
        const TrafficPattern& pattern, Rng rng, MessagePool& pool);

    /**
     * Generate arrivals, allocate VCs, stream one flit if possible.
     * The returned report tells the network whether this NIC needs
     * stepping next cycle (pendingWork: backlog remains) and, when it
     * does not, when to wake it for the next injection-process event.
     */
    StepActivity step(Cycle now, Env& env);

    /**
     * True when stepping this NIC cannot do anything: no queued or
     * streaming messages, and the injection process has no event due
     * at or before `now`. A quiescent NIC is re-activated by a credit
     * return or by reaching its nextArrivalCycle().
     */
    bool
    isQuiescent(Cycle now) const
    {
        return backlog() == 0 && nextArrivalCycle(now) > now &&
               engineWake(now) > now;
    }

    /** The injection process's next RNG-consuming cycle (>= now). */
    Cycle
    nextArrivalCycle(Cycle now) const
    {
        return process_.nextArrivalCycle(now);
    }

    /** Credit returned from the router's local input port. */
    void acceptCredit(VcId vc);

    /** Credits held toward the router's local input port on `vc`. */
    int
    credits(VcId vc) const
    {
        return credits_[static_cast<std::size_t>(vc)];
    }

    /** A flit ejected from the router's local output port arrives. */
    void acceptFlit(const Flit& flit, Cycle now, DeliverySink& sink);

    /** Begin tagging newly created messages as measured. */
    void setMeasuring(bool on) { measuring_ = on; }

    /** Stop (or resume) generating new messages; in-flight traffic
     *  continues so the network can drain to quiescence. */
    void setInjectionEnabled(bool on) { injection_enabled_ = on; }

    /** Messages created while measuring was on. */
    std::uint64_t createdMeasured() const { return created_measured_; }

    /** All messages created (including warm-up/drain). */
    std::uint64_t createdTotal() const { return created_total_; }

    /** Source-queue backlog: queued messages not yet fully injected. */
    std::size_t backlog() const;

    /** Flits sent into the network (progress watchdog input). */
    std::uint64_t injectedFlits() const { return injected_flits_; }

    // --- Dynamic link faults --------------------------------------

    /** Stop streaming `msg` (its flits were purged network-wide when
     *  a link died). Credits for the purged flits come back through
     *  the purge path; the un-sent remainder is simply never created.
     *  Returns true when the NIC was streaming that message. */
    bool cancelInjection(MsgRef msg);

    /** Put a purged message back at the head of the source queue
     *  (retransmission-by-reinjection): it re-enters VC allocation
     *  with a fresh descriptor but keeps its creation time, so its
     *  eventual latency includes the fault. */
    void requeueFront(NodeId dest, Cycle createdAt, bool measured,
                      MsgRole role = MsgRole::Data,
                      std::uint32_t reqSeq = 0,
                      std::uint16_t attempt = 0);

    /** Pool bank this NIC acquires descriptors from — its shard under
     *  the parallel kernel (set by the network at construction; stays
     *  0 for the single-banked kernels). */
    void setPoolBank(unsigned bank) { pool_bank_ = bank; }

    // --- Closed-loop workload (src/workload/) ---------------------

    /** True when this NIC runs a request/reply engine (client or
     *  server) instead of open-loop injection. */
    bool closedLoop() const
    {
        return client_ != nullptr || server_ != nullptr;
    }

    /** The client-side reliability engine (null on servers and
     *  open-loop NICs). */
    const ClientEngine* clientEngine() const { return client_.get(); }

    /** The server engine (null on clients and open-loop NICs). */
    const ServerEngine* serverEngine() const { return server_.get(); }

    /**
     * True when the fault machinery may reinject a purged message at
     * this NIC. Open-loop messages and replies always reinject;
     * a purged request only while its client still waits on exactly
     * that transmission — once the reliability layer timed it out,
     * reinjection would race the retry it already owns.
     */
    bool
    wantsReinject(const MessageDescriptor& desc) const
    {
        if (desc.role != MsgRole::Request || client_ == nullptr)
            return true;
        return client_->wantsReinject(desc.reqSeq, desc.attempt);
    }

    /** Earliest engine timer/service event at or after `now`;
     *  kNeverCycle for open-loop NICs. */
    Cycle
    engineWake(Cycle now) const
    {
        if (client_)
            return client_->nextWake(now);
        if (server_)
            return server_->nextWake(now);
        return kNeverCycle;
    }

  private:
    /** A message waiting in the source queue. */
    struct QueuedMessage
    {
        NodeId dest;
        Cycle createdAt;
        bool measured;
        MsgRole role = MsgRole::Data;
        std::uint32_t reqSeq = 0;
        std::uint16_t attempt = 0;
    };

    /** A message streaming flits on one local-link VC. */
    struct ActiveInjection
    {
        bool active = false;
        std::uint16_t nextSeq = 0;
        MsgRef msg = kInvalidMsgRef;
    };

    NodeId node_;
    Params params_;
    const RoutingTable& table_;
    const TrafficPattern& pattern_;
    Rng rng_;
    MessagePool& pool_;
    unsigned pool_bank_ = 0;
    InjectionProcess process_;

    std::deque<QueuedMessage> queue_;
    std::vector<ActiveInjection> active_;
    std::vector<int> credits_;
    int mux_next_ = 0;

    /** Closed-loop engines (at most one non-null, by node role). */
    std::unique_ptr<ClientEngine> client_;
    std::unique_ptr<ServerEngine> server_;
    /** Per-step scratch for engine emissions (reused, never shrunk). */
    std::vector<WorkloadEmit> emit_scratch_;

    bool measuring_ = false;
    bool injection_enabled_ = true;
    std::uint64_t created_measured_ = 0;
    std::uint64_t created_total_ = 0;
    std::uint64_t injected_flits_ = 0;
    MessageId next_msg_id_;
};

} // namespace lapses

#endif // LAPSES_NETWORK_NIC_HPP
