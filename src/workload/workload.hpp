/**
 * @file
 * Closed-loop request/reply workload engines (DESIGN.md "Closed-loop
 * determinism contract").
 *
 * Client NICs issue requests against a block of server nodes from a
 * bounded in-flight window; servers answer after a configurable
 * service time and the replies close the loop. A per-client
 * reliability engine arms a deadline timer on every outstanding
 * request and, on expiry, retransmits with exponential backoff plus
 * seeded deterministic jitter; attempts are capped and the request is
 * recorded as failed once the budget is exhausted. Servers remember
 * which (client, request) pairs they already served so duplicate
 * requests are counted but re-answered (at-least-once delivery — a
 * purged reply stays recoverable), and clients drop duplicate replies
 * so a retried request can never complete twice.
 *
 * Every nondeterministic-looking choice (server selection, service
 * time, backoff jitter) is a pure splitmix64 hash of the run seed and
 * the request identity, never an RNG stream draw — the values are
 * byte-identical across kernels, shard counts, and `--intra-jobs`
 * because they cannot depend on event interleaving.
 */

#ifndef LAPSES_WORKLOAD_WORKLOAD_HPP
#define LAPSES_WORKLOAD_WORKLOAD_HPP

#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/enum_names.hpp"
#include "common/types.hpp"

namespace lapses
{

/** Traffic shape driving the NICs. */
enum class WorkloadKind : std::uint8_t
{
    /** Open-loop synthetic injection (the classic LAPSES streams). */
    Open,
    /** Closed-loop request/reply service traffic with timeouts and
     *  seeded retry/backoff. */
    RequestReply,
};

/** Names for flags, grid axes and records (common/enum_names.hpp). */
constexpr auto
enumNames(WorkloadKind)
{
    return std::to_array<EnumName<WorkloadKind>>({
        {WorkloadKind::Open, "open"},
        {WorkloadKind::RequestReply, "request-reply"},
    });
}

/** Closed-loop knobs shared by every client/server engine. */
struct WorkloadOptions
{
    WorkloadKind kind = WorkloadKind::Open;

    /** Cycles a client waits for a reply before declaring a timeout. */
    Cycle requestTimeout = 4000;

    /** Retransmissions allowed per request (0 = fail on the first
     *  timeout). */
    int maxRetries = 3;

    /** Base backoff delay; retry k waits backoffBase << (k-1) cycles
     *  plus seeded jitter in [0, backoffBase). */
    Cycle backoffBase = 64;

    /** Outstanding requests a client keeps in flight. */
    int inflightWindow = 2;

    /** Server count: the first `servers` endpoints serve; every other
     *  endpoint is a client. */
    int servers = 8;

    /** Resolved server node ids (the first `servers` endpoints of the
     *  topology, filled by the network). The identity map [0, servers)
     *  when empty. */
    std::vector<NodeId> serverNodes;

    /** Mean service time; a request's actual service delay is the
     *  seeded uniform 1 + hash % (2*serviceTime - 1). */
    Cycle serviceTime = 16;

    /** Run seed every workload hash derives from (the network copies
     *  its own seed in, so grids vary it per run automatically). */
    std::uint64_t seed = 1;
};

/**
 * Pure stateless mix of the run seed with a request's identity —
 * the only "randomness" the workload layer uses. Implemented as a
 * deriveSeed (splitmix64) chain; equal inputs give equal outputs on
 * every kernel, shard layout, and thread count.
 */
std::uint64_t workloadHash(std::uint64_t seed, std::uint64_t node,
                           std::uint64_t reqSeq, std::uint64_t salt);

/** Hash salts keeping the independent draws decorrelated. */
inline constexpr std::uint64_t kServerPickSalt = 0x5e17;
inline constexpr std::uint64_t kServiceSalt = 0x5e27;
inline constexpr std::uint64_t kJitterSalt = 0x5e37;

/** One request a client still cares about. */
struct OutstandingRequest
{
    std::uint32_t reqSeq = 0;
    NodeId server = kInvalidNode;

    /** Cycle the request was first issued (latency anchor across
     *  retries). */
    Cycle issuedAt = 0;

    /** When the armed timer fires: reply deadline while in flight,
     *  retransmission time while backing off. */
    Cycle deadline = 0;

    /** Transmission index, 0 for the first send. */
    std::uint16_t attempt = 0;

    bool measured = false;

    /** True between a timeout and the backed-off retransmission. */
    bool backingOff = false;
};

/** A message an engine wants its NIC to enqueue this cycle. */
struct WorkloadEmit
{
    NodeId dest = kInvalidNode;
    std::uint32_t reqSeq = 0;
    std::uint16_t attempt = 0;
    bool measured = false;
};

/** Monotone reliability counters kept per client engine. */
struct ClientCounters
{
    std::uint64_t issued = 0;
    std::uint64_t issuedMeasured = 0;
    std::uint64_t completed = 0;
    std::uint64_t completedMeasured = 0;
    std::uint64_t failed = 0;
    std::uint64_t failedMeasured = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t duplicateReplies = 0;
};

/** Outcome of a reply arriving at a client. */
struct ReplyOutcome
{
    /** False when the reply was a duplicate and was suppressed. */
    bool completed = false;
    Cycle issuedAt = 0;
    std::uint16_t attempt = 0;
    bool measured = false;
};

/**
 * The per-client reliability engine: window admission, deadline
 * timers, exponential backoff with seeded jitter, retry budget, and
 * duplicate-reply suppression. Owned by (and only ever touched from)
 * the client node's NIC, so the parallel kernel needs no locks here.
 */
class ClientEngine
{
  public:
    ClientEngine(NodeId node, const WorkloadOptions& opts)
        : node_(node), opts_(opts)
    {}

    /**
     * Fire every timer due at or before `now` (timeout -> backoff ->
     * retransmit -> eventual failure) and, while the window has room
     * and `issueEnabled`, admit new requests. Messages to send are
     * appended to `out` in deterministic order: retransmissions of
     * older requests first, then new issues in sequence order.
     */
    void step(Cycle now, bool issueEnabled, bool measuring,
              std::vector<WorkloadEmit>& out);

    /** A reply for `reqSeq` arrived; completes the request or counts
     *  a suppressed duplicate. */
    ReplyOutcome onReply(std::uint32_t reqSeq, Cycle now);

    /** Earliest armed timer at or after `now`; kNeverCycle when no
     *  request is outstanding. This is the engine's wake source — it
     *  must reach the kernel's nextEventCycle() so fast-forward can
     *  never skip an expiry. */
    Cycle nextWake(Cycle now) const;

    /**
     * True when a fault-purged transmission (reqSeq, attempt) is still
     * the one the client is waiting on — only then may the network's
     * Reinject policy put it back on the wire. Once the client has
     * timed the attempt out (or completed/failed the request) the
     * reliability layer owns the retry and reinjection must be a
     * no-op.
     */
    bool wantsReinject(std::uint32_t reqSeq,
                       std::uint16_t attempt) const;

    const ClientCounters& counters() const { return counters_; }

    /** Outstanding-request table (watchdog diagnostics). */
    const std::vector<OutstandingRequest>& outstanding() const
    {
        return outstanding_;
    }

  private:
    /** Backoff delay before retransmission number `attempt` (>= 1):
     *  exponential in the attempt plus seeded jitter. */
    Cycle backoffDelay(std::uint32_t reqSeq,
                       std::uint16_t attempt) const;

    NodeId node_;
    WorkloadOptions opts_;
    std::uint32_t next_seq_ = 0;
    std::vector<OutstandingRequest> outstanding_;
    ClientCounters counters_;
};

/** Monotone counters kept per server engine. */
struct ServerCounters
{
    std::uint64_t served = 0;
    std::uint64_t duplicateRequests = 0;
};

/**
 * The per-server engine: accepts requests, remembers which (client,
 * request) pairs it already served (duplicates are counted but still
 * re-answered — at-least-once semantics keep a purged reply
 * recoverable), and releases replies after the seeded service delay.
 */
class ServerEngine
{
  public:
    ServerEngine(NodeId node, const WorkloadOptions& opts)
        : node_(node), opts_(opts)
    {}

    /** A request flit-train fully arrived; schedules its reply. */
    void onRequest(NodeId client, std::uint32_t reqSeq,
                   std::uint16_t attempt, bool measured, Cycle now);

    /** Release every reply whose service completed at or before
     *  `now` into `out`, in deterministic (readyAt, client, reqSeq)
     *  order. */
    void step(Cycle now, std::vector<WorkloadEmit>& out);

    /** Earliest pending reply release at or after `now`; kNeverCycle
     *  when idle. */
    Cycle nextWake(Cycle now) const;

    const ServerCounters& counters() const { return counters_; }

  private:
    struct PendingReply
    {
        Cycle readyAt;
        NodeId client;
        std::uint32_t reqSeq;
        std::uint16_t attempt;
        bool measured;

        bool
        operator>(const PendingReply& o) const
        {
            if (readyAt != o.readyAt)
                return readyAt > o.readyAt;
            if (client != o.client)
                return client > o.client;
            if (reqSeq != o.reqSeq)
                return reqSeq > o.reqSeq;
            return attempt > o.attempt;
        }
    };

    NodeId node_;
    WorkloadOptions opts_;
    std::priority_queue<PendingReply, std::vector<PendingReply>,
                        std::greater<>>
        pending_;
    /** (client << 32) | reqSeq pairs already served. Membership-only
     *  (never iterated), so the unordered layout stays unobservable. */
    std::unordered_set<std::uint64_t> served_;
    ServerCounters counters_;
};

} // namespace lapses

#endif // LAPSES_WORKLOAD_WORKLOAD_HPP
