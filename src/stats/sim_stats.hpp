/**
 * @file
 * Result records produced by a simulation run.
 *
 * The paper reports "average network latency versus normalized load"
 * (Section 2.2). We record both the network latency (header injection into
 * the network to tail ejection) and the total latency (message creation,
 * i.e. including source queueing, to tail ejection); Fig. 5's saturation
 * growth matches the total-latency metric.
 */

#ifndef LAPSES_STATS_SIM_STATS_HPP
#define LAPSES_STATS_SIM_STATS_HPP

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "stats/accumulator.hpp"

namespace lapses
{

/** Aggregate results of one simulation point (one load, one config). */
struct SimStats
{
    /** Latency from message creation to tail ejection (cycles). */
    Accumulator totalLatency;

    /** Latency from header network entry to tail ejection (cycles). */
    Accumulator networkLatency;

    /** Per-message hop counts (routers traversed). */
    Accumulator hops;

    /** Latency distribution for percentile reporting. */
    Histogram latencyHist{10.0, 500};

    /** Messages injected during the measurement window. */
    std::uint64_t injectedMessages = 0;

    /** Messages delivered during the measurement window. */
    std::uint64_t deliveredMessages = 0;

    /** Flits delivered during the measurement window. */
    std::uint64_t deliveredFlits = 0;

    /** Cycles in the measurement window. */
    Cycle measuredCycles = 0;

    /** Accepted throughput in flits/node/cycle. */
    double acceptedFlitRate = 0.0;

    /** Offered load in flits/node/cycle (from the injection process). */
    double offeredFlitRate = 0.0;

    /**
     * True when the run was declared saturated: the network could not
     * drain the offered load (persistent source-queue growth) or latency
     * exceeded the configured cutoff. The paper prints "Sat." for these.
     */
    bool saturated = false;

    // --- Resilience (dynamic link faults; all zero on healthy runs) ---

    std::uint64_t linkDownEvents = 0;   //!< fault events applied
    std::uint64_t linkUpEvents = 0;     //!< repairs applied
    std::uint64_t reconfigurations = 0; //!< table reprogram sweeps

    /** Messages permanently lost to faults (policy Drop or unroutable). */
    std::uint64_t droppedMessages = 0;

    /** Flits physically purged from buffers and wires. */
    std::uint64_t droppedFlits = 0;

    /** Messages requeued at their source (policy Reinject). */
    std::uint64_t reinjectedMessages = 0;

    /** Held headers re-routed by a reconfiguration sweep. */
    std::uint64_t reroutedHeads = 0;

    /** Latency of measured messages delivered after the first fault
     *  event (the post-fault regime as one number). */
    Accumulator postFaultLatency;

    /** Latency-recovery curve: deliveries bucketed by cycles elapsed
     *  since the most recent fault event — the mean per bucket shows
     *  latency spiking at the fault and recovering as reconfiguration
     *  and reinjection catch up. Bucket i covers
     *  [i, i+1) * kRecoveryBucketCycles; the last bucket is open. */
    static constexpr std::size_t kRecoveryBuckets = 8;
    static constexpr Cycle kRecoveryBucketCycles = 1000;
    std::array<Accumulator, kRecoveryBuckets> recoveryCurve{};

    /** Multi-line "cycles-after-fault -> mean latency" rendering of
     *  recoveryCurve (empty string when no fault fired). */
    std::string recoveryCurveSummary() const;

    // --- Closed-loop service workload (src/workload/; all zero for
    // open-loop runs) ----------------------------------------------

    /** End-to-end request latency (issue to reply arrival, across
     *  every retry) of measured completed requests. */
    Accumulator requestLatency;

    /** Request-latency distribution for p50/p99/p999 SLO reporting.
     *  Wider buckets than the flit histogram: a request can legally
     *  span several timeout + backoff rounds. */
    Histogram requestLatencyHist{50.0, 2000};

    /** Requests issued / completed / permanently failed during the
     *  measurement window. */
    std::uint64_t requestsIssued = 0;
    std::uint64_t requestsCompleted = 0;
    std::uint64_t requestsFailed = 0;

    /** Deadline expiries observed (a request may time out several
     *  times before completing or failing). All phases. */
    std::uint64_t requestTimeouts = 0;

    /** Retransmissions put on the wire (all phases). */
    std::uint64_t requestRetries = 0;

    /** Requests a server had already answered (suppressed from the
     *  served count, still re-answered). */
    std::uint64_t duplicateRequests = 0;

    /** Replies for requests the client no longer tracked. */
    std::uint64_t duplicateReplies = 0;

    /** Reinjects the fault machinery skipped because the reliability
     *  layer owned the retry. */
    std::uint64_t suppressedReinjects = 0;

    /** Measured completions per cycle (goodput) vs. measured issues
     *  per cycle (offered) over the measurement window. */
    double requestGoodput = 0.0;
    double requestOffered = 0.0;

    /** Request latency of measured completions after the first fault
     *  event, and the recovery curve bucketed like recoveryCurve. */
    Accumulator postFaultRequestLatency;
    std::array<Accumulator, kRecoveryBuckets> requestRecoveryCurve{};

    /** Mean total latency, the paper's headline metric. */
    double meanLatency() const { return totalLatency.mean(); }

    /** Mean network latency (excludes source queueing). */
    double meanNetworkLatency() const { return networkLatency.mean(); }

    /** A closed-loop run: requests issued or completed while measured. */
    bool closedLoop() const { return requestsIssued || requestsCompleted; }

    /** One-line human-readable summary. */
    std::string summary() const;
};

} // namespace lapses

#endif // LAPSES_STATS_SIM_STATS_HPP
