#include "stats/stat_fields.hpp"

#include <algorithm>
#include <limits>

namespace lapses
{

namespace
{

using S = SimStats;

constexpr double kNull = std::numeric_limits<double>::quiet_NaN();

template <auto Acc>
double
mean(const SimStats& s)
{
    return (s.*Acc).mean();
}

/** The mean, or null when nothing was sampled (e.g. no fault fired). */
template <auto Acc>
double
sampledMean(const SimStats& s)
{
    return (s.*Acc).count() > 0 ? (s.*Acc).mean() : kNull;
}

template <auto Hist, double Q>
double
percentile(const SimStats& s)
{
    return (s.*Hist).percentile(Q);
}

template <auto Field>
double
real(const SimStats& s)
{
    return s.*Field;
}

/** Null for an open-loop run. */
template <double (*Value)(const SimStats&)>
double
closed(const SimStats& s)
{
    return s.closedLoop() ? Value(s) : kNull;
}

const StatField kStats[] = {
    {.key = "latency_mean", .rank = 0, .column = "latency",
     .blank = Blank::Saturated, .value = mean<&S::totalLatency>,
     .fold = Fold::Summary},
    {.key = "latency_p50", .value = percentile<&S::latencyHist, 0.5>},
    {.key = "latency_p95", .value = percentile<&S::latencyHist, 0.95>},
    {.key = "latency_p99", .value = percentile<&S::latencyHist, 0.99>},
    {.key = "network_latency_mean", .rank = 1, .column = "network_latency",
     .blank = Blank::Saturated, .value = mean<&S::networkLatency>},
    {.key = "hops_mean", .rank = 2, .column = "hops",
     .blank = Blank::Saturated, .value = mean<&S::hops>},
    {.key = "accepted_flit_rate", .rank = 3, .column = "accepted",
     .blank = Blank::Saturated, .value = real<&S::acceptedFlitRate>,
     .fold = Fold::Summary, .aggregate = "throughput"},
    {.key = "offered_flit_rate", .rank = 4, .column = "offered",
     .value = real<&S::offeredFlitRate>},
    {.key = "delivered_messages", .count = &S::deliveredMessages},
    {.key = "measured_cycles", .count = &S::measuredCycles},
    // Resilience: zero or null on healthy runs.
    {.key = "link_down_events", .count = &S::linkDownEvents},
    {.key = "reconfigurations", .count = &S::reconfigurations},
    {.key = "dropped_messages", .rank = 5, .count = &S::droppedMessages},
    {.key = "dropped_flits", .count = &S::droppedFlits},
    {.key = "reinjected_messages", .rank = 6,
     .count = &S::reinjectedMessages},
    {.key = "rerouted_heads", .count = &S::reroutedHeads},
    {.key = "post_fault_latency_mean",
     .value = sampledMean<&S::postFaultLatency>},
    // Closed-loop service workload: null, zero or blank for open loop.
    {.key = "request_latency_mean",
     .value = closed<mean<&S::requestLatency>>},
    {.key = "request_latency_p50", .rank = 7, .blank = Blank::OpenLoop,
     .value = closed<percentile<&S::requestLatencyHist, 0.5>>},
    {.key = "request_latency_p99", .rank = 8, .blank = Blank::OpenLoop,
     .value = closed<percentile<&S::requestLatencyHist, 0.99>>,
     .fold = Fold::Mean},
    {.key = "request_latency_p999", .rank = 9, .blank = Blank::OpenLoop,
     .value = closed<percentile<&S::requestLatencyHist, 0.999>>,
     .fold = Fold::Mean},
    {.key = "requests_issued", .count = &S::requestsIssued},
    {.key = "requests_completed", .count = &S::requestsCompleted},
    {.key = "requests_failed", .rank = 14, .blank = Blank::OpenLoop,
     .count = &S::requestsFailed},
    {.key = "request_timeouts", .rank = 13, .blank = Blank::OpenLoop,
     .count = &S::requestTimeouts},
    {.key = "request_retries", .rank = 12, .blank = Blank::OpenLoop,
     .count = &S::requestRetries},
    {.key = "duplicate_requests", .count = &S::duplicateRequests},
    {.key = "duplicate_replies", .count = &S::duplicateReplies},
    {.key = "suppressed_reinjects", .count = &S::suppressedReinjects},
    {.key = "request_goodput", .rank = 10, .blank = Blank::OpenLoop,
     .value = real<&S::requestGoodput>},
    {.key = "request_offered", .rank = 11, .blank = Blank::OpenLoop,
     .value = real<&S::requestOffered>},
    {.key = "post_fault_request_latency_mean",
     .value = sampledMean<&S::postFaultRequestLatency>},
};

} // namespace

std::span<const StatField>
statFields()
{
    return kStats;
}

const std::vector<const StatField*>&
statCsvFields()
{
    static const std::vector<const StatField*> columns = [] {
        std::vector<const StatField*> v;
        for (const StatField& f : kStats) {
            if (f.rank >= 0)
                v.push_back(&f);
        }
        std::sort(v.begin(), v.end(), [](const auto* a, const auto* b) {
            return a->rank < b->rank;
        });
        return v;
    }();
    return columns;
}

} // namespace lapses
