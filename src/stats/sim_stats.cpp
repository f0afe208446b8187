#include "stats/sim_stats.hpp"

#include <cstdio>

namespace lapses
{

std::string
SimStats::summary() const
{
    char buf[256];
    if (saturated) {
        std::snprintf(buf, sizeof(buf),
                      "SATURATED (offered %.4f flits/node/cycle, "
                      "accepted %.4f)",
                      offeredFlitRate, acceptedFlitRate);
    } else {
        std::snprintf(buf, sizeof(buf),
                      "latency %.1f (net %.1f) cycles, hops %.2f, "
                      "accepted %.4f flits/node/cycle over %llu msgs",
                      totalLatency.mean(), networkLatency.mean(),
                      hops.mean(), acceptedFlitRate,
                      static_cast<unsigned long long>(deliveredMessages));
    }
    std::string s(buf);
    if (closedLoop()) {
        std::snprintf(
            buf, sizeof(buf),
            " | requests: %llu issued, %llu done (p99 %.0f, "
            "p999 %.0f), %llu failed, %llu timeouts, %llu retries",
            static_cast<unsigned long long>(requestsIssued),
            static_cast<unsigned long long>(requestsCompleted),
            requestLatencyHist.percentile(0.99),
            requestLatencyHist.percentile(0.999),
            static_cast<unsigned long long>(requestsFailed),
            static_cast<unsigned long long>(requestTimeouts),
            static_cast<unsigned long long>(requestRetries));
        s += buf;
    }
    if (linkDownEvents > 0) {
        std::snprintf(
            buf, sizeof(buf),
            " | faults: %llu down/%llu up, %llu reconfig, "
            "%llu rerouted, %llu reinjected, %llu dropped",
            static_cast<unsigned long long>(linkDownEvents),
            static_cast<unsigned long long>(linkUpEvents),
            static_cast<unsigned long long>(reconfigurations),
            static_cast<unsigned long long>(reroutedHeads),
            static_cast<unsigned long long>(reinjectedMessages),
            static_cast<unsigned long long>(droppedMessages));
        s += buf;
    }
    return s;
}

std::string
SimStats::recoveryCurveSummary() const
{
    if (linkDownEvents == 0)
        return "";
    std::string s;
    char buf[96];
    for (std::size_t i = 0; i < kRecoveryBuckets; ++i) {
        const Accumulator& acc = recoveryCurve[i];
        const auto lo = static_cast<unsigned long long>(
            i * kRecoveryBucketCycles);
        if (i + 1 < kRecoveryBuckets) {
            std::snprintf(buf, sizeof(buf), "  +[%6llu, %6llu) ",
                          lo,
                          static_cast<unsigned long long>(
                              (i + 1) * kRecoveryBucketCycles));
        } else {
            std::snprintf(buf, sizeof(buf), "  +[%6llu,    inf) ",
                          lo);
        }
        s += buf;
        if (acc.count() == 0) {
            s += "-\n";
        } else {
            std::snprintf(buf, sizeof(buf),
                          "latency %7.1f over %llu msgs\n", acc.mean(),
                          static_cast<unsigned long long>(acc.count()));
            s += buf;
        }
    }
    return s;
}

} // namespace lapses
