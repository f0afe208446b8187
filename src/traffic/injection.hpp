/**
 * @file
 * Open-loop injection processes and normalized-load conversion.
 *
 * The paper injects messages with exponentially distributed
 * inter-arrival times and reports load normalized to the injection rate
 * that saturates the network bisection under node-uniform traffic
 * (Section 2.2).
 */

#ifndef LAPSES_TRAFFIC_INJECTION_HPP
#define LAPSES_TRAFFIC_INJECTION_HPP

#include "common/enum_names.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/mesh.hpp"

namespace lapses
{

/** Message inter-arrival distributions. */
enum class InjectionKind
{
    Exponential, //!< the paper's process
    Bernoulli,   //!< at most one arrival per cycle, probability = rate
    Bursty,      //!< ON/OFF (Markov-modulated) process; same mean rate
                 //!< delivered in bursts — the "high and fluctuating"
                 //!< SAN workload of the paper's introduction
};

/** Names for flags, grid axes and records (common/enum_names.hpp). */
constexpr auto
enumNames(InjectionKind)
{
    return std::to_array<EnumName<InjectionKind>>({
        {InjectionKind::Exponential, "exponential"},
        {InjectionKind::Bernoulli, "bernoulli"},
        {InjectionKind::Bursty, "bursty"},
    });
}

/** Shape of the Bursty process. */
struct BurstOptions
{
    /** Mean ON-period length in cycles (geometric). */
    double meanOnCycles = 100.0;

    /** Mean OFF-period length in cycles (geometric). */
    double meanOffCycles = 400.0;
};

/** Per-node open-loop message arrival process. */
class InjectionProcess
{
  public:
    /**
     * @param kind            inter-arrival distribution
     * @param msgs_per_cycle  mean arrival rate (messages/node/cycle);
     *                        0 disables injection
     * @param rng             this node's private stream
     * @param burst           ON/OFF shape, used by Bursty only
     */
    InjectionProcess(InjectionKind kind, double msgs_per_cycle, Rng rng,
                     BurstOptions burst = {});

    /**
     * Number of messages arriving during cycle 'now'. Must be called
     * with non-decreasing cycle numbers.
     */
    int arrivals(Cycle now);

    /**
     * The earliest cycle c >= now at which arrivals(c) might draw from
     * the RNG or return a non-zero count; kNeverCycle when the process
     * can never produce another arrival (rate 0). Cycles before the
     * returned one may be skipped entirely: calling arrivals() there is
     * a guaranteed no-op (no state change, no RNG consumption), which
     * is what lets the activity-driven kernel put an idle NIC to sleep
     * without perturbing the byte-identical RNG stream.
     */
    Cycle nextArrivalCycle(Cycle now) const;

    double rate() const { return rate_; }

    /** True while a Bursty process is in an ON period. */
    bool inBurst() const { return on_; }

  private:
    InjectionKind kind_;
    double rate_;
    double next_time_;
    Rng rng_;
    // Bursty state: exponential arrivals at on_rate_ during ON.
    BurstOptions burst_;
    double on_rate_ = 0.0;
    bool on_ = false;
    Cycle phase_ends_ = 0;
};

/** Flit injection rate (flits/node/cycle) at a normalized load. */
double flitRateForLoad(const Topology& topo, double normalized_load);

/** Message injection rate (messages/node/cycle) at a normalized load
 *  for a fixed message length. */
double msgRateForLoad(const Topology& topo, double normalized_load,
                      int msg_len);

} // namespace lapses

#endif // LAPSES_TRAFFIC_INJECTION_HPP
