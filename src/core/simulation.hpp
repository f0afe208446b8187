/**
 * @file
 * The top-level simulation facade: build a configured network, warm it
 * up, measure, drain, and return statistics.
 *
 * Methodology follows the paper (Section 2.2): open-loop injection,
 * warm-up messages excluded from statistics, measurement over a fixed
 * number of injected messages, results reported up to network
 * saturation ("Sat." entries in Table 4).
 */

#ifndef LAPSES_CORE_SIMULATION_HPP
#define LAPSES_CORE_SIMULATION_HPP

#include <array>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "network/network.hpp"
#include "stats/sim_stats.hpp"

namespace lapses
{

/** One configured simulation instance (single use: construct, run). */
class Simulation
{
  public:
    /** Build the network; throws ConfigError on invalid settings. */
    explicit Simulation(const SimConfig& cfg);
    ~Simulation();

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /**
     * Run warm-up, measurement and drain; returns the collected
     * statistics. Throws SimulationError if the deadlock watchdog
     * fires (indicating a non-deadlock-free configuration).
     */
    SimStats run();

    /** Advance exactly n cycles without phase logic (for tests and
     *  interactive exploration). */
    void stepCycles(Cycle n);

    const SimConfig& config() const { return cfg_; }
    const Topology& topology() const { return topo_; }
    const RoutingAlgorithm& algorithm() const { return *algo_; }
    const RoutingTable& table() const { return *table_; }
    Network& network() { return *net_; }

    /** The effective escape-VC count after auto-resolution. */
    int effectiveEscapeVcs() const { return net_->escapeVcs(); }

    /** One latency statistic split around faults: every sample, the
     *  samples after the first fault, and the recovery curve (samples
     *  bucketed by cycles since the most recent fault). */
    struct LatencyLane
    {
        Accumulator all;
        Accumulator postFault;
        std::array<Accumulator, SimStats::kRecoveryBuckets> recovery{};

        /** Record `latency`, observed at cycle `at`; `lastFault` is
         *  the most recent fault event's cycle (kNeverCycle = none). */
        void add(double latency, Cycle at, Cycle lastFault);
        void merge(const LatencyLane& other);
    };

    /**
     * Per-destination-node statistics accumulators (DESIGN.md "Sharded
     * stats reduction"). Node d's deliveries all eject on the thread
     * owning d's shard, so lane writes are race-free under the
     * parallel kernel with no locks; the lane granularity is the node
     * (not the shard) so the reduction shape — and therefore every
     * floating-point result — is independent of the shard count.
     * Request lanes are LatencyLanes per client node, sharded the same
     * way: a client's completions fire on the thread owning it.
     */
    struct DeliveryLane
    {
        LatencyLane total;
        Accumulator network;
        Accumulator hops;

        void merge(const DeliveryLane& other);
    };

    /** Per-shard integer tallies. Integer sums are exact and
     *  order-independent, so these may be kept at shard granularity
     *  (one histogram per node would be wasteful). */
    struct ShardTally
    {
        ShardTally(double hist_width, std::size_t hist_buckets,
                   double req_width, std::size_t req_buckets)
            : latencyHist(hist_width, hist_buckets),
              requestLatencyHist(req_width, req_buckets)
        {
        }

        Histogram latencyHist;
        Histogram requestLatencyHist;
        std::uint64_t deliveredMessages = 0;
        std::uint64_t deliveredFlits = 0;
        std::uint64_t windowFlits = 0;
    };

  private:
    static void deliveryHook(void* ctx, const MessageDescriptor& msg,
                             Cycle now);
    void recordDelivery(const MessageDescriptor& msg, Cycle now);

    static void requestHook(void* ctx, NodeId client, Cycle issuedAt,
                            Cycle completedAt, bool measured);

    /** The phase loop's counters: messages created and measured ones
     *  delivered or fault-dropped (open loop), or requests issued and
     *  measured ones completed or failed (closed loop). */
    struct PhaseCounts
    {
        std::uint64_t issued = 0;
        std::uint64_t issuedMeasured = 0;
        std::uint64_t resolvedMeasured = 0;
    };
    PhaseCounts phaseCounts() const;

    /** Run phase loop until pred is true or saturation; returns false
     *  when the run saturated. */
    template <typename Pred>
    bool runUntil(Pred pred);

    /** Periodic saturation / deadlock checks. */
    bool saturationCheck();

    /** Fold the lanes and tallies_ into stats_ (idempotent:
     *  recomputes from scratch). Lanes merge whole over a fixed-shape
     *  pairwise tree whose shape depends only on the node count, so
     *  the merged floating-point values are byte-identical for every
     *  kernel, shard count and batch size. */
    void reduceStats();

    /** The warm-up / measure / drain phases (body of run()): issue a
     *  warm-up count, measure a quota, then drain until every measured
     *  message or request is resolved. Closed loop stops admitting
     *  new requests for the drain; retries keep running. */
    void runPhases();

    SimConfig cfg_;
    Topology topo_;
    RoutingAlgorithmPtr algo_;
    RoutingTablePtr table_;
    TrafficPatternPtr pattern_;
    std::unique_ptr<Network> net_;

    SimStats stats_;
    std::vector<DeliveryLane> lanes_;  //!< indexed by destination node
    std::vector<ShardTally> tallies_;  //!< indexed by owning shard
    std::vector<LatencyLane> request_lanes_; //!< by client node
    bool measuring_window_ = false;
    Cycle measure_start_ = 0;
    Cycle measure_end_ = 0;
    std::uint64_t window_flits_ = 0;

    // Deadlock watchdog state.
    std::uint64_t last_progress_count_ = 0;
    Cycle last_progress_cycle_ = 0;
};

} // namespace lapses

#endif // LAPSES_CORE_SIMULATION_HPP
