/**
 * @file
 * Windowed telemetry: deterministic per-router counters sampled every
 * `telemetryWindow` cycles into a columnar buffer (see DESIGN.md
 * "Telemetry determinism contract").
 *
 * Counters are maintained incrementally on paths the router hot loops
 * already touch (crossbar grants, VC-mux transmits, the occupied-VC
 * masks), draw no randomness, and never feed back into any routing or
 * arbitration decision — telemetry observes the simulation, it cannot
 * perturb it. The window boundary is a wake source for the activity
 * kernel exactly like fault events, so idle fast-forward stops at every
 * boundary and both kernels snapshot identical state at identical
 * cycles.
 */

#ifndef LAPSES_TELEMETRY_TELEMETRY_HPP
#define LAPSES_TELEMETRY_TELEMETRY_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lapses
{

/**
 * Cumulative counters one router maintains when telemetry is enabled
 * (Router::setTelemetry). All fields only ever increase; the buffer
 * turns them into per-window deltas at snapshot time so the router
 * hot path never resets anything.
 */
struct RouterTelemetry
{
    RouterTelemetry() = default;

    explicit RouterTelemetry(int ports)
        : flitsOut(static_cast<std::size_t>(ports), 0),
          vcOccupancyTime(static_cast<std::size_t>(ports), 0)
    {
    }

    /** Flits transmitted onto each output port's link (port 0 =
     *  ejection to the local NIC). */
    std::vector<std::uint64_t> flitsOut;

    /** Time-weighted output-VC occupancy per port: each cycle the
     *  router steps, the popcount of its backlogged-VC mask is added.
     *  A quiescent router holds no flits, so skipped steps contribute
     *  zero identically under both kernels. */
    std::vector<std::uint64_t> vcOccupancyTime;

    /** Crossbar requests raised that were not granted that cycle. */
    std::uint64_t arbStalls = 0;

    /** Output VCs with a ready flit that could not transmit for lack
     *  of downstream credit (one count per VC per cycle). */
    std::uint64_t creditStarvedCycles = 0;
};

/**
 * Columnar store of per-window, per-node telemetry rows. The network
 * appends one row per node at every window boundary (delta vs. the
 * previous snapshot); the owner flushes the whole buffer as JSONL or
 * CSV after the run. Column-major storage keeps the per-boundary work
 * a handful of vector appends with no per-row allocation.
 */
class TelemetryBuffer
{
  public:
    /** @param nodes network size, @param ports router ports (incl. the
     *  local port 0) — fixes the flattened per-port column width. */
    TelemetryBuffer(NodeId nodes, int ports);

    /** Start a window covering cycles [start, end). */
    void beginWindow(Cycle start, Cycle end);

    /** Append node's row for the current window; `cumulative` is the
     *  router's lifetime counters, diffed against the previous
     *  snapshot internally. */
    void sample(NodeId node, const RouterTelemetry& cumulative,
                std::uint64_t nic_backlog);

    std::size_t rows() const { return node_.size(); }
    std::size_t windows() const { return windows_; }
    int ports() const { return ports_; }

    /** One JSON object per row, schema documented in README
     *  "Telemetry & tracing". */
    void writeJsonl(std::ostream& os) const;

    /** CSV with per-port columns flattened (see csvHeader). */
    void writeCsv(std::ostream& os) const;

    /** "window_start,window_end,node,flits_out_p0,...,arb_stalls,
     *  credit_starved,nic_backlog" for this buffer's port count. */
    std::string csvHeader() const;

  private:
    int ports_;
    std::size_t windows_ = 0;
    Cycle window_start_ = 0;
    Cycle window_end_ = 0;

    // Row-aligned columns; per-port columns are flattened row-major
    // (row r, port p at index r * ports_ + p).
    std::vector<Cycle> start_;
    std::vector<Cycle> end_;
    std::vector<NodeId> node_;
    std::vector<std::uint64_t> flits_out_;
    std::vector<std::uint64_t> occ_time_;
    std::vector<std::uint64_t> arb_stalls_;
    std::vector<std::uint64_t> credit_starved_;
    std::vector<std::uint64_t> nic_backlog_;

    /** Cumulative counters at the previous window boundary, per node. */
    std::vector<RouterTelemetry> prev_;
};

/**
 * Wall-clock seconds per kernel phase (Network::kernelProfile); filled
 * only while Network::setProfiling(true). Pure observers on the host
 * clock — simulated state is untouched.
 */
struct KernelProfile
{
    double wireDrainSeconds = 0.0;
    double nicStepSeconds = 0.0;
    double routerStepSeconds = 0.0;
    double faultSeconds = 0.0;
    double telemetrySeconds = 0.0;

    /** Coordinator time draining boundary-crossing wire events (the
     *  serialized slice of the parallel kernel's delivery phase). */
    double boundaryDrainSeconds = 0.0;

    /** Worker time delivering intra-shard wire events (summed over
     *  shards, so it can exceed wall-clock when shards overlap). */
    double intraDeliverySeconds = 0.0;

    /** Coordinator time parked at the end-of-batch barrier waiting for
     *  the slowest shard worker. */
    double barrierWaitSeconds = 0.0;

    double
    totalSeconds() const
    {
        return wireDrainSeconds + nicStepSeconds + routerStepSeconds +
               faultSeconds + telemetrySeconds + boundaryDrainSeconds +
               intraDeliverySeconds + barrierWaitSeconds;
    }

    /** The event kernel's coordinator-only phases: boundary drain +
     *  barrier wait + fault + telemetry, exactly the terms the
     *  --profile serial fraction names. The scan kernel's wire drain
     *  is not one: scan has no coordinator/worker split. */
    double
    serialSeconds() const
    {
        return boundaryDrainSeconds + barrierWaitSeconds + faultSeconds +
               telemetrySeconds;
    }
};

} // namespace lapses

#endif // LAPSES_TELEMETRY_TELEMETRY_HPP
