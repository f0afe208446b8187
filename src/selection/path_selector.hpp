/**
 * @file
 * Path-selection heuristics (paper Section 4).
 *
 * When the routing table offers multiple candidate output ports, the
 * selection function picks the unique port to arbitrate for. Static
 * policies ignore network state; the paper's proposed LFU / LRU /
 * MAX-CREDIT policies use per-port usage history and credit state, which
 * the router exposes through PortStatus snapshots.
 */

#ifndef LAPSES_SELECTION_PATH_SELECTOR_HPP
#define LAPSES_SELECTION_PATH_SELECTOR_HPP

#include <memory>
#include <span>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace lapses
{

/** Dynamic state of one candidate output port at selection time. */
struct PortStatus
{
    /** The candidate output port. */
    PortId port = kInvalidPort;

    /** Virtual channels this header could allocate on the port right
     *  now; the router pre-filters candidates to freeVcs > 0. */
    int freeVcs = 0;

    /** Flow-control credits summed over the port's VCs — downstream
     *  free buffer space (MAX-CREDIT's input). */
    int totalCredits = 0;

    /** Currently-allocated VCs on the port: the degree of VC
     *  multiplexing (MIN-MUX's input). */
    int activeVcs = 0;

    /** Cumulative flits forwarded through the port (LFU's counter). */
    std::uint64_t useCount = 0;

    /** Cycle the port last forwarded a flit (LRU's age timer). */
    Cycle lastUseCycle = 0;
};

/** Interface of a path-selection heuristic; one instance per router. */
class PathSelector
{
  public:
    virtual ~PathSelector() = default;

    /**
     * Pick one port among the candidates. Candidates are listed in
     * table order (dimension order) and are all currently allocatable.
     * @param candidates at least one entry.
     */
    virtual PortId select(std::span<const PortStatus> candidates) = 0;
};

using PathSelectorPtr = std::unique_ptr<PathSelector>;

/** STATIC-XY: prefer the lowest dimension (X before Y) regardless of
 *  traffic [10]. */
class StaticXySelector : public PathSelector
{
  public:
    PortId select(std::span<const PortStatus> candidates) override;
};

/** First-available-free-path in fixed priority order (Servernet-II
 *  style [13]); identical to STATIC-XY once the router has filtered
 *  candidates to free ones, and kept as a distinct policy for API
 *  completeness. */
class FirstFreeSelector : public PathSelector
{
  public:
    PortId select(std::span<const PortStatus> candidates) override;
};

/** Uniform random choice among candidates (Chaos-router style [17]). */
class RandomSelector : public PathSelector
{
  public:
    explicit RandomSelector(Rng rng) : rng_(rng) {}
    PortId select(std::span<const PortStatus> candidates) override;

  private:
    Rng rng_;
};

/** MIN-MUX: least VC-multiplexed physical channel [9]. */
class MinMuxSelector : public PathSelector
{
  public:
    PortId select(std::span<const PortStatus> candidates) override;
};

/** LFU: lowest cumulative port usage count (proposed). */
class LfuSelector : public PathSelector
{
  public:
    PortId select(std::span<const PortStatus> candidates) override;
};

/** LRU: port least recently used (proposed). */
class LruSelector : public PathSelector
{
  public:
    PortId select(std::span<const PortStatus> candidates) override;
};

/** MAX-CREDIT: port with the most downstream credits (proposed). */
class MaxCreditSelector : public PathSelector
{
  public:
    PortId select(std::span<const PortStatus> candidates) override;
};

} // namespace lapses

#endif // LAPSES_SELECTION_PATH_SELECTOR_HPP
