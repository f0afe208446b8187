/**
 * @file
 * Round-robin arbiters for crossbar output ports and VC multiplexers.
 *
 * The two arbitration points of the paper's router model (Section 2.2:
 * "contention ... can occur only in the crossbar arbitration and VC
 * multiplexing stages") both use rotating-priority arbitration for
 * starvation freedom. Request lines are bits, so raising, scanning and
 * clearing are a handful of bit operations per cycle rather than a
 * walk over every requester. Up to 64 requesters (every VC mux, and
 * the crossbar of any router with ports x VCs <= 64) share one inline
 * word; only wider crossbars keep a vector of words.
 */

#ifndef LAPSES_ROUTER_ARBITER_HPP
#define LAPSES_ROUTER_ARBITER_HPP

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace lapses
{

/** Rotating-priority (round-robin) arbiter over a fixed requester set. */
class RoundRobinArbiter
{
  public:
    /** @param num_requesters size of the requester id space */
    explicit RoundRobinArbiter(int num_requesters)
        : num_requesters_(num_requesters)
    {
        LAPSES_ASSERT(num_requesters > 0);
        if (num_requesters > 64)
            wide_.assign(static_cast<std::size_t>(num_requesters + 63) / 64,
                         0);
    }

    /** Raise requester i's request line for this arbitration round. */
    void
    request(int i)
    {
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if (wide_.empty())
            word_ |= bit;
        else
            wide_[static_cast<std::size_t>(i) >> 6] |= bit;
    }

    /** True if any request line is raised. */
    bool anyRequest() const;

    /**
     * Grant one requester, starting the scan at the rotating priority
     * pointer, then advance the pointer past the winner and clear all
     * request lines. Returns -1 when no line is raised.
     */
    int
    grant()
    {
        if (!wide_.empty())
            return grantWide();
        // The first raised line at or after the pointer, else the
        // first overall: the circular scan a chain of fixed arbiters
        // implements. The pointer stays below num_requesters_ <= 64.
        const std::uint64_t lines = std::exchange(word_, 0);
        const std::uint64_t ahead = lines & (~std::uint64_t{0} << next_);
        const std::uint64_t pick = ahead != 0 ? ahead : lines;
        if (pick == 0)
            return -1;
        return advancePast(std::countr_zero(pick));
    }

    /** Clear request lines without granting (end of cycle). */
    void clear();

  private:
    int
    advancePast(int winner)
    {
        next_ = winner + 1 == num_requesters_ ? 0 : winner + 1;
        return winner;
    }

    /** grant() over more than 64 requesters. */
    int grantWide();

    /** First raised wide line in [start, num_requesters_), or -1. */
    int scanFrom(int start) const;

    std::uint64_t word_ = 0;          //!< request lines, <= 64 requesters
    std::vector<std::uint64_t> wide_; //!< request words, > 64 requesters
    int num_requesters_;
    int next_ = 0;
};

} // namespace lapses

#endif // LAPSES_ROUTER_ARBITER_HPP
