/**
 * @file
 * The wire-event calendar: every flit and credit in flight on a link,
 * bucketed by the cycle it arrives (DESIGN.md "Wire-event calendar").
 */

#ifndef LAPSES_NETWORK_WIRE_CALENDAR_HPP
#define LAPSES_NETWORK_WIRE_CALENDAR_HPP

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"

namespace lapses
{

/** The kind of wire an event travels on, seen from its sender. */
enum class WireKind : std::uint8_t
{
    /** Router output (node, port) to the peer's input; port 0 ejects
     *  into the node's own NIC. */
    Flit,
    /** Credit from router input (node, port) back upstream; port 0
     *  returns it to the node's own NIC. */
    Credit,
    /** The node's NIC into its router's local port. */
    Inject,
};

/** One event on a wire: its sending wire (node, port, kind), the VC
 *  and, except on a credit wire, the flit. */
struct WireEvent
{
    Flit flit;
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;
    VcId vc = kInvalidVc;
    WireKind kind = WireKind::Flit;
};

/**
 * The wire events one shard's nodes send. Every event is pushed with
 * due = send cycle + linkDelay + 1, so the dues in flight lie in
 * (now, now + linkDelay + 1]: linkDelay + 2 buckets indexed by
 * due % width hold one due each, and a cursor that moves with the
 * sender's clock names the bucket due now without a division. A
 * bucket keeps intra-shard and boundary-crossing events on separate
 * lists, each in emission order.
 */
class WireCalendar
{
  public:
    explicit WireCalendar(Cycle link_delay = 0)
        : buckets_(static_cast<std::size_t>(link_delay) + 2)
    {
    }

    /** Point the cursor at cycle `now` (after an idle fast-forward). */
    void
    seek(Cycle now)
    {
        slot_ = static_cast<std::size_t>(now % buckets_.size());
    }

    /** Move the cursor on by one cycle. */
    void
    advance()
    {
        if (++slot_ == buckets_.size())
            slot_ = 0;
    }

    /** Append an event sent in the cursor's cycle; `due` is that
     *  cycle + linkDelay + 1, whose bucket sits just behind the
     *  cursor. */
    void
    push(const WireEvent& ev, Cycle due, bool boundary)
    {
        Bucket& bucket =
            buckets_[slot_ == 0 ? buckets_.size() - 1 : slot_ - 1];
        bucket.due = due;
        (boundary ? bucket.boundary : bucket.intra).push_back(ev);
    }

    /** Hand every event of one list of the cursor's bucket, due `at`,
     *  to fn in emission order, then clear the list. fn may push:
     *  pushes land in another bucket. */
    template <typename Fn>
    void
    drain(Cycle at, bool boundary, Fn&& fn)
    {
        Bucket& bucket = buckets_[slot_];
        std::vector<WireEvent>& list =
            boundary ? bucket.boundary : bucket.intra;
        if (list.empty())
            return;
        LAPSES_ASSERT(bucket.due == at);
        for (const WireEvent& ev : list)
            fn(ev);
        list.clear();
    }

    /** Earliest due at or after `from` with an event pending (boundary
     *  events only when `boundary_only`); kNeverCycle when none. */
    Cycle
    earliestDue(Cycle from, bool boundary_only) const
    {
        Cycle next = kNeverCycle;
        for (const Bucket& bucket : buckets_) {
            const bool pending = !bucket.boundary.empty() ||
                                 (!boundary_only && !bucket.intra.empty());
            if (pending && bucket.due >= from)
                next = std::min(next, bucket.due);
        }
        return next;
    }

    /** Call fn on every pending event. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Bucket& bucket : buckets_) {
            for (const WireEvent& ev : bucket.intra)
                fn(ev);
            for (const WireEvent& ev : bucket.boundary)
                fn(ev);
        }
    }

    /** Remove every pending event pred accepts (pred sees each event
     *  once and may act on the ones it takes); the rest keep their
     *  order. Returns how many were removed. */
    template <typename Pred>
    std::size_t
    removeIf(Pred&& pred)
    {
        std::size_t removed = 0;
        for (Bucket& bucket : buckets_) {
            removed += std::erase_if(bucket.intra, pred);
            removed += std::erase_if(bucket.boundary, pred);
        }
        return removed;
    }

  private:
    struct Bucket
    {
        Cycle due = 0;
        std::vector<WireEvent> intra;
        std::vector<WireEvent> boundary;
    };

    std::vector<Bucket> buckets_;
    std::size_t slot_ = 0; //!< bucket of the sender's current cycle
};

} // namespace lapses

#endif // LAPSES_NETWORK_WIRE_CALENDAR_HPP
