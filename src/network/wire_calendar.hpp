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
 * The wire events one shard's nodes send, filed by due cycle and by
 * receiving shard. Every event is pushed with due = send cycle +
 * linkDelay + 1. Inside a barrier batch of at most linkDelay + 1
 * cycles a sender runs up to linkDelay cycles ahead of a receiver, so
 * the dues in flight lie in a window of 2 * (linkDelay + 1) cycles:
 * that many buckets indexed by due % width hold one due each, and a
 * sender never writes a bucket a receiver has yet to drain. A cursor
 * that moves with the owning shard's clock names the bucket due now
 * without a division; every calendar has the same width, so calendars
 * at equal cycles have equal cursors. A bucket keeps one list per
 * receiving shard, each in emission order.
 */
class WireCalendar
{
  public:
    explicit WireCalendar(Cycle link_delay = 0, std::size_t receivers = 1)
        : half_(static_cast<std::size_t>(link_delay) + 1),
          receivers_(receivers), dues_(2 * half_, 0),
          lists_(2 * half_ * receivers)
    {
    }

    /** Point the cursor at cycle `now` (after an idle fast-forward). */
    void
    seek(Cycle now)
    {
        slot_ = static_cast<std::size_t>(now % dues_.size());
    }

    /** Move the cursor on by one cycle. */
    void
    advance()
    {
        if (++slot_ == dues_.size())
            slot_ = 0;
    }

    /** The bucket due at the cursor's cycle. */
    std::size_t slot() const { return slot_; }

    /** Append an event sent in the cursor's cycle to receiving shard
     *  `to`'s list; `due` is that cycle + linkDelay + 1, whose bucket
     *  sits half the ring ahead of the cursor. */
    void
    push(const WireEvent& ev, Cycle due, std::size_t to)
    {
        const std::size_t slot =
            slot_ < half_ ? slot_ + half_ : slot_ - half_;
        dues_[slot] = due;
        lists_[slot * receivers_ + to].push_back(ev);
    }

    /** Hand every event of bucket `slot` addressed to shard `to`, due
     *  `at`, to fn in emission order, then clear the list. */
    template <typename Fn>
    void
    drain(std::size_t slot, std::size_t to, Cycle at, Fn&& fn)
    {
        std::vector<WireEvent>& list = lists_[slot * receivers_ + to];
        if (list.empty())
            return;
        LAPSES_ASSERT(dues_[slot] == at);
        for (const WireEvent& ev : list)
            fn(ev);
        list.clear();
    }

    /** Earliest due with an event pending; kNeverCycle when none. */
    Cycle
    earliestDue() const
    {
        Cycle next = kNeverCycle;
        for (std::size_t i = 0; i < lists_.size(); ++i) {
            if (!lists_[i].empty())
                next = std::min(next, dues_[i / receivers_]);
        }
        return next;
    }

    /** Call fn on every pending event. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const std::vector<WireEvent>& list : lists_) {
            for (const WireEvent& ev : list)
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
        for (std::vector<WireEvent>& list : lists_)
            removed += std::erase_if(list, pred);
        return removed;
    }

  private:
    std::size_t half_;      //!< linkDelay + 1: the push offset
    std::size_t receivers_; //!< lists per bucket
    std::vector<Cycle> dues_;
    /** Bucket `slot`'s list for receiving shard `to` is
     *  lists_[slot * receivers_ + to]. */
    std::vector<std::vector<WireEvent>> lists_;
    std::size_t slot_ = 0; //!< bucket of the owner's current cycle
};

} // namespace lapses

#endif // LAPSES_NETWORK_WIRE_CALENDAR_HPP
