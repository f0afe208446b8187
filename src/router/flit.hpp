/**
 * @file
 * Flits — the flow-control units of wormhole switching.
 *
 * A message is a header flit, zero or more body flits and a tail flit
 * (single-flit messages use HeadTail). Per-message header state (source,
 * destination, timestamps, the look-ahead route of Fig. 3/4) lives in a
 * MessageDescriptor owned by the network's MessagePool; the Flit itself
 * is a compact wire token — what actually moves through input buffers,
 * output FIFOs and wire queues millions of times per run — carrying only
 * its position in the message, the descriptor handle, and the local
 * pipeline timestamp.
 */

#ifndef LAPSES_ROUTER_FLIT_HPP
#define LAPSES_ROUTER_FLIT_HPP

#include <limits>

#include "common/types.hpp"

namespace lapses
{

/** Position of a flit within its message. */
enum class FlitType : std::uint8_t
{
    Head,
    Body,
    Tail,
    HeadTail, //!< single-flit message
};

/** True for Head and HeadTail flits. */
inline bool
isHead(FlitType t)
{
    return t == FlitType::Head || t == FlitType::HeadTail;
}

/** True for Tail and HeadTail flits. */
inline bool
isTail(FlitType t)
{
    return t == FlitType::Tail || t == FlitType::HeadTail;
}

/** Name of a flit type for diagnostics. */
const char* flitTypeName(FlitType t);

/**
 * One flow-control unit travelling through the network: a 16-byte wire
 * token. Everything shared by the whole message is reached through
 * `msg` (see MessagePool); replicating it per flit would copy ~5x the
 * bytes through every FIFO the flit crosses.
 */
struct Flit
{
    /** Earliest cycle the flit may take its next pipeline action;
     *  maintained locally by each router/NIC stage. */
    Cycle readyAt = 0;

    /** Handle of the message's descriptor in the network's pool. */
    MsgRef msg = kInvalidMsgRef;

    /** Flit index within the message, 0 = header. */
    std::uint16_t seq = 0;

    FlitType type = FlitType::Head;
};

/** Longest message in flits. A NIC counts the flits it has sent of a
 *  message in a counter of seq's type, up to the length itself. */
inline constexpr int kMaxMsgLen =
    std::numeric_limits<decltype(Flit::seq)>::max();

} // namespace lapses

#endif // LAPSES_ROUTER_FLIT_HPP
