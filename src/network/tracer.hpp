/**
 * @file
 * Flit-event tracer: a bounded ring of network events (injection,
 * per-hop arrival, ejection) for debugging and for timing analysis in
 * tests, plus an optional span exporter that assembles per-message
 * lifecycle records (inject -> per-hop -> eject, with a queueing vs.
 * transfer breakdown) and streams them as JSON lines. Attach with
 * Network::setTracer; tracing is off (and free) by default.
 */

#ifndef LAPSES_NETWORK_TRACER_HPP
#define LAPSES_NETWORK_TRACER_HPP

#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "router/flit.hpp"
#include "router/message_pool.hpp"

namespace lapses
{

/** One observed flit event. */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        Inject,    //!< flit entered its source router from the NIC
        HopArrive, //!< flit delivered to a router input port
        Eject,     //!< flit delivered to the destination NIC
    };

    Cycle cycle = 0;
    Kind kind = Kind::Inject;
    NodeId node = kInvalidNode; //!< router/NIC observing the event
    PortId port = kInvalidPort; //!< input port (HopArrive only)
    MessageId msg = 0;
    std::uint16_t seq = 0;
    FlitType type = FlitType::Head;

    /** Closed-loop role of the message (Data for open-loop traffic)
     *  and the transmission attempt it carries — span export tags
     *  retransmissions with these. */
    MsgRole role = MsgRole::Data;
    std::uint16_t attempt = 0;
};

/** Bounded event recorder (oldest events are dropped when full). */
class FlitTracer
{
  public:
    /** @param capacity maximum retained events (> 0) */
    explicit FlitTracer(std::size_t capacity = 65536);

    /** Record an event (called by the Network). */
    void record(const TraceEvent& ev);

    /** Retained events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Retained events of one message, oldest first. */
    std::vector<TraceEvent> eventsFor(MessageId msg) const;

    /** Number of retained events. */
    std::size_t size() const { return size_; }

    /** Total events ever recorded (including dropped ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Drop everything. */
    void clear();

    /** Human-readable dump, one event per line. */
    void dump(std::ostream& os) const;

    // --- Span export (message lifecycle tracing) ----------------------

    /**
     * Stream one JSON line per completed message to `os`: source,
     * destination, inject/eject cycles, the per-hop arrival chain of
     * the header flit, and the latency decomposed into the
     * contention-free transfer time and the queueing remainder.
     *
     * @param sample_every export only messages with id % sample_every
     *        == 0 (>= 1; 1 = every message), bounding output volume on
     *        saturation runs
     * @param min_hop_cycles contention-free per-hop cost used for the
     *        transfer/queueing split (contentionFreeHopCycles(cfg))
     *
     * Span assembly observes the event stream only — it reads no
     * network state, consumes no RNG, and messages still in flight
     * when the run ends are simply never emitted. `os` must outlive
     * the tracer.
     */
    void enableSpanExport(std::ostream& os,
                          std::uint64_t sample_every,
                          Cycle min_hop_cycles);

    /** Completed spans written so far. */
    std::uint64_t spansExported() const { return spans_exported_; }

  private:
    /** One header hop-arrival within a pending span. */
    struct SpanHop
    {
        NodeId node;
        PortId port;
        Cycle cycle;
    };

    /** A message's partially assembled lifecycle. */
    struct PendingSpan
    {
        NodeId src = kInvalidNode;
        Cycle inject = 0;
        MsgRole role = MsgRole::Data;
        std::uint16_t attempt = 0;
        std::vector<SpanHop> hops;
    };

    /** Off the ring's hot path: fold `ev` into the pending span map
     *  and emit the finished record on the tail's ejection. */
    void recordSpan(const TraceEvent& ev);

    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; //!< index of the oldest event
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;

    std::ostream* span_os_ = nullptr;
    std::uint64_t span_sample_every_ = 1;
    Cycle span_min_hop_cycles_ = 0;
    std::uint64_t spans_exported_ = 0;
    std::unordered_map<MessageId, PendingSpan> pending_spans_;
};

/** Event-kind name for dumps ("inject", "hop", "eject"). */
const char* traceKindName(TraceEvent::Kind kind);

} // namespace lapses

#endif // LAPSES_NETWORK_TRACER_HPP
