#include "network/tracer.hpp"

#include <ostream>

#include "common/assert.hpp"
#include "topology/mesh.hpp"

namespace lapses
{

FlitTracer::FlitTracer(std::size_t capacity) : ring_(capacity)
{
    LAPSES_ASSERT(capacity > 0);
}

void
FlitTracer::record(const TraceEvent& ev)
{
    // Allocation-free and division-free: head_ < capacity and
    // size_ <= capacity always hold, so one conditional subtraction
    // replaces the modulo on both branches.
    ++recorded_;
    if (size_ < ring_.size()) {
        std::size_t slot = head_ + size_;
        if (slot >= ring_.size())
            slot -= ring_.size();
        ring_[slot] = ev;
        ++size_;
    } else {
        ring_[head_] = ev;
        if (++head_ == ring_.size())
            head_ = 0;
    }
    if (span_os_ != nullptr)
        recordSpan(ev);
}

void
FlitTracer::enableSpanExport(std::ostream& os,
                             std::uint64_t sample_every,
                             Cycle min_hop_cycles)
{
    LAPSES_ASSERT(sample_every >= 1);
    span_os_ = &os;
    span_sample_every_ = sample_every;
    span_min_hop_cycles_ = min_hop_cycles;
    pending_spans_.clear();
}

void
FlitTracer::recordSpan(const TraceEvent& ev)
{
    if (ev.msg % span_sample_every_ != 0)
        return;
    // The header flit defines the lifecycle chain (inject and one
    // arrival per hop); the tail's ejection closes the span — by then
    // every flit of the message has left the network.
    if (ev.seq == 0 && ev.kind == TraceEvent::Kind::Inject) {
        PendingSpan& span = pending_spans_[ev.msg];
        span.src = ev.node;
        span.inject = ev.cycle;
        span.role = ev.role;
        span.attempt = ev.attempt;
        span.hops.clear();
        return;
    }
    if (ev.seq == 0 && ev.kind == TraceEvent::Kind::HopArrive) {
        const auto it = pending_spans_.find(ev.msg);
        if (it != pending_spans_.end())
            it->second.hops.push_back({ev.node, ev.port, ev.cycle});
        return;
    }
    if (ev.kind != TraceEvent::Kind::Eject || !isTail(ev.type))
        return;
    const auto it = pending_spans_.find(ev.msg);
    if (it == pending_spans_.end())
        return; // injection predates span export; skip the fragment
    const PendingSpan& span = it->second;

    // Chain: inject at the source router, one hop arrival per further
    // router, eject at the destination NIC — hops + 1 link segments.
    // Contention-free, the head needs min_hop_cycles per segment and
    // the tail trails it by its flit index (1 flit / cycle / link), so
    // anything beyond that is queueing.
    const Cycle network = ev.cycle - span.inject;
    const Cycle transfer =
        (static_cast<Cycle>(span.hops.size()) + 1) *
            span_min_hop_cycles_ +
        static_cast<Cycle>(ev.seq);
    const auto queueing =
        static_cast<std::int64_t>(network) -
        static_cast<std::int64_t>(transfer);

    std::ostream& os = *span_os_;
    os << "{\"msg\":" << ev.msg << ",\"src\":" << span.src
       << ",\"dst\":" << ev.node << ",\"flits\":" << ev.seq + 1
       << ",\"inject_cycle\":" << span.inject
       << ",\"eject_cycle\":" << ev.cycle << ",\"hops\":[";
    for (std::size_t i = 0; i < span.hops.size(); ++i) {
        if (i)
            os << ',';
        os << "{\"node\":" << span.hops[i].node
           << ",\"port\":" << static_cast<int>(span.hops[i].port)
           << ",\"cycle\":" << span.hops[i].cycle << '}';
    }
    os << "],\"network_cycles\":" << network
       << ",\"transfer_cycles\":" << transfer
       << ",\"queueing_cycles\":" << queueing;
    // Closed-loop spans carry their workload role; attempt > 0 tags a
    // retransmission, so a grep for "attempt":[1-9] finds every retry
    // the reliability layer put on the wire.
    if (span.role != MsgRole::Data) {
        os << ",\"role\":\"" << msgRoleName(span.role)
           << "\",\"attempt\":" << span.attempt;
    }
    os << "}\n";
    ++spans_exported_;
    pending_spans_.erase(it);
}

std::vector<TraceEvent>
FlitTracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::vector<TraceEvent>
FlitTracer::eventsFor(MessageId msg) const
{
    std::vector<TraceEvent> out;
    for (std::size_t i = 0; i < size_; ++i) {
        const TraceEvent& ev = ring_[(head_ + i) % ring_.size()];
        if (ev.msg == msg)
            out.push_back(ev);
    }
    return out;
}

void
FlitTracer::clear()
{
    head_ = 0;
    size_ = 0;
}

void
FlitTracer::dump(std::ostream& os) const
{
    for (const TraceEvent& ev : events()) {
        os << ev.cycle << ' ' << traceKindName(ev.kind) << " node "
           << ev.node;
        if (ev.kind == TraceEvent::Kind::HopArrive)
            os << " port " << MeshShape::portName(ev.port);
        os << " msg " << ev.msg << " seq " << ev.seq << '\n';
    }
}

const char*
traceKindName(TraceEvent::Kind kind)
{
    switch (kind) {
      case TraceEvent::Kind::Inject:
        return "inject";
      case TraceEvent::Kind::HopArrive:
        return "hop";
      case TraceEvent::Kind::Eject:
        return "eject";
    }
    return "?";
}

} // namespace lapses
