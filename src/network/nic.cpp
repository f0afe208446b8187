#include "network/nic.hpp"

#include <algorithm>

namespace lapses
{

Nic::Nic(NodeId node, const Params& params, const RoutingTable& table,
         const TrafficPattern& pattern, Rng rng, MessagePool& pool)
    : node_(node), params_(params), table_(table), pattern_(pattern),
      rng_(rng), pool_(pool),
      process_(params.injection, params.msgsPerCycle,
               rng.split(0x1111), params.burst),
      active_(static_cast<std::size_t>(params.numVcs)),
      credits_(static_cast<std::size_t>(params.numVcs),
               params.routerBufDepth),
      next_msg_id_(static_cast<MessageId>(node) << 40)
{
    if (params.msgLen < 1)
        throw ConfigError("message length must be at least 1 flit");
    if (params.workload != nullptr &&
        params.workload->kind == WorkloadKind::RequestReply &&
        params.endpointIndex != kInvalidNode) {
        if (params.endpointIndex <
            static_cast<NodeId>(params.workload->servers))
            server_ =
                std::make_unique<ServerEngine>(node, *params.workload);
        else
            client_ =
                std::make_unique<ClientEngine>(node, *params.workload);
    }
}

std::size_t
Nic::backlog() const
{
    std::size_t n = queue_.size();
    for (const auto& a : active_)
        n += a.active ? 1 : 0;
    return n;
}

bool
Nic::cancelInjection(MsgRef msg)
{
    for (auto& a : active_) {
        if (a.active && a.msg == msg) {
            a.active = false;
            a.msg = kInvalidMsgRef;
            a.nextSeq = 0;
            return true;
        }
    }
    return false;
}

void
Nic::requeueFront(NodeId dest, Cycle createdAt, bool measured,
                  MsgRole role, std::uint32_t reqSeq,
                  std::uint16_t attempt)
{
    queue_.push_front({dest, createdAt, measured, role, reqSeq,
                       attempt});
}

void
Nic::acceptCredit(VcId vc)
{
    ++credits_[static_cast<std::size_t>(vc)];
    LAPSES_ASSERT(credits_[static_cast<std::size_t>(vc)] <=
                  params_.routerBufDepth);
}

void
Nic::acceptFlit(const Flit& flit, Cycle now, DeliverySink& sink)
{
    LAPSES_ASSERT_MSG(pool_[flit.msg].dest == node_,
                      "flit ejected at the wrong node");
    if (!isTail(flit.type))
        return;
    // Closed-loop dispatch happens before the generic delivery
    // callback so the engines observe the message while its
    // descriptor is still live. Ejection is always intra-shard, so
    // these engine mutations stay on the owning shard's thread.
    const MessageDescriptor& desc = pool_[flit.msg];
    if (desc.role == MsgRole::Request && server_ != nullptr) {
        server_->onRequest(desc.src, desc.reqSeq, desc.attempt,
                           desc.measured, now);
    } else if (desc.role == MsgRole::Reply && client_ != nullptr) {
        const ReplyOutcome outcome = client_->onReply(desc.reqSeq, now);
        if (outcome.completed)
            sink.requestCompleted(node_, outcome.issuedAt, now,
                                  outcome.measured);
    }
    sink.messageDelivered(flit.msg, now);
}

StepActivity
Nic::step(Cycle now, Env& env)
{
    StepActivity report;
    // 1. Open-loop arrivals join the (unbounded) source queue. The
    //    process clock advances even while injection is disabled so a
    //    re-enabled NIC does not release a burst of stale arrivals.
    const int arrivals = process_.arrivals(now);
    for (int i = 0; i < (injection_enabled_ ? arrivals : 0); ++i) {
        const NodeId dest = pattern_.pick(node_, rng_);
        if (dest == kInvalidNode)
            continue; // node is silent under this pattern
        queue_.push_back({dest, now, measuring_});
        ++created_total_;
        if (measuring_)
            ++created_measured_;
    }

    // 1b. Closed-loop engines: fire due timers, release ready
    //     replies, and admit new requests into the source queue. The
    //     emission order (client retransmits before new issues;
    //     server replies in (readyAt, client, reqSeq) order) is fixed
    //     by the engines, never by kernel interleaving.
    if (client_ != nullptr || server_ != nullptr) {
        emit_scratch_.clear();
        MsgRole role = MsgRole::Request;
        if (client_ != nullptr) {
            client_->step(now, injection_enabled_, measuring_,
                          emit_scratch_);
        } else {
            role = MsgRole::Reply;
            server_->step(now, emit_scratch_);
        }
        for (const WorkloadEmit& e : emit_scratch_) {
            queue_.push_back({e.dest, now, e.measured, role, e.reqSeq,
                              e.attempt});
            ++created_total_;
            if (e.measured)
                ++created_measured_;
        }
    }

    // 2. Allocate idle VCs to waiting messages (conservative
    //    reallocation: the downstream buffer must have drained). The
    //    message's shared header state moves into a pool descriptor
    //    here; its flits will carry only the handle.
    for (VcId v = 0; v < params_.numVcs && !queue_.empty(); ++v) {
        ActiveInjection& a = active_[static_cast<std::size_t>(v)];
        if (a.active ||
            credits_[static_cast<std::size_t>(v)] !=
                params_.routerBufDepth) {
            continue;
        }
        const QueuedMessage m = queue_.front();
        queue_.pop_front();
        a.active = true;
        a.nextSeq = 0;
        a.msg = pool_.acquire(pool_bank_);
        MessageDescriptor& desc = pool_[a.msg];
        desc.id = next_msg_id_++;
        desc.src = node_;
        desc.dest = m.dest;
        desc.msgLen = static_cast<std::uint16_t>(params_.msgLen);
        desc.createdAt = m.createdAt;
        desc.measured = m.measured;
        desc.role = m.role;
        desc.reqSeq = m.reqSeq;
        desc.attempt = m.attempt;
    }

    // 3. The local physical link carries one flit per cycle; round-robin
    //    over the active VCs with credit.
    const int nv = params_.numVcs;
    for (int k = 0; k < nv; ++k) {
        const VcId v = static_cast<VcId>((mux_next_ + k) % nv);
        ActiveInjection& a = active_[static_cast<std::size_t>(v)];
        if (!a.active || credits_[static_cast<std::size_t>(v)] <= 0)
            continue;

        const int len = params_.msgLen;
        if (a.nextSeq == 0) {
            // The header actually enters the network.
            MessageDescriptor& desc = pool_[a.msg];
            desc.injectedAt = now;
            if (params_.lookahead) {
                // First-hop lookup performed by the NIC so the header
                // reaches the source router carrying its candidates.
                desc.laRoute = table_.lookup(node_, desc.dest);
                desc.laValid = true;
            }
        }

        Flit flit;
        if (len == 1) {
            flit.type = FlitType::HeadTail;
        } else if (a.nextSeq == 0) {
            flit.type = FlitType::Head;
        } else if (a.nextSeq == len - 1) {
            flit.type = FlitType::Tail;
        } else {
            flit.type = FlitType::Body;
        }
        flit.msg = a.msg;
        flit.seq = a.nextSeq;

        --credits_[static_cast<std::size_t>(v)];
        ++a.nextSeq;
        ++injected_flits_;
        if (a.nextSeq == len)
            a.active = false;
        env.injectFlit(v, flit);
        mux_next_ = (static_cast<int>(v) + 1) % nv;
        report.progressed = 1;
        break;
    }

    report.pendingWork = backlog() > 0;
    report.nextWake = std::min(process_.nextArrivalCycle(now + 1),
                               engineWake(now + 1));
    return report;
}

} // namespace lapses
