/**
 * @file
 * Per-message header state and the free-listed, bankable pool that
 * owns it.
 *
 * Wormhole switching replicates nothing but the flit type/sequence on
 * the wire; everything a message's flits share — addressing, length,
 * timestamps, the look-ahead route the previous hop computed (Fig. 3/4
 * header formats) — lives in one MessageDescriptor per in-flight
 * message. Flits carry a MsgRef handle. The Network owns one
 * MessagePool; NICs acquire a descriptor when a message starts
 * streaming and the pool recycles it when the tail ejects at the
 * destination (by then every other flit of the message has already
 * drained from every FIFO it crossed, so no stale reference survives).
 *
 * Concurrency contract (parallel kernel, DESIGN.md "Parallel kernel"):
 * the pool is split into banks, one per shard, and a MsgRef encodes
 * (bank, slot). acquire(bank) is only ever called by the thread
 * stepping that bank's shard, and release() only in the sequential
 * merge and fault phases, which the cycle barrier separates from
 * stepping. While stepping, a descriptor is written only by its source
 * NIC and by the router holding its message's head, each on its own
 * shard's thread; wire delivery only reads. Storage is chunked with a
 * pre-sized chunk-pointer array so growing one bank never moves a
 * descriptor another thread may read, and the only cross-thread-
 * visible scalar (the bank's high-water size, read by bounds
 * assertions) is a relaxed atomic — every real happens-before edge
 * comes from the barrier.
 * MsgRef values depend on allocation order and therefore on the shard
 * count; nothing observable may be ordered by raw MsgRef — sort by
 * MessageDescriptor::id (deterministic per-NIC) instead.
 */

#ifndef LAPSES_ROUTER_MESSAGE_POOL_HPP
#define LAPSES_ROUTER_MESSAGE_POOL_HPP

#include <atomic>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "routing/route_candidates.hpp"

namespace lapses
{

/** What a message means to the workload layer riding on top of the
 *  network: plain open-loop data, a closed-loop request, or the reply
 *  that closes it (src/workload/). */
enum class MsgRole : std::uint8_t
{
    Data,
    Request,
    Reply,
};

/** Short identifier ("data", "request", "reply"). */
constexpr const char*
msgRoleName(MsgRole role)
{
    switch (role) {
    case MsgRole::Request:
        return "request";
    case MsgRole::Reply:
        return "reply";
    case MsgRole::Data:
        break;
    }
    return "data";
}

/** Header state shared by all flits of one in-flight message. */
struct MessageDescriptor
{
    /** Network-unique message id (tracing / diagnostics); assigned
     *  per source NIC as (node << 40) + sequence, so ids are
     *  deterministic regardless of pool bank layout. */
    MessageId id = 0;

    /** Cycle the message was created at the source NIC. */
    Cycle createdAt = 0;

    /** Cycle the header entered the network (left the source queue). */
    Cycle injectedAt = 0;

    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;

    /** Message length in flits. */
    std::uint16_t msgLen = 1;

    /** Routers traversed so far (incremented when the header is
     *  granted at each router; the tail reads the final count). */
    std::uint16_t hops = 0;

    /** True when the message was created inside the measurement
     *  window and contributes to statistics. */
    bool measured = false;

    /** Closed-loop role (Data for open-loop traffic). */
    MsgRole role = MsgRole::Data;

    /** Request sequence number within the client (role != Data);
     *  replies echo the request's. */
    std::uint32_t reqSeq = 0;

    /** Transmission attempt this message carries (0 = first send);
     *  replies echo the attempt they answer. */
    std::uint16_t attempt = 0;

    /** Look-ahead route: candidate ports at the router the header is
     *  travelling toward, written by the previous hop's concurrent
     *  lookup. Valid when laValid is set. */
    bool laValid = false;
    RouteCandidates laRoute;
};

/**
 * Free-listed store of in-flight message descriptors, split into
 * banks for the parallel kernel. Slots are recycled in LIFO order per
 * bank after tail delivery, so steady-state traffic reuses a hot
 * working set instead of growing; a bank only allocates when its
 * number of simultaneously in-flight messages reaches a new
 * high-water mark.
 */
class MessagePool
{
  public:
    /** Banks an encoded MsgRef can address (bank bits above slot). */
    static constexpr unsigned kMaxBanks = 64;

    MessagePool() { banks_.resize(1); }

    /**
     * Set the bank count (one per shard). Must run before the first
     * acquire — re-banking live descriptors would re-encode refs that
     * flits already carry.
     */
    void
    configureBanks(unsigned banks)
    {
        LAPSES_ASSERT(banks >= 1 && banks <= kMaxBanks);
        LAPSES_ASSERT_MSG(liveCount() == 0 && capacity() == 0,
                          "configureBanks after first acquire");
        banks_.clear();
        banks_.resize(banks);
    }

    unsigned banks() const
    {
        return static_cast<unsigned>(banks_.size());
    }

    /** Take a slot (reset to defaults) off `bank`'s free list, growing
     *  the bank if every slot is live. Only the thread stepping the
     *  bank's shard may call this. */
    MsgRef
    acquire(unsigned bank = 0)
    {
        LAPSES_ASSERT(bank < banks_.size());
        Bank& b = banks_[bank];
        std::uint32_t slot;
        if (b.free_slots.empty()) {
            slot = b.size.load(std::memory_order_relaxed);
            LAPSES_ASSERT_MSG(slot < kSlotMask,
                              "message pool bank overflow");
            if ((slot & (kChunkSize - 1)) == 0) {
                b.chunks[slot >> kChunkShift] =
                    std::make_unique<MessageDescriptor[]>(kChunkSize);
            }
            b.live.push_back(1);
            b.size.store(slot + 1, std::memory_order_relaxed);
        } else {
            slot = b.free_slots.back();
            b.free_slots.pop_back();
            b.live[slot] = 1;
        }
        b.chunks[slot >> kChunkShift][slot & (kChunkSize - 1)] =
            MessageDescriptor{};
        return (static_cast<MsgRef>(bank) << kBankShift) | slot;
    }

    /** Return a slot to its bank's free list (tail delivered). A
     *  duplicated release would alias one slot between two future
     *  messages and silently corrupt their header state — abort
     *  instead. Sequential phases only. */
    void
    release(MsgRef ref)
    {
        Bank& b = bankOf(ref);
        const std::uint32_t slot = ref & kSlotMask;
        LAPSES_ASSERT(slot < b.size.load(std::memory_order_relaxed));
        LAPSES_ASSERT_MSG(b.live[slot] == 1,
                          "double release of a message descriptor");
        b.live[slot] = 0;
        b.free_slots.push_back(slot);
    }

    MessageDescriptor&
    operator[](MsgRef ref)
    {
        Bank& b = bankOf(ref);
        const std::uint32_t slot = ref & kSlotMask;
        LAPSES_ASSERT(slot < b.size.load(std::memory_order_relaxed));
        return b.chunks[slot >> kChunkShift][slot & (kChunkSize - 1)];
    }

    const MessageDescriptor&
    operator[](MsgRef ref) const
    {
        const Bank& b = bankOf(ref);
        const std::uint32_t slot = ref & kSlotMask;
        LAPSES_ASSERT(slot < b.size.load(std::memory_order_relaxed));
        return b.chunks[slot >> kChunkShift][slot & (kChunkSize - 1)];
    }

    /** Descriptors currently acquired (in-flight messages). */
    std::size_t
    liveCount() const
    {
        std::size_t n = 0;
        for (const Bank& b : banks_)
            n += b.size.load(std::memory_order_relaxed) -
                 b.free_slots.size();
        return n;
    }

    /** Slots ever allocated: the in-flight high-water mark. */
    std::size_t
    capacity() const
    {
        std::size_t n = 0;
        for (const Bank& b : banks_)
            n += b.size.load(std::memory_order_relaxed);
        return n;
    }

  private:
    /** Slot bits of a MsgRef; bank bits live above them. 16M slots
     *  per bank bounds in-flight messages, not total traffic. */
    static constexpr std::uint32_t kBankShift = 24;
    static constexpr std::uint32_t kSlotMask =
        (1u << kBankShift) - 1u;
    static constexpr std::uint32_t kChunkShift = 10;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

    struct Bank
    {
        /** Pre-sized pointer array: growth fills a null entry in
         *  place, so no reallocation can move a chunk a concurrent
         *  reader (of an older, barrier-published slot) dereferences. */
        std::vector<std::unique_ptr<MessageDescriptor[]>> chunks =
            std::vector<std::unique_ptr<MessageDescriptor[]>>(
                std::size_t{1} << (kBankShift - kChunkShift));

        /** Slots ever allocated; relaxed because cross-thread reads
         *  only concern slots published by an earlier cycle barrier. */
        std::atomic<std::uint32_t> size{0};

        std::vector<std::uint32_t> free_slots;
        std::vector<std::uint8_t> live; //!< release() double-free guard

        Bank() = default;
        /** Vector-resize support; only ever runs on quiescent banks
         *  (configureBanks refuses once anything was acquired). */
        Bank(Bank&& other) noexcept
            : chunks(std::move(other.chunks)),
              size(other.size.load(std::memory_order_relaxed)),
              free_slots(std::move(other.free_slots)),
              live(std::move(other.live))
        {}
    };

    Bank&
    bankOf(MsgRef ref)
    {
        const std::uint32_t bank = ref >> kBankShift;
        LAPSES_ASSERT(bank < banks_.size());
        return banks_[bank];
    }

    const Bank&
    bankOf(MsgRef ref) const
    {
        const std::uint32_t bank = ref >> kBankShift;
        LAPSES_ASSERT(bank < banks_.size());
        return banks_[bank];
    }

    std::vector<Bank> banks_;
};

} // namespace lapses

#endif // LAPSES_ROUTER_MESSAGE_POOL_HPP
