/**
 * @file
 * Fixed-capacity FIFOs kept side by side in one slot array.
 *
 * A router holds many FIFOs of one capacity per direction: its input
 * VC buffers and its output FIFOs. A FifoSet stores all of them in one
 * contiguous slot array (FIFO f owns slots
 * [f * capacity, (f + 1) * capacity)) plus one {head, size} cursor per
 * FIFO. A push or pop is one cursor update and one slot access: no
 * allocation after construction, no per-FIFO heap block to chase, and
 * the head wraps by compare-and-subtract, so nothing divides.
 */

#ifndef LAPSES_COMMON_FIFO_SET_HPP
#define LAPSES_COMMON_FIFO_SET_HPP

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/assert.hpp"

namespace lapses
{

/** Owner of `count` FIFOs of one capacity in one slot array. */
template <typename T>
class FifoSet
{
  public:
    FifoSet() = default;

    FifoSet(std::size_t count, std::size_t capacity)
        : slots_(std::make_unique<T[]>(count * capacity)),
          cursors_(std::make_unique<Cursor[]>(count)),
          capacity_(static_cast<std::uint32_t>(capacity)), count_(count)
    {
        LAPSES_ASSERT(capacity > 0 && capacity <= UINT32_MAX);
    }

    /** Number of FIFOs in the set. */
    std::size_t count() const { return count_; }

    /** Slots per FIFO. */
    std::size_t capacity() const { return capacity_; }

    std::size_t size(std::size_t f) const { return cursors_[f].size; }
    bool empty(std::size_t f) const { return cursors_[f].size == 0; }
    bool full(std::size_t f) const { return cursors_[f].size == capacity_; }

    /** Append to FIFO f, which must not be full. */
    void
    push(std::size_t f, const T& value)
    {
        Cursor& c = cursors_[f];
        LAPSES_ASSERT_MSG(c.size < capacity_, "FIFO overflow");
        std::uint32_t tail = c.head + c.size;
        if (tail >= capacity_)
            tail -= capacity_;
        slots_[f * capacity_ + tail] = value;
        ++c.size;
    }

    /** Oldest element of FIFO f, which must not be empty. */
    const T&
    front(std::size_t f) const
    {
        const Cursor& c = cursors_[f];
        LAPSES_ASSERT_MSG(c.size != 0, "FIFO front on empty FIFO");
        return slots_[f * capacity_ + c.head];
    }

    /** Remove and return the oldest element of FIFO f. */
    T
    pop(std::size_t f)
    {
        Cursor& c = cursors_[f];
        LAPSES_ASSERT_MSG(c.size != 0, "FIFO underflow");
        T value = slots_[f * capacity_ + c.head];
        if (++c.head == capacity_)
            c.head = 0;
        --c.size;
        return value;
    }

    /** Element at position i (0 = front) of FIFO f. */
    const T&
    at(std::size_t f, std::size_t i) const
    {
        const Cursor& c = cursors_[f];
        LAPSES_ASSERT(i < c.size);
        return slots_[f * capacity_ + wrap(c.head + i)];
    }

    /** Drop FIFO f's contents. */
    void clear(std::size_t f) { cursors_[f] = Cursor{}; }

    /**
     * Remove every element of FIFO f matching `pred`, keeping the
     * survivors in FIFO order; returns the number removed. O(size):
     * reconfiguration-time cleanup only, never the per-cycle path.
     */
    template <typename Pred>
    std::size_t
    removeIf(std::size_t f, Pred&& pred)
    {
        Cursor& c = cursors_[f];
        T* fifo = slots_.get() + f * capacity_;
        const std::size_t old_size = c.size;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < old_size; ++i) {
            T& value = fifo[wrap(c.head + i)];
            if (pred(static_cast<const T&>(value)))
                continue;
            if (kept != i)
                fifo[wrap(c.head + kept)] = value;
            ++kept;
        }
        c.size = static_cast<std::uint32_t>(kept);
        if (kept == 0)
            c.head = 0;
        return old_size - kept;
    }

  private:
    struct Cursor
    {
        std::uint32_t head = 0;
        std::uint32_t size = 0;
    };

    /** Position p < 2 * capacity folded into [0, capacity). */
    std::size_t
    wrap(std::size_t p) const
    {
        return p >= capacity_ ? p - capacity_ : p;
    }

    std::unique_ptr<T[]> slots_;
    std::unique_ptr<Cursor[]> cursors_;
    std::uint32_t capacity_ = 0;
    std::size_t count_ = 0;
};

} // namespace lapses

#endif // LAPSES_COMMON_FIFO_SET_HPP
