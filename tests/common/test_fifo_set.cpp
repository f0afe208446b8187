/**
 * @file
 * Unit tests for the FIFO set: fixed-capacity FIFOs sharing one slot
 * array.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "common/fifo_set.hpp"

namespace lapses
{
namespace
{

TEST(FifoSet, StartsEmpty)
{
    FifoSet<int> set(3, 4);
    EXPECT_EQ(set.count(), 3u);
    EXPECT_EQ(set.capacity(), 4u);
    for (std::size_t f = 0; f < set.count(); ++f) {
        EXPECT_TRUE(set.empty(f));
        EXPECT_FALSE(set.full(f));
        EXPECT_EQ(set.size(f), 0u);
    }
}

TEST(FifoSet, OrderAndWrapAtSeveralCapacities)
{
    // Each FIFO runs many laps around its slots at every fill level,
    // checked against a reference queue.
    for (const std::size_t cap : {std::size_t{1}, std::size_t{3},
                                  std::size_t{20}}) {
        FifoSet<int> set(2, cap);
        std::deque<int> ref;
        int next = 0;
        for (int round = 0; round < 50; ++round) {
            const std::size_t fill = 1 + static_cast<std::size_t>(round) %
                                             cap;
            while (ref.size() < fill) {
                set.push(1, next);
                ref.push_back(next++);
            }
            EXPECT_EQ(set.full(1), ref.size() == cap) << cap;
            for (std::size_t i = 0; i < ref.size(); ++i)
                EXPECT_EQ(set.at(1, i), ref[i]) << cap;
            const std::size_t drain = (ref.size() + 1) / 2;
            for (std::size_t i = 0; i < drain; ++i) {
                EXPECT_EQ(set.front(1), ref.front()) << cap;
                EXPECT_EQ(set.pop(1), ref.front()) << cap;
                ref.pop_front();
            }
            EXPECT_EQ(set.size(1), ref.size()) << cap;
        }
        EXPECT_TRUE(set.empty(0)) << cap;
    }
}

TEST(FifoSet, NeighboursNeverShareSlots)
{
    // Fill, wrap and drain every FIFO of one slot array with values
    // tagged by FIFO; each FIFO must only ever read its own.
    const std::size_t count = 5;
    const std::size_t cap = 3;
    FifoSet<std::pair<std::size_t, int>> set(count, cap);
    for (int round = 0; round < 7; ++round) {
        for (std::size_t f = 0; f < count; ++f) {
            while (!set.full(f))
                set.push(f, {f, round});
        }
        for (std::size_t f = 0; f < count; ++f) {
            EXPECT_EQ(set.size(f), cap);
            for (std::size_t i = 0; i < cap; ++i)
                EXPECT_EQ(set.at(f, i).first, f);
        }
        // Uneven drains leave the heads at different offsets.
        for (std::size_t f = 0; f < count; ++f) {
            for (std::size_t i = 0; i <= (f + round) % cap; ++i)
                EXPECT_EQ(set.pop(f).first, f);
        }
    }
}

TEST(FifoSet, FullTracksSize)
{
    FifoSet<int> set(1, 2);
    set.push(0, 1);
    EXPECT_FALSE(set.full(0));
    set.push(0, 2);
    EXPECT_TRUE(set.full(0));
    set.pop(0);
    EXPECT_FALSE(set.full(0));
}

TEST(FifoSet, FrontPeeksWithoutRemoving)
{
    FifoSet<int> set(2, 4);
    set.push(1, 9);
    set.push(1, 8);
    EXPECT_EQ(set.front(1), 9);
    EXPECT_EQ(set.size(1), 2u);
    EXPECT_EQ(set.pop(1), 9);
}

TEST(FifoSet, RemoveIfAcrossTheWrapPoint)
{
    FifoSet<int> set(2, 4);
    set.push(0, 99); // a neighbour the removal must not touch
    // Head at slot 2, so the five-step history below wraps.
    set.push(1, 0);
    set.push(1, 0);
    set.pop(1);
    set.pop(1);
    for (int v : {1, 2, 3, 4})
        set.push(1, v);
    EXPECT_EQ(set.removeIf(1, [](int v) { return v % 2 == 1; }), 2u);
    ASSERT_EQ(set.size(1), 2u);
    EXPECT_EQ(set.at(1, 0), 2);
    EXPECT_EQ(set.at(1, 1), 4);
    // The survivors keep working as a FIFO across the wrap.
    set.push(1, 5);
    set.push(1, 6);
    EXPECT_TRUE(set.full(1));
    for (int v : {2, 4, 5, 6})
        EXPECT_EQ(set.pop(1), v);
    EXPECT_EQ(set.removeIf(1, [](int) { return true; }), 0u);
    EXPECT_EQ(set.size(0), 1u);
    EXPECT_EQ(set.front(0), 99);
}

TEST(FifoSet, ClearEmptiesOneFifo)
{
    FifoSet<int> set(2, 4);
    set.push(0, 1);
    set.push(0, 2);
    set.push(1, 3);
    set.clear(0);
    EXPECT_TRUE(set.empty(0));
    EXPECT_EQ(set.front(1), 3);
    set.push(0, 5);
    EXPECT_EQ(set.front(0), 5);
}

TEST(FifoSetDeath, OverflowAborts)
{
    FifoSet<int> set(2, 1);
    set.push(0, 1);
    EXPECT_DEATH(set.push(0, 2), "overflow");
}

TEST(FifoSetDeath, UnderflowAborts)
{
    FifoSet<int> set(2, 1);
    set.push(1, 1);
    EXPECT_DEATH(set.pop(0), "underflow");
}

TEST(FifoSetDeath, FrontOnEmptyAborts)
{
    FifoSet<int> set(2, 1);
    set.push(0, 1);
    EXPECT_DEATH(set.front(1), "empty");
}

} // namespace
} // namespace lapses
