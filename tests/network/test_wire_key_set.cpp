/**
 * @file
 * Unit tests for WireKeySet, the ordered key set behind each
 * wire-event calendar bucket. Keys straddle both the 64-bit word and
 * the 4096-key summary-word boundaries, where an indexing slip would
 * drop, repeat or reorder deliveries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "network/network.hpp"

namespace lapses
{
namespace
{

std::vector<std::uint32_t>
drainAll(WireKeySet& set)
{
    std::vector<std::uint32_t> out;
    set.drain([&](std::uint32_t key) { out.push_back(key); });
    return out;
}

TEST(WireKeySet, DrainsEachKeyOnceInAscendingOrder)
{
    const std::uint32_t size = 3 * 4096 + 17;
    const std::uint32_t last = size - 1;
    WireKeySet set(size);
    EXPECT_TRUE(set.empty());
    // Out of order, with duplicates, across word and summary edges.
    const std::vector<std::uint32_t> keys = {
        last, 4096, 63, 8192, 0, 4095, 64, last, 63, 4096, 0};
    for (const std::uint32_t key : keys) {
        set.insert(key);
        EXPECT_FALSE(set.empty()) << key;
    }
    const std::vector<std::uint32_t> want = {0,    63,   64,  4095,
                                             4096, 8192, last};
    EXPECT_EQ(drainAll(set), want);
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(drainAll(set).empty());

    // A drained set is reusable: nothing of the first round lingers.
    set.insert(4095);
    set.insert(65);
    EXPECT_EQ(drainAll(set), (std::vector<std::uint32_t>{65, 4095}));
    EXPECT_TRUE(set.empty());
}

TEST(WireKeySet, MatchesAnOrderedSetOverRandomRounds)
{
    const std::uint32_t size = 5 * 4096 + 300;
    WireKeySet set(size);
    Rng rng(17);
    for (int round = 0; round < 50; ++round) {
        std::set<std::uint32_t> want;
        const std::uint64_t count = rng.nextBounded(200);
        for (std::uint64_t i = 0; i < count; ++i) {
            const auto key =
                static_cast<std::uint32_t>(rng.nextBounded(size));
            set.insert(key);
            want.insert(key);
        }
        EXPECT_EQ(set.empty(), want.empty()) << round;
        EXPECT_EQ(drainAll(set),
                  std::vector<std::uint32_t>(want.begin(), want.end()))
            << round;
        EXPECT_TRUE(set.empty()) << round;
    }
}

} // namespace
} // namespace lapses
