/**
 * @file
 * Unit tests for the round-robin arbiters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "router/arbiter.hpp"

namespace lapses
{
namespace
{

TEST(Arbiter, NoRequestsNoGrant)
{
    RoundRobinArbiter arb(4);
    EXPECT_FALSE(arb.anyRequest());
    EXPECT_EQ(arb.grant(), -1);
}

TEST(Arbiter, SingleRequesterWins)
{
    RoundRobinArbiter arb(4);
    arb.request(2);
    EXPECT_TRUE(arb.anyRequest());
    EXPECT_EQ(arb.grant(), 2);
    // Lines cleared after the grant.
    EXPECT_FALSE(arb.anyRequest());
    EXPECT_EQ(arb.grant(), -1);
}

TEST(Arbiter, RotatesPriorityAfterWin)
{
    RoundRobinArbiter arb(3);
    arb.request(0);
    arb.request(1);
    arb.request(2);
    EXPECT_EQ(arb.grant(), 0);
    arb.request(0);
    arb.request(1);
    arb.request(2);
    EXPECT_EQ(arb.grant(), 1); // priority moved past last winner
    arb.request(0);
    arb.request(1);
    arb.request(2);
    EXPECT_EQ(arb.grant(), 2);
    arb.request(0);
    arb.request(1);
    arb.request(2);
    EXPECT_EQ(arb.grant(), 0);
}

TEST(Arbiter, FairUnderPersistentContention)
{
    RoundRobinArbiter arb(4);
    int wins[4] = {0, 0, 0, 0};
    for (int round = 0; round < 400; ++round) {
        for (int i = 0; i < 4; ++i)
            arb.request(i);
        ++wins[arb.grant()];
    }
    for (int w : wins)
        EXPECT_EQ(w, 100);
}

TEST(Arbiter, SkipsIdleRequesters)
{
    RoundRobinArbiter arb(4);
    arb.request(3);
    EXPECT_EQ(arb.grant(), 3);
    arb.request(1);
    EXPECT_EQ(arb.grant(), 1);
}

TEST(Arbiter, NoStarvationWithGreedyPeer)
{
    // Requester 0 requests every round; requester 1 must still win
    // within two rounds.
    RoundRobinArbiter arb(2);
    arb.request(0);
    EXPECT_EQ(arb.grant(), 0);
    arb.request(0);
    arb.request(1);
    EXPECT_EQ(arb.grant(), 1);
}

TEST(Arbiter, ClearDropsRequests)
{
    RoundRobinArbiter arb(2);
    arb.request(0);
    arb.clear();
    EXPECT_EQ(arb.grant(), -1);
}

/** The arbiter's contract spelled out as a plain circular scan: the
 *  first raised line at or after the pointer, wrapping around. */
int
referenceGrant(const std::vector<bool>& lines, int& next)
{
    const int n = static_cast<int>(lines.size());
    for (int k = 0; k < n; ++k) {
        const int i = (next + k) % n;
        if (lines[static_cast<std::size_t>(i)]) {
            next = (i + 1) % n;
            return i;
        }
    }
    return -1;
}

TEST(Arbiter, MatchesReferenceRoundRobin)
{
    // Sizes on both sides of the one-word limit (64) and of the second
    // word boundary; 68 is fattree8x2's crossbar (17 ports x 4 VCs).
    for (const int n : {1, 2, 5, 63, 64, 65, 68, 128, 130}) {
        RoundRobinArbiter arb(n);
        int next = 0;
        Rng rng(0xA4B17E5u + static_cast<std::uint64_t>(n));
        const auto round = [&](const std::vector<int>& raise) {
            std::vector<bool> lines(static_cast<std::size_t>(n), false);
            for (const int i : raise) {
                arb.request(i);
                lines[static_cast<std::size_t>(i)] = true;
            }
            EXPECT_EQ(arb.grant(), referenceGrant(lines, next))
                << n << " requesters";
            EXPECT_FALSE(arb.anyRequest()) << n << " requesters";
        };
        for (int r = 0; r < 3000; ++r) {
            // Densities from one line in ~n to every line, raised in
            // random order with repeats.
            const std::uint64_t density = 1 + rng.nextBounded(8);
            std::vector<int> raise;
            for (int k = 0; k < n; ++k) {
                if (rng.nextBounded(8) < density)
                    raise.push_back(static_cast<int>(
                        rng.nextBounded(static_cast<std::uint64_t>(n))));
            }
            round(raise);
        }
        // Park the pointer on each word boundary (just past a lone
        // winner at 63 or 127), then check the next grants from there.
        for (const int last : {63, 127, n - 1}) {
            if (last >= n)
                continue;
            round({last});
            for (int r = 0; r < 4; ++r) {
                std::vector<int> raise;
                for (int k = 0; k < 3; ++k)
                    raise.push_back(static_cast<int>(
                        rng.nextBounded(static_cast<std::uint64_t>(n))));
                round(raise);
            }
        }
        round({});
    }
}

} // namespace
} // namespace lapses
