/**
 * @file
 * Unit tests for the path-selection heuristics (Section 4).
 */

#include <gtest/gtest.h>

#include <typeinfo>
#include <utility>
#include <vector>

#include "selection/selector_factory.hpp"

namespace lapses
{
namespace
{

/** Two-candidate helper: X port (1) vs Y port (3) with given state. */
std::vector<PortStatus>
xy(PortStatus x, PortStatus y)
{
    x.port = 1;
    y.port = 3;
    if (x.freeVcs == 0)
        x.freeVcs = 1;
    if (y.freeVcs == 0)
        y.freeVcs = 1;
    return {x, y};
}

TEST(Selectors, StaticXyPrefersFirstCandidate)
{
    StaticXySelector sel;
    PortStatus x;
    PortStatus y;
    y.totalCredits = 100; // ignored by the static policy
    const auto c = xy(x, y);
    EXPECT_EQ(sel.select(c), 1);
}

TEST(Selectors, FirstFreePicksFirstAvailable)
{
    FirstFreeSelector sel;
    const auto c = xy({}, {});
    EXPECT_EQ(sel.select(c), 1);
}

TEST(Selectors, MinMuxPicksLeastMultiplexed)
{
    MinMuxSelector sel;
    PortStatus x;
    x.activeVcs = 3;
    PortStatus y;
    y.activeVcs = 1;
    EXPECT_EQ(sel.select(xy(x, y)), 3);
}

TEST(Selectors, MinMuxTieFallsBackToStatic)
{
    MinMuxSelector sel;
    PortStatus x;
    x.activeVcs = 2;
    PortStatus y;
    y.activeVcs = 2;
    EXPECT_EQ(sel.select(xy(x, y)), 1);
}

TEST(Selectors, LfuPicksLowestUseCount)
{
    LfuSelector sel;
    PortStatus x;
    x.useCount = 500;
    PortStatus y;
    y.useCount = 10;
    EXPECT_EQ(sel.select(xy(x, y)), 3);
}

TEST(Selectors, LruPicksOldestUse)
{
    LruSelector sel;
    PortStatus x;
    x.lastUseCycle = 900;
    PortStatus y;
    y.lastUseCycle = 100;
    EXPECT_EQ(sel.select(xy(x, y)), 3);
}

TEST(Selectors, LruNeverUsedPortIsOldest)
{
    LruSelector sel;
    PortStatus x;
    x.lastUseCycle = 5;
    PortStatus y;
    y.lastUseCycle = 0; // never used
    EXPECT_EQ(sel.select(xy(x, y)), 3);
}

TEST(Selectors, MaxCreditPicksMostCredits)
{
    MaxCreditSelector sel;
    PortStatus x;
    x.totalCredits = 12;
    PortStatus y;
    y.totalCredits = 70;
    EXPECT_EQ(sel.select(xy(x, y)), 3);
}

TEST(Selectors, MaxCreditTieFallsBackToStatic)
{
    MaxCreditSelector sel;
    PortStatus x;
    x.totalCredits = 40;
    PortStatus y;
    y.totalCredits = 40;
    EXPECT_EQ(sel.select(xy(x, y)), 1);
}

TEST(Selectors, RandomIsBoundedAndCoversBoth)
{
    RandomSelector sel(Rng{99});
    bool saw_x = false;
    bool saw_y = false;
    const auto c = xy({}, {});
    for (int i = 0; i < 200; ++i) {
        const PortId p = sel.select(c);
        ASSERT_TRUE(p == 1 || p == 3);
        saw_x = saw_x || p == 1;
        saw_y = saw_y || p == 3;
    }
    EXPECT_TRUE(saw_x);
    EXPECT_TRUE(saw_y);
}

TEST(Selectors, SingleCandidateAlwaysWins)
{
    std::vector<PortStatus> one(1);
    one[0].port = 4;
    one[0].freeVcs = 1;
    for (SelectorKind kind :
         {SelectorKind::StaticXY, SelectorKind::FirstFree,
          SelectorKind::Random, SelectorKind::MinMux, SelectorKind::Lfu,
          SelectorKind::Lru, SelectorKind::MaxCredit}) {
        const PathSelectorPtr sel = makePathSelector(kind, Rng{1});
        EXPECT_EQ(sel->select(one), 4) << enumName(kind);
    }
}

TEST(Selectors, DynamicPoliciesDisagreeWhenStateConflicts)
{
    // Craft state where each dynamic policy picks a different port:
    // X: low credits, low mux, never used recently, high use count.
    PortStatus x;
    x.totalCredits = 5;
    x.activeVcs = 0;
    x.useCount = 1000;
    x.lastUseCycle = 10;
    PortStatus y;
    y.totalCredits = 50;
    y.activeVcs = 3;
    y.useCount = 2;
    y.lastUseCycle = 500;
    const auto c = xy(x, y);
    EXPECT_EQ(MinMuxSelector{}.select(c), 1);    // fewer active VCs
    EXPECT_EQ(LfuSelector{}.select(c), 3);       // fewer uses
    EXPECT_EQ(LruSelector{}.select(c), 1);       // older last use
    EXPECT_EQ(MaxCreditSelector{}.select(c), 3); // more credits
}

TEST(SelectorFactory, BuildsTheClassOfEachKind)
{
    const std::pair<SelectorKind, const std::type_info*> cases[] = {
        {SelectorKind::StaticXY, &typeid(StaticXySelector)},
        {SelectorKind::FirstFree, &typeid(FirstFreeSelector)},
        {SelectorKind::Random, &typeid(RandomSelector)},
        {SelectorKind::MinMux, &typeid(MinMuxSelector)},
        {SelectorKind::Lfu, &typeid(LfuSelector)},
        {SelectorKind::Lru, &typeid(LruSelector)},
        {SelectorKind::MaxCredit, &typeid(MaxCreditSelector)},
    };
    for (const auto& [kind, type] : cases) {
        const PathSelectorPtr sel = makePathSelector(kind, Rng{1});
        const PathSelector& built = *sel;
        EXPECT_TRUE(typeid(built) == *type) << enumName(kind);
    }
}

} // namespace
} // namespace lapses
