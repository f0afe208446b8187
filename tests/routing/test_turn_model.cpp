/**
 * @file
 * Unit tests for turn-model routing (North-Last per Fig. 7, West-First,
 * Negative-First).
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "routing/algorithm_factory.hpp"
#include "routing/turn_model.hpp"

namespace lapses
{
namespace
{

PortId
east()
{
    return MeshShape::port(0, Direction::Plus);
}
PortId
west()
{
    return MeshShape::port(0, Direction::Minus);
}
PortId
north()
{
    return MeshShape::port(1, Direction::Plus);
}
PortId
south()
{
    return MeshShape::port(1, Direction::Minus);
}

/** The Fig. 7 example mesh: 3x3, intermediate router at (1,1). */
class NorthLastFig7 : public ::testing::Test
{
  protected:
    NorthLastFig7()
        : mesh(makeSquareMesh(3)),
          nl(mesh, TurnModel::NorthLast),
          src(mesh.mesh()->coordsToNode(Coordinates(1, 1)))
    {}

    RouteCandidates
    to(int x, int y) const
    {
        return nl.route(src, mesh.mesh()->coordsToNode(Coordinates(x, y)));
    }

    Topology mesh;
    TurnModelRouting nl;
    NodeId src;
};

// Fig. 7(d) rows, translated from the paper's port labels to direction
// names: paper 1 = -Y (south), 2 = -X (west), 3 = +Y (north),
// 4 = +X (east).

TEST_F(NorthLastFig7, DestSouthWest)
{
    const RouteCandidates rc = to(0, 0); // paper: ports 2, 1
    EXPECT_EQ(rc.count(), 2);
    EXPECT_TRUE(rc.contains(west()));
    EXPECT_TRUE(rc.contains(south()));
}

TEST_F(NorthLastFig7, DestSouth)
{
    const RouteCandidates rc = to(1, 0); // paper: port 1
    EXPECT_EQ(rc.count(), 1);
    EXPECT_TRUE(rc.contains(south()));
}

TEST_F(NorthLastFig7, DestSouthEast)
{
    const RouteCandidates rc = to(2, 0); // paper: ports 4, 1
    EXPECT_EQ(rc.count(), 2);
    EXPECT_TRUE(rc.contains(east()));
    EXPECT_TRUE(rc.contains(south()));
}

TEST_F(NorthLastFig7, DestWest)
{
    const RouteCandidates rc = to(0, 1); // paper: port 2
    EXPECT_EQ(rc.count(), 1);
    EXPECT_TRUE(rc.contains(west()));
}

TEST_F(NorthLastFig7, DestSelf)
{
    EXPECT_TRUE(to(1, 1).isEjection()); // paper: port 0
}

TEST_F(NorthLastFig7, DestEast)
{
    const RouteCandidates rc = to(2, 1); // paper: port 4
    EXPECT_EQ(rc.count(), 1);
    EXPECT_TRUE(rc.contains(east()));
}

TEST_F(NorthLastFig7, DestNorthWestLosesNorth)
{
    // Fully adaptive would offer {west, north}; North-Last denies the
    // north turn while X is unresolved (paper: candidate 2,3 -> 2).
    const RouteCandidates rc = to(0, 2);
    EXPECT_EQ(rc.count(), 1);
    EXPECT_TRUE(rc.contains(west()));
}

TEST_F(NorthLastFig7, DestNorth)
{
    const RouteCandidates rc = to(1, 2); // paper: port 3
    EXPECT_EQ(rc.count(), 1);
    EXPECT_TRUE(rc.contains(north()));
}

TEST_F(NorthLastFig7, DestNorthEastLosesNorth)
{
    const RouteCandidates rc = to(2, 2); // paper: candidate 4,3 -> 4
    EXPECT_EQ(rc.count(), 1);
    EXPECT_TRUE(rc.contains(east()));
}

TEST(TurnModel, WestFirstTakesWestFirst)
{
    const Topology m = makeSquareMesh(8);
    const TurnModelRouting wf(m, TurnModel::WestFirst);
    const NodeId src = m.mesh()->coordsToNode(Coordinates(5, 5));
    // West offset remaining: only -X allowed.
    const RouteCandidates rc =
        wf.route(src, m.mesh()->coordsToNode(Coordinates(2, 7)));
    EXPECT_EQ(rc.count(), 1);
    EXPECT_EQ(rc.at(0), west());
    // No west offset: fully adaptive among productive.
    const RouteCandidates rc2 =
        wf.route(src, m.mesh()->coordsToNode(Coordinates(7, 2)));
    EXPECT_EQ(rc2.count(), 2);
    EXPECT_TRUE(rc2.contains(east()));
    EXPECT_TRUE(rc2.contains(south()));
}

TEST(TurnModel, NegativeFirstOrdersPhases)
{
    const Topology m = makeSquareMesh(8);
    const TurnModelRouting nf(m, TurnModel::NegativeFirst);
    const NodeId src = m.mesh()->coordsToNode(Coordinates(4, 4));
    // Mixed negative offsets: both negatives adaptive.
    const RouteCandidates neg =
        nf.route(src, m.mesh()->coordsToNode(Coordinates(1, 1)));
    EXPECT_EQ(neg.count(), 2);
    EXPECT_TRUE(neg.contains(west()));
    EXPECT_TRUE(neg.contains(south()));
    // One negative one positive: negative must go first.
    const RouteCandidates mixed =
        nf.route(src, m.mesh()->coordsToNode(Coordinates(6, 1)));
    EXPECT_EQ(mixed.count(), 1);
    EXPECT_EQ(mixed.at(0), south());
    // All positive: positives adaptive.
    const RouteCandidates pos =
        nf.route(src, m.mesh()->coordsToNode(Coordinates(6, 6)));
    EXPECT_EQ(pos.count(), 2);
}

TEST(TurnModel, CandidatesAlwaysMinimalAndNonEmpty)
{
    const Topology m = makeSquareMesh(6);
    for (TurnModel model : {TurnModel::NorthLast, TurnModel::WestFirst,
                            TurnModel::NegativeFirst}) {
        const TurnModelRouting algo(m, model);
        for (NodeId a = 0; a < m.numNodes(); ++a) {
            for (NodeId b = 0; b < m.numNodes(); ++b) {
                const RouteCandidates rc = algo.route(a, b);
                ASSERT_GE(rc.count(), 1);
                if (a == b) {
                    EXPECT_TRUE(rc.isEjection());
                    continue;
                }
                for (int i = 0; i < rc.count(); ++i) {
                    const NodeId next = m.neighbor(a, rc.at(i));
                    ASSERT_NE(next, kInvalidNode);
                    EXPECT_EQ(m.distance(next, b),
                              m.distance(a, b) - 1);
                }
            }
        }
    }
}

TEST(TurnModel, NorthLastNeverTurnsOutOfNorth)
{
    // Property: along any adaptive walk, once a +Y hop is taken only
    // +Y hops may follow.
    const Topology m = makeSquareMesh(6);
    const TurnModelRouting nl(m, TurnModel::NorthLast);
    Rng rng(77);
    for (int trial = 0; trial < 300; ++trial) {
        NodeId cur = static_cast<NodeId>(rng.nextBounded(36));
        const NodeId dest = static_cast<NodeId>(rng.nextBounded(36));
        bool went_north = false;
        while (cur != dest) {
            const RouteCandidates rc = nl.route(cur, dest);
            const PortId p =
                rc.at(static_cast<int>(rng.nextBounded(
                    static_cast<std::uint64_t>(rc.count()))));
            if (p == north())
                went_north = true;
            else
                EXPECT_FALSE(went_north)
                    << "turn out of +Y under North-Last";
            cur = m.neighbor(cur, p);
        }
    }
}

TEST(TurnModel, NoEscapeChannelsNeeded)
{
    const Topology m = makeSquareMesh(4);
    const TurnModelRouting nl(m, TurnModel::NorthLast);
    EXPECT_FALSE(nl.usesEscapeChannels());
    EXPECT_TRUE(nl.isAdaptive());
    EXPECT_EQ(nl.route(0, 15).escapePort(), kInvalidPort);
}

TEST(TurnModel, RejectsUnsupportedTopologies)
{
    const Topology m3 = makeCubeMesh(3);
    EXPECT_THROW(TurnModelRouting(m3, TurnModel::NorthLast), ConfigError);
    const Topology t = makeSquareMesh(4, true);
    EXPECT_THROW(TurnModelRouting(t, TurnModel::WestFirst), ConfigError);
}

TEST(AlgorithmFactory, CreatesEveryAlgorithm)
{
    const Topology m = makeSquareMesh(4);
    for (RoutingAlgo a :
         {RoutingAlgo::DeterministicXY, RoutingAlgo::DeterministicYX,
          RoutingAlgo::DuatoFullyAdaptive, RoutingAlgo::NorthLast,
          RoutingAlgo::WestFirst, RoutingAlgo::NegativeFirst}) {
        const RoutingAlgorithmPtr algo = makeRoutingAlgorithm(a, m);
        ASSERT_NE(algo, nullptr);
        EXPECT_EQ(algo->name(), enumName(a));
        EXPECT_FALSE(algo->route(0, 5).empty());
    }
}

} // namespace
} // namespace lapses
