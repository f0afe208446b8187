/**
 * @file
 * Unit tests for economical storage (Section 5.2), including the exact
 * Fig. 7 North-Last programming example.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "routing/algorithm_factory.hpp"
#include "routing/turn_model.hpp"
#include "routing/up_down.hpp"
#include "tables/economical_storage.hpp"
#include "topology/dragonfly.hpp"

namespace lapses
{
namespace
{

/** Test-only algorithm: equals `base` at every (router, dest) pair
 *  except one, where it ejects before reaching the destination. */
class OnePairDeviant : public RoutingAlgorithm
{
  public:
    OnePairDeviant(const RoutingAlgorithm& base, NodeId router,
                   NodeId dest)
        : RoutingAlgorithm(base.topology()), base_(base),
          router_(router), dest_(dest)
    {}

    std::string name() const override { return "deviant"; }

    RouteCandidates
    route(NodeId current, NodeId dest) const override
    {
        if (current == router_ && dest == dest_)
            return ejectionEntry();
        return base_.route(current, dest);
    }

    bool
    usesEscapeChannels() const override
    {
        return base_.usesEscapeChannels();
    }
    bool isAdaptive() const override { return base_.isAdaptive(); }

  private:
    const RoutingAlgorithm& base_;
    NodeId router_;
    NodeId dest_;
};

/** Building the table must throw a ConfigError containing `what`. */
void
expectRejected(const Topology& topo, const RoutingAlgorithm& algo,
               const std::string& what)
{
    try {
        const EconomicalStorageTable table(topo, algo);
        FAIL() << "table accepted an algorithm it cannot hold";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(EconomicalStorage, NineEntriesFor2D)
{
    const Topology m = makeSquareMesh(16);
    const EconomicalStorageTable table(m);
    EXPECT_EQ(table.entriesPerRouter(), 9u);
    EXPECT_EQ(table.name(), "economical-storage");
    EXPECT_TRUE(table.supportsAdaptive());
}

TEST(EconomicalStorage, TwentySevenEntriesFor3D)
{
    const Topology m = makeCubeMesh(4);
    const EconomicalStorageTable table(m);
    EXPECT_EQ(table.entriesPerRouter(), 27u);
}

TEST(EconomicalStorage, EntriesIndependentOfNetworkSize)
{
    // The paper's scalability claim: the T3D's 2048-entry table
    // becomes 27 entries; any k keeps 3^n entries.
    for (int k : {4, 8, 16}) {
        const EconomicalStorageTable t2(makeSquareMesh(k));
        EXPECT_EQ(t2.entriesPerRouter(), 9u);
    }
}

TEST(EconomicalStorage, MatchesEveryAlgorithmExhaustively)
{
    // The central claim of Section 5.2.2: economical storage loses no
    // flexibility; all the library's mesh algorithms program into it
    // exactly (validated against every (router, dest) pair).
    const Topology m = makeSquareMesh(6);
    for (RoutingAlgo a :
         {RoutingAlgo::DeterministicXY, RoutingAlgo::DeterministicYX,
          RoutingAlgo::DuatoFullyAdaptive, RoutingAlgo::NorthLast,
          RoutingAlgo::WestFirst, RoutingAlgo::NegativeFirst}) {
        const RoutingAlgorithmPtr algo = makeRoutingAlgorithm(a, m);
        const EconomicalStorageTable table(m, *algo);
        for (NodeId r = 0; r < m.numNodes(); ++r) {
            for (NodeId d = 0; d < m.numNodes(); ++d) {
                EXPECT_EQ(table.lookup(r, d), algo->route(r, d))
                    << algo->name() << " r=" << r << " d=" << d;
            }
        }
    }
}

TEST(EconomicalStorage, MatchesDuatoIn3D)
{
    const Topology m = makeCubeMesh(3);
    const RoutingAlgorithmPtr algo =
        makeRoutingAlgorithm(RoutingAlgo::DuatoFullyAdaptive, m);
    const EconomicalStorageTable table(m, *algo);
    for (NodeId r = 0; r < m.numNodes(); ++r) {
        for (NodeId d = 0; d < m.numNodes(); ++d)
            EXPECT_EQ(table.lookup(r, d), algo->route(r, d));
    }
}

/**
 * Fig. 7(d), row by row: North-Last programming of router (1,1) in a
 * 3x3 mesh. The paper's port labels are 1 = -Y, 2 = -X, 3 = +Y,
 * 4 = +X, 0 = local.
 */
TEST(EconomicalStorage, Fig7NorthLastTableExact)
{
    const Topology m = makeSquareMesh(3);
    const TurnModelRouting nl(m, TurnModel::NorthLast);
    const EconomicalStorageTable table(m, nl);
    const NodeId router = m.mesh()->coordsToNode(Coordinates(1, 1)); // node 4

    const PortId east = MeshShape::port(0, Direction::Plus);
    const PortId west = MeshShape::port(0, Direction::Minus);
    const PortId north = MeshShape::port(1, Direction::Plus);
    const PortId south = MeshShape::port(1, Direction::Minus);

    struct Fig7Row
    {
        int destX, destY;
        std::vector<PortId> northLastPorts;
    };
    const std::vector<Fig7Row> rows = {
        {0, 0, {west, south}},  // paper entry "2, 1"
        {1, 0, {south}},        // "1"
        {2, 0, {east, south}},  // "4, 1"
        {0, 1, {west}},         // "2"
        {1, 1, {kLocalPort}},   // "0"
        {2, 1, {east}},         // "4"
        {0, 2, {west}},         // "2"  (candidates 2,3 - north denied)
        {1, 2, {north}},        // "3"
        {2, 2, {east}},         // "4"  (candidates 4,3 - north denied)
    };

    for (const auto& row : rows) {
        const NodeId dest =
            m.mesh()->coordsToNode(Coordinates(row.destX, row.destY));
        const RouteCandidates rc = table.lookup(router, dest);
        ASSERT_EQ(rc.count(),
                  static_cast<int>(row.northLastPorts.size()))
            << "dest (" << row.destX << "," << row.destY << ")";
        for (PortId p : row.northLastPorts)
            EXPECT_TRUE(rc.contains(p))
                << "dest (" << row.destX << "," << row.destY << ")";
    }
}

TEST(EconomicalStorage, ManualProgrammingRoundTrip)
{
    // The Fig. 7(d) configuration interface: program entries by sign.
    const Topology m = makeSquareMesh(3);
    EconomicalStorageTable table(m);
    const NodeId router = m.mesh()->coordsToNode(Coordinates(1, 1));

    RouteCandidates rc;
    rc.add(MeshShape::port(0, Direction::Plus));
    rc.add(MeshShape::port(1, Direction::Plus));
    const SignVector sv(Coordinates(1, 1), Coordinates(2, 2));
    table.setEntry(router, sv, rc);
    EXPECT_EQ(table.entry(router, sv), rc);
    // lookup() uses the comparator-computed sign.
    EXPECT_EQ(table.lookup(router, m.mesh()->coordsToNode(Coordinates(2, 2))),
              rc);
}

TEST(EconomicalStorage, InfeasibleEdgeSignsStayEmpty)
{
    // A router on the +X edge can never see sign (+, 0).
    const Topology m = makeSquareMesh(4);
    const RoutingAlgorithmPtr algo =
        makeRoutingAlgorithm(RoutingAlgo::DeterministicXY, m);
    const EconomicalStorageTable table(m, *algo);
    const NodeId edge_router = m.mesh()->coordsToNode(Coordinates(3, 1));
    SignVector sv;
    sv = SignVector(Coordinates(0, 0), Coordinates(1, 0)); // (+, 0)
    EXPECT_TRUE(table.entry(edge_router, sv).empty());
}

TEST(EconomicalStorage, RejectsAlgorithmDeviatingAtOnePair)
{
    // Entries are programmed from representatives one hop away along
    // each sign, so a deviation anywhere else is caught only by the
    // exhaustive (router, dest) check. (5,5)->(3,5) sits in the last
    // router row, where a check that stops early would miss it;
    // (2,2)->(4,4) is an interior case.
    const Topology m = makeSquareMesh(6);
    const RoutingAlgorithmPtr duato =
        makeRoutingAlgorithm(RoutingAlgo::DuatoFullyAdaptive, m);
    const NodeId n = m.numNodes();
    for (const auto& [r, d] :
         {std::pair<NodeId, NodeId>{n - 1, n - 3}, {14, 28}}) {
        SCOPED_TRACE("r=" + std::to_string(r) + " d=" + std::to_string(d));
        expectRejected(m, OnePairDeviant(*duato, r, d),
                       "is not sign-representable");
    }
}

TEST(EconomicalStorage, TreeModeRejectsAlgorithmDeviatingAtOnePair)
{
    // Tree mode recomputes entries from the subtree intervals, so only
    // the exhaustive check sees a deviation: in the last router row
    // and in the interior.
    const Topology df = makeDragonflyTopology(6, 2, 12);
    const NodeId n = df.numNodes();
    for (const bool adaptive : {false, true}) {
        const UpDownRouting updown(df, adaptive);
        for (const auto& [r, d] :
             {std::pair<NodeId, NodeId>{n - 1, n - 3}, {20, 50}}) {
            SCOPED_TRACE("adaptive=" + std::to_string(adaptive) +
                         " r=" + std::to_string(r) +
                         " d=" + std::to_string(d));
            expectRejected(df, OnePairDeviant(updown, r, d),
                           "is not tree-representable");
        }
    }
}

TEST(EconomicalStorage, RejectsTorus)
{
    const Topology t = makeSquareMesh(4, true);
    EXPECT_THROW(EconomicalStorageTable{t}, ConfigError);
}

} // namespace
} // namespace lapses
