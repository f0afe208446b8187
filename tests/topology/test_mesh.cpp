/**
 * @file
 * Unit tests for the k-ary n-mesh / torus topology.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "topology/mesh.hpp"

namespace lapses
{
namespace
{

TEST(Mesh, BasicGeometry16x16)
{
    const Topology m = makeSquareMesh(16);
    EXPECT_EQ(m.numNodes(), 256);
    EXPECT_EQ(m.mesh()->dims(), 2);
    EXPECT_EQ(m.numPorts(), 5); // L, +X, -X, +Y, -Y
    EXPECT_FALSE(m.isTorus());
}

TEST(Mesh, NodeCoordRoundTrip)
{
    const Topology m = makeSquareMesh(16);
    for (NodeId n = 0; n < m.numNodes(); ++n)
        EXPECT_EQ(m.mesh()->coordsToNode(m.mesh()->nodeToCoords(n)), n);
}

TEST(Mesh, RowMajorNumbering)
{
    // Paper Fig. 8 labels: node = y*16 + x.
    const Topology m = makeSquareMesh(16);
    const Coordinates c = m.mesh()->nodeToCoords(16 * 3 + 5);
    EXPECT_EQ(c.at(0), 5);
    EXPECT_EQ(c.at(1), 3);
}

TEST(Mesh, PortNamesAndGeometry)
{
    EXPECT_EQ(MeshShape::portName(kLocalPort), "L");
    EXPECT_EQ(MeshShape::portName(MeshShape::port(0,
                                                        Direction::Plus)),
              "+X");
    EXPECT_EQ(MeshShape::portName(MeshShape::port(1,
                                                        Direction::Minus)),
              "-Y");
    EXPECT_EQ(MeshShape::portDim(3), 1);
    EXPECT_EQ(MeshShape::portDir(3), Direction::Plus);
    EXPECT_EQ(MeshShape::portDir(4), Direction::Minus);
}

TEST(Mesh, OppositePortFlipsDirection)
{
    for (PortId p = 1; p <= 4; ++p) {
        const PortId o = MeshShape::oppositePort(p);
        EXPECT_EQ(MeshShape::portDim(o), MeshShape::portDim(p));
        EXPECT_NE(MeshShape::portDir(o), MeshShape::portDir(p));
        EXPECT_EQ(MeshShape::oppositePort(o), p);
    }
}

TEST(Mesh, NeighborsInterior)
{
    const Topology m = makeSquareMesh(4);
    const NodeId center = m.mesh()->coordsToNode(Coordinates(1, 1)); // node 5
    EXPECT_EQ(m.neighbor(center, MeshShape::port(0, Direction::Plus)),
              m.mesh()->coordsToNode(Coordinates(2, 1)));
    EXPECT_EQ(m.neighbor(center, MeshShape::port(0, Direction::Minus)),
              m.mesh()->coordsToNode(Coordinates(0, 1)));
    EXPECT_EQ(m.neighbor(center, MeshShape::port(1, Direction::Plus)),
              m.mesh()->coordsToNode(Coordinates(1, 2)));
    EXPECT_EQ(m.neighbor(center, MeshShape::port(1, Direction::Minus)),
              m.mesh()->coordsToNode(Coordinates(1, 0)));
}

TEST(Mesh, EdgesHaveNoNeighbor)
{
    const Topology m = makeSquareMesh(4);
    const NodeId corner = m.mesh()->coordsToNode(Coordinates(0, 0));
    EXPECT_EQ(m.neighbor(corner, MeshShape::port(0, Direction::Minus)),
              kInvalidNode);
    EXPECT_EQ(m.neighbor(corner, MeshShape::port(1, Direction::Minus)),
              kInvalidNode);
    EXPECT_NE(m.neighbor(corner, MeshShape::port(0, Direction::Plus)),
              kInvalidNode);
}

TEST(Mesh, TorusWrapsAround)
{
    const Topology t = makeSquareMesh(4, true);
    const NodeId corner = t.mesh()->coordsToNode(Coordinates(0, 0));
    EXPECT_EQ(t.neighbor(corner, MeshShape::port(0, Direction::Minus)),
              t.mesh()->coordsToNode(Coordinates(3, 0)));
    EXPECT_EQ(t.neighbor(corner, MeshShape::port(1, Direction::Minus)),
              t.mesh()->coordsToNode(Coordinates(0, 3)));
}

TEST(Mesh, LocalPortIsSelf)
{
    const Topology m = makeSquareMesh(4);
    EXPECT_EQ(m.neighbor(7, kLocalPort), 7);
}

TEST(Mesh, NeighborRelationIsSymmetric)
{
    const Topology m = makeSquareMesh(5);
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        for (PortId p = 1; p < m.numPorts(); ++p) {
            const NodeId peer = m.neighbor(n, p);
            if (peer == kInvalidNode)
                continue;
            EXPECT_EQ(m.neighbor(peer, MeshShape::oppositePort(p)), n);
        }
    }
}

TEST(Mesh, DistanceIsManhattan)
{
    const Topology m = makeSquareMesh(8);
    EXPECT_EQ(m.distance(m.mesh()->coordsToNode(Coordinates(0, 0)),
                         m.mesh()->coordsToNode(Coordinates(7, 7))),
              14);
    EXPECT_EQ(m.distance(3, 3), 0);
}

TEST(Mesh, TorusDistanceUsesWrap)
{
    const Topology t = makeSquareMesh(8, true);
    EXPECT_EQ(t.distance(t.mesh()->coordsToNode(Coordinates(0, 0)),
                         t.mesh()->coordsToNode(Coordinates(7, 0))),
              1);
}

TEST(Mesh, ProductivePortsMoveCloser)
{
    const Topology m = makeSquareMesh(8);
    Rng rng(5);
    for (int trial = 0; trial < 500; ++trial) {
        const NodeId a = static_cast<NodeId>(rng.nextBounded(64));
        const NodeId b = static_cast<NodeId>(rng.nextBounded(64));
        for (PortId p : m.productivePorts(a, b)) {
            const NodeId next = m.neighbor(a, p);
            ASSERT_NE(next, kInvalidNode);
            EXPECT_EQ(m.distance(next, b), m.distance(a, b) - 1);
        }
    }
}

TEST(Mesh, ProductivePortCountMatchesOffsets)
{
    const Topology m = makeSquareMesh(8);
    const NodeId a = m.mesh()->coordsToNode(Coordinates(2, 2));
    EXPECT_EQ(m.productivePorts(a, m.mesh()->coordsToNode(Coordinates(5, 6)))
                  .size(),
              2u);
    EXPECT_EQ(m.productivePorts(a, m.mesh()->coordsToNode(Coordinates(5, 2)))
                  .size(),
              1u);
    EXPECT_TRUE(m.productivePorts(a, a).empty());
}

TEST(Mesh, ProductivePortInDimExact)
{
    const Topology m = makeSquareMesh(8);
    const Coordinates a(4, 4);
    const Coordinates b(2, 6);
    EXPECT_EQ(m.mesh()->productivePortInDim(a, b, 0),
              MeshShape::port(0, Direction::Minus));
    EXPECT_EQ(m.mesh()->productivePortInDim(a, b, 1),
              MeshShape::port(1, Direction::Plus));
    EXPECT_EQ(m.mesh()->productivePortInDim(a, a, 0), kInvalidPort);
}

TEST(Mesh, BisectionChannels)
{
    // k x k mesh: 2k unidirectional channels cross the bisection.
    EXPECT_EQ(makeSquareMesh(16).bisectionChannels(), 32);
    EXPECT_EQ(makeSquareMesh(8).bisectionChannels(), 16);
    // Torus doubles it with wrap links.
    EXPECT_EQ(makeSquareMesh(16, true).bisectionChannels(), 64);
}

TEST(Mesh, BisectionSaturationRate)
{
    // 16x16: 2 * 32 / 256 = 0.25 flits/node/cycle (Section 2.2).
    EXPECT_DOUBLE_EQ(
        makeSquareMesh(16).bisectionSaturationFlitRate(), 0.25);
}

TEST(Mesh, ThreeDimensionalGeometry)
{
    const Topology m = makeCubeMesh(4);
    EXPECT_EQ(m.numNodes(), 64);
    EXPECT_EQ(m.numPorts(), 7);
    const NodeId n = m.mesh()->coordsToNode(Coordinates(1, 2, 3));
    EXPECT_EQ(m.mesh()->nodeToCoords(n).at(2), 3);
    EXPECT_EQ(m.neighbor(n, MeshShape::port(2, Direction::Minus)),
              m.mesh()->coordsToNode(Coordinates(1, 2, 2)));
}

TEST(Mesh, RectangularRadices)
{
    const Topology m = makeMeshTopology({8, 4}, false);
    EXPECT_EQ(m.numNodes(), 32);
    EXPECT_EQ(m.mesh()->radix(0), 8);
    EXPECT_EQ(m.mesh()->radix(1), 4);
    // Bisection cuts the larger dimension: slice = 4 nodes -> 8 chans.
    EXPECT_EQ(m.bisectionChannels(), 8);
}

TEST(Mesh, RejectsBadConfigs)
{
    EXPECT_THROW(makeMeshTopology({}, false), ConfigError);
    EXPECT_THROW(makeMeshTopology({1, 4}, false), ConfigError);
    EXPECT_THROW(makeMeshTopology({2, 2, 2, 2, 2}, false),
                 ConfigError);
}

TEST(Mesh, RejectsRadixBeyondSixteenBitCoordinates)
{
    // Coordinates hold int16_t positions, so a radix above 32767 must
    // fail as a ConfigError naming the limit, not abort on an assert.
    try {
        makeMeshTopology({40000, 2});
        FAIL() << "radix 40000 accepted";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("exceeds the limit of 32767"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(makeMeshTopology({MeshShape::kMaxRadix, 2}).numNodes(),
              2 * MeshShape::kMaxRadix);
}

} // namespace
} // namespace lapses
