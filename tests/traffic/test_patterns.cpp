/**
 * @file
 * Unit tests for the synthetic traffic patterns (Section 2.2).
 */

#include <gtest/gtest.h>

#include <map>

#include "traffic/patterns.hpp"

namespace lapses
{
namespace
{

class PatternTest : public ::testing::Test
{
  protected:
    PatternTest() : mesh(makeSquareMesh(16)), rng(1) {}

    Topology mesh;
    Rng rng;
};

TEST_F(PatternTest, UniformNeverPicksSelfAndCoversAll)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::Uniform, mesh);
    std::map<NodeId, int> hist;
    const NodeId src = 37;
    for (int i = 0; i < 20000; ++i) {
        const NodeId d = p->pick(src, rng);
        ASSERT_NE(d, src);
        ASSERT_TRUE(mesh.contains(d));
        ++hist[d];
    }
    EXPECT_EQ(hist.size(), 255u); // every other node reachable
    // Roughly uniform: expectation ~78 per destination.
    for (const auto& [node, count] : hist)
        EXPECT_GT(count, 20) << node;
}

TEST_F(PatternTest, TransposeSwapsCoordinates)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::Transpose, mesh);
    const NodeId src = mesh.mesh()->coordsToNode(Coordinates(3, 11));
    const NodeId d = p->pick(src, rng);
    EXPECT_EQ(d, mesh.mesh()->coordsToNode(Coordinates(11, 3)));
}

TEST_F(PatternTest, TransposeDiagonalIsSilent)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::Transpose, mesh);
    const NodeId diag = mesh.mesh()->coordsToNode(Coordinates(5, 5));
    EXPECT_EQ(p->pick(diag, rng), kInvalidNode);
}

TEST_F(PatternTest, TransposeIsInvolution)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::Transpose, mesh);
    for (NodeId n = 0; n < mesh.numNodes(); ++n) {
        const NodeId d = p->pick(n, rng);
        if (d == kInvalidNode)
            continue;
        EXPECT_EQ(p->pick(d, rng), n);
    }
}

TEST_F(PatternTest, BitReversalReversesAddressBits)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::BitReversal, mesh);
    // 256 nodes -> 8 bits. 0b00000001 -> 0b10000000.
    EXPECT_EQ(p->pick(0x01, rng), 0x80);
    EXPECT_EQ(p->pick(0x80, rng), 0x01);
    EXPECT_EQ(p->pick(0b00110101, rng), 0b10101100);
    // Palindromic addresses are silent.
    EXPECT_EQ(p->pick(0, rng), kInvalidNode);
    EXPECT_EQ(p->pick(0xFF, rng), kInvalidNode);
}

TEST_F(PatternTest, PerfectShuffleRotatesLeft)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::PerfectShuffle, mesh);
    EXPECT_EQ(p->pick(0b00000001, rng), 0b00000010);
    EXPECT_EQ(p->pick(0b10000000, rng), 0b00000001);
    EXPECT_EQ(p->pick(0b01100100, rng), 0b11001000);
    EXPECT_EQ(p->pick(0, rng), kInvalidNode); // fixed point
}

TEST_F(PatternTest, BitComplementFlipsAllBits)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::BitComplement, mesh);
    EXPECT_EQ(p->pick(0x00, rng), 0xFF);
    EXPECT_EQ(p->pick(0x0F, rng), 0xF0);
}

TEST_F(PatternTest, TornadoOffsetsHalfRadix)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::Tornado, mesh);
    const NodeId src = mesh.mesh()->coordsToNode(Coordinates(2, 3));
    // k/2 - 1 = 7 offset per dimension, modulo 16.
    EXPECT_EQ(p->pick(src, rng),
              mesh.mesh()->coordsToNode(Coordinates(9, 10)));
}

TEST_F(PatternTest, NeighborStepsAlongX)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::Neighbor, mesh);
    const NodeId src = mesh.mesh()->coordsToNode(Coordinates(15, 4));
    EXPECT_EQ(p->pick(src, rng),
              mesh.mesh()->coordsToNode(Coordinates(0, 4))); // wraps label
}

TEST_F(PatternTest, HotspotFractionReached)
{
    HotspotOptions opts;
    opts.hotspots = {0};
    opts.fraction = 0.25;
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::Hotspot, mesh, opts);
    int to_hotspot = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        to_hotspot += (p->pick(100, rng) == 0) ? 1 : 0;
    // 25% directed + ~uniform residue (1/255).
    EXPECT_NEAR(static_cast<double>(to_hotspot) / n, 0.253, 0.01);
}

TEST_F(PatternTest, HotspotDefaultsToMeshCenter)
{
    const TrafficPatternPtr p =
        makeTrafficPattern(TrafficKind::Hotspot, mesh);
    const NodeId center = mesh.mesh()->coordsToNode(Coordinates(8, 8));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += (p->pick(3, rng) == center) ? 1 : 0;
    EXPECT_GT(hits, 800); // ~10% + uniform share
}

TEST(PatternErrors, TransposeNeedsSquareMesh)
{
    const Topology rect = makeMeshTopology({8, 4}, false);
    EXPECT_THROW(makeTrafficPattern(TrafficKind::Transpose, rect),
                 ConfigError);
}

TEST(PatternErrors, BitPatternsNeedPowerOfTwo)
{
    const Topology m6 = makeSquareMesh(6); // 36 nodes
    EXPECT_THROW(makeTrafficPattern(TrafficKind::BitReversal, m6),
                 ConfigError);
    EXPECT_THROW(makeTrafficPattern(TrafficKind::PerfectShuffle, m6),
                 ConfigError);
    EXPECT_THROW(makeTrafficPattern(TrafficKind::BitComplement, m6),
                 ConfigError);
}

TEST(PatternErrors, HotspotValidatesOptions)
{
    const Topology m = makeSquareMesh(4);
    HotspotOptions bad_node;
    bad_node.hotspots = {1000};
    EXPECT_THROW(makeTrafficPattern(TrafficKind::Hotspot, m, bad_node),
                 ConfigError);
    HotspotOptions bad_frac;
    bad_frac.fraction = 1.5;
    EXPECT_THROW(makeTrafficPattern(TrafficKind::Hotspot, m, bad_frac),
                 ConfigError);
}

TEST(PatternPermutation, AllBitPatternsArePermutations)
{
    // Property: every deterministic pattern is a permutation on its
    // injecting set (no two sources share a destination).
    const Topology m = makeSquareMesh(16);
    Rng rng(2);
    for (TrafficKind kind :
         {TrafficKind::Transpose, TrafficKind::BitReversal,
          TrafficKind::PerfectShuffle, TrafficKind::BitComplement,
          TrafficKind::Tornado, TrafficKind::Neighbor}) {
        const TrafficPatternPtr p = makeTrafficPattern(kind, m);
        std::map<NodeId, NodeId> dest_of;
        for (NodeId s = 0; s < m.numNodes(); ++s) {
            const NodeId d = p->pick(s, rng);
            if (d == kInvalidNode)
                continue;
            for (const auto& [s2, d2] : dest_of)
                EXPECT_NE(d, d2) << enumName(kind);
            dest_of[s] = d;
        }
    }
}

} // namespace
} // namespace lapses
