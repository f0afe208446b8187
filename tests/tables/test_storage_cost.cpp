/**
 * @file
 * Unit tests for the storage-cost model behind paper Table 5, plus the
 * table factory.
 */

#include <gtest/gtest.h>

#include "routing/algorithm_factory.hpp"
#include "tables/storage_cost.hpp"
#include "tables/table_factory.hpp"

namespace lapses
{
namespace
{

TEST(StorageCost, FullTableScalesWithN)
{
    const Topology m16 = makeSquareMesh(16);
    const StorageCost c = fullTableCost(m16, {true, false});
    EXPECT_EQ(c.entriesPerRouter, 256u);
    const Topology m32 = makeSquareMesh(32);
    EXPECT_EQ(fullTableCost(m32, {true, false}).entriesPerRouter, 1024u);
}

TEST(StorageCost, EconomicalStorageIsConstant)
{
    // The paper's headline: 9 entries for 2-D, 27 for 3-D, independent
    // of network size.
    for (int k : {8, 16, 32}) {
        const Topology m = makeSquareMesh(k);
        EXPECT_EQ(economicalStorageCost(m, {true, false})
                      .entriesPerRouter,
                  9u);
    }
    const Topology m3 = makeCubeMesh(8);
    EXPECT_EQ(economicalStorageCost(m3, {true, false}).entriesPerRouter,
              27u);
}

TEST(StorageCost, T3DExampleReduction)
{
    // Section 5.2.1: "the 2048 node 3-D interconnect in Cray T3D uses
    // a 2048 entry routing table, which could be reduced to a 27 entry
    // table".
    const Topology t3d = makeMeshTopology({16, 16, 8}, false);
    EXPECT_EQ(t3d.numNodes(), 2048);
    EXPECT_EQ(fullTableCost(t3d, {true, false}).entriesPerRouter, 2048u);
    EXPECT_EQ(economicalStorageCost(t3d, {true, false}).entriesPerRouter,
              27u);
}

TEST(StorageCost, MetaTableIsTwoLevels)
{
    // 2-level meta table with sqrt(N) clusters: m * N^(1/m) per level.
    const Topology m = makeSquareMesh(16);
    const StorageCost c = metaTableCost(m, 16, {true, false});
    EXPECT_EQ(c.entriesPerRouter, 32u); // 16 cluster + 16 local
    EXPECT_LT(c.entriesPerRouter,
              fullTableCost(m, {true, false}).entriesPerRouter);
}

TEST(StorageCost, IntervalIsPortCount)
{
    const Topology m = makeSquareMesh(16);
    const StorageCost c = intervalCost(m);
    EXPECT_EQ(c.entriesPerRouter, 5u);
}

TEST(StorageCost, AdaptiveEntriesCostMoreThanDeterministic)
{
    const Topology m = makeSquareMesh(16);
    EXPECT_GT(entryBits(m, {true, false}), entryBits(m, {false, false}));
}

TEST(StorageCost, LookaheadExpandsAdaptiveEntries)
{
    // Fig. 4(b): adaptive look-ahead stores next-router options per
    // candidate (n^2 fields vs n).
    const Topology m = makeSquareMesh(16);
    EXPECT_GT(entryBits(m, {true, true}), entryBits(m, {true, false}));
    // Deterministic look-ahead still stores a single port.
    EXPECT_EQ(entryBits(m, {false, true}), entryBits(m, {false, false}));
}

TEST(StorageCost, BitsPerRouterOrdering)
{
    // Table 5's qualitative ordering for a large 2-D mesh:
    // interval < ES < meta << full.
    const Topology m = makeSquareMesh(32);
    const TableFeatures f{true, false};
    const auto full = fullTableCost(m, f).bitsPerRouter();
    const auto meta = metaTableCost(m, 32, f).bitsPerRouter();
    const auto es = economicalStorageCost(m, f).bitsPerRouter();
    const auto ival = intervalCost(m).bitsPerRouter();
    EXPECT_LT(ival, full);
    EXPECT_LT(es, meta);
    EXPECT_LT(meta, full);
}

TEST(TableFactory, BuildsEveryKindForDuato)
{
    const Topology m = makeSquareMesh(8);
    const RoutingAlgorithmPtr duato =
        makeRoutingAlgorithm(RoutingAlgo::DuatoFullyAdaptive, m);
    for (TableKind kind :
         {TableKind::Full, TableKind::MetaRowMinimal,
          TableKind::MetaBlockMaximal, TableKind::EconomicalStorage}) {
        const RoutingTablePtr table = makeRoutingTable(kind, m, *duato);
        ASSERT_NE(table, nullptr);
        // Concrete names may refine the kind (e.g. "meta-block2").
        EXPECT_EQ(table->name().rfind(enumName(kind), 0), 0u)
            << table->name() << " vs " << enumName(kind);
        EXPECT_FALSE(table->lookup(0, 9).empty());
    }
}

TEST(TableFactory, IntervalNeedsDeterministic)
{
    const Topology m = makeSquareMesh(8);
    const RoutingAlgorithmPtr duato =
        makeRoutingAlgorithm(RoutingAlgo::DuatoFullyAdaptive, m);
    EXPECT_THROW(makeRoutingTable(TableKind::Interval, m, *duato),
                 ConfigError);
    const RoutingAlgorithmPtr xy =
        makeRoutingAlgorithm(RoutingAlgo::DeterministicXY, m);
    EXPECT_NO_THROW(makeRoutingTable(TableKind::Interval, m, *xy));
}

TEST(TableFactory, BlockEdgeFallsBackOnOddRadix)
{
    // radix 6: 6 % 4 != 0, largest dividing edge is 3.
    const Topology m = makeSquareMesh(6);
    const RoutingAlgorithmPtr duato =
        makeRoutingAlgorithm(RoutingAlgo::DuatoFullyAdaptive, m);
    EXPECT_NO_THROW(
        makeRoutingTable(TableKind::MetaBlockMaximal, m, *duato));
}

} // namespace
} // namespace lapses
