/**
 * @file
 * Paper-shape regression tests: the comparative results the paper
 * argues from must hold in this reproduction (on a reduced scale so
 * the suite stays fast; the benches reproduce the full figures).
 */

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

SimStats
runPoint(RouterModel model, RoutingAlgo routing, TableKind table,
         SelectorKind selector, TrafficKind traffic, double load,
         int msg_len = 8, std::vector<int> radices = {8, 8})
{
    SimConfig cfg;
    cfg.radices = std::move(radices);
    cfg.model = model;
    cfg.routing = routing;
    cfg.table = table;
    cfg.selector = selector;
    cfg.traffic = traffic;
    cfg.normalizedLoad = load;
    cfg.msgLen = msg_len;
    cfg.warmupMessages = 200;
    cfg.measureMessages = 2500;
    cfg.seed = 7;
    Simulation sim(cfg);
    return sim.run();
}

TEST(PaperShapes, Fig5LookaheadWinsAtLowLoad)
{
    // Section 3.3: LA-ADAPT beats both no-look-ahead routers "by as
    // much as 12-15% when the load is low" (scale-dependent; require
    // a clear gap).
    const SimStats la =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Uniform, 0.1);
    const SimStats nola =
        runPoint(RouterModel::Proud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Uniform, 0.1);
    const double gain =
        (nola.meanLatency() - la.meanLatency()) / la.meanLatency();
    EXPECT_GT(gain, 0.06);
    EXPECT_LT(gain, 0.30);
}

TEST(PaperShapes, Fig5LaDetMatchesLaAdaptAtLowLoad)
{
    // "The LA DET performs almost identical as the LA ADAPT scheme for
    // light load."
    const SimStats adapt =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Uniform, 0.1);
    const SimStats det =
        runPoint(RouterModel::LaProud, RoutingAlgo::DeterministicXY,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Uniform, 0.1);
    EXPECT_NEAR(det.meanLatency() / adapt.meanLatency(), 1.0, 0.03);
}

TEST(PaperShapes, Fig5AdaptivityWinsNonUniformHighLoad)
{
    // "Adaptive algorithms with or without look-ahead show significant
    // performance improvements against deterministic schemes at high
    // load" (transpose).
    const SimStats adapt =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Transpose, 0.35);
    const SimStats det =
        runPoint(RouterModel::LaProud, RoutingAlgo::DeterministicXY,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Transpose, 0.35);
    ASSERT_FALSE(adapt.saturated);
    EXPECT_GT(det.meanLatency(), 1.5 * adapt.meanLatency());
}

TEST(PaperShapes, Table3LookaheadGainShrinksWithMessageLength)
{
    // Table 3: 5-flit messages gain the most, 50-flit the least.
    double prev_gain = 1.0;
    for (int len : {5, 20, 50}) {
        const SimStats la = runPoint(
            RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
            TableKind::Full, SelectorKind::StaticXY,
            TrafficKind::Uniform, 0.2, len);
        const SimStats nola = runPoint(
            RouterModel::Proud, RoutingAlgo::DuatoFullyAdaptive,
            TableKind::Full, SelectorKind::StaticXY,
            TrafficKind::Uniform, 0.2, len);
        const double gain =
            (nola.meanLatency() - la.meanLatency()) / la.meanLatency();
        EXPECT_GT(gain, 0.0) << "len " << len;
        EXPECT_LT(gain, prev_gain) << "len " << len;
        prev_gain = gain;
    }
}

TEST(PaperShapes, Fig6DynamicSelectionBeatsStaticOnTranspose)
{
    // Section 4.2: "the four load sensitive selection schemes perform
    // much better than the static path selection" on non-uniform
    // patterns at medium-high load.
    const SimStats stat =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Transpose, 0.4);
    for (SelectorKind dyn :
         {SelectorKind::MinMux, SelectorKind::Lfu, SelectorKind::Lru,
          SelectorKind::MaxCredit}) {
        const SimStats s = runPoint(
            RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
            TableKind::Full, dyn, TrafficKind::Transpose, 0.4);
        EXPECT_LT(s.meanLatency(), stat.meanLatency())
            << enumName(dyn);
    }
}

TEST(PaperShapes, Fig6StaticIsFineForUniform)
{
    // "The static path selection performs the best for uniform
    // traffic, although MIN-MUX, LRU and MAX-CREDIT are comparable."
    const SimStats stat =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Uniform, 0.4);
    for (SelectorKind dyn : {SelectorKind::Lru, SelectorKind::MaxCredit,
                             SelectorKind::MinMux}) {
        const SimStats s = runPoint(
            RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
            TableKind::Full, dyn, TrafficKind::Uniform, 0.4);
        EXPECT_LT(std::abs(s.meanLatency() - stat.meanLatency()) /
                      stat.meanLatency(),
                  0.10)
            << enumName(dyn);
    }
}

TEST(PaperShapes, Table4EconomicalStorageIdenticalToFullTable)
{
    // Section 5.2.2: "performance of full-table routing and economical
    // storage routing are identical" — in this simulator they are
    // bit-identical: the tables return the same candidates, so the
    // same seed yields the same run.
    for (TrafficKind traffic :
         {TrafficKind::Uniform, TrafficKind::Transpose}) {
        const SimStats full = runPoint(
            RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
            TableKind::Full, SelectorKind::StaticXY, traffic, 0.3);
        const SimStats es = runPoint(
            RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
            TableKind::EconomicalStorage, SelectorKind::StaticXY,
            traffic, 0.3);
        EXPECT_DOUBLE_EQ(full.meanLatency(), es.meanLatency())
            << enumName(traffic);
        EXPECT_EQ(full.deliveredFlits, es.deliveredFlits);
    }
}

TEST(PaperShapes, Table4MetaBlockCongestsOnTranspose)
{
    // Table 4: the maximal-flexibility meta-table map performs far
    // worse than full-table/ES under transpose despite its adaptivity
    // (cluster-boundary congestion). The effect needs the paper's
    // geometry: 4x4 clusters on a 16x16 mesh.
    const SimStats full =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Transpose, 0.25, 8, {16, 16});
    const SimStats meta =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::MetaBlockMaximal, SelectorKind::StaticXY,
                 TrafficKind::Transpose, 0.25, 8, {16, 16});
    ASSERT_FALSE(full.saturated);
    EXPECT_TRUE(meta.saturated ||
                meta.meanLatency() > 2.0 * full.meanLatency());
}

TEST(PaperShapes, EsWithLookaheadIdenticalToFullWithLookahead)
{
    // Section 5.2.1 notes ES composes with look-ahead; in this
    // simulator the LA header payload is generated from the table, so
    // ES and full-table LA runs must be bit-identical too.
    const SimStats full =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::Full, SelectorKind::MaxCredit,
                 TrafficKind::BitReversal, 0.3);
    const SimStats es =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::EconomicalStorage, SelectorKind::MaxCredit,
                 TrafficKind::BitReversal, 0.3);
    EXPECT_DOUBLE_EQ(full.meanLatency(), es.meanLatency());
    EXPECT_DOUBLE_EQ(full.meanNetworkLatency(),
                     es.meanNetworkLatency());
    EXPECT_EQ(full.deliveredFlits, es.deliveredFlits);
}

TEST(PaperShapes, Table4MetaRowActsDeterministic)
{
    // The minimal-flexibility map degenerates to dimension-order: its
    // latency should track deterministic YX, not adaptive routing.
    const SimStats meta_row =
        runPoint(RouterModel::LaProud, RoutingAlgo::DuatoFullyAdaptive,
                 TableKind::MetaRowMinimal, SelectorKind::StaticXY,
                 TrafficKind::Uniform, 0.3);
    const SimStats yx =
        runPoint(RouterModel::LaProud, RoutingAlgo::DeterministicYX,
                 TableKind::Full, SelectorKind::StaticXY,
                 TrafficKind::Uniform, 0.3);
    EXPECT_NEAR(meta_row.meanLatency() / yx.meanLatency(), 1.0, 0.05);
}

} // namespace
} // namespace lapses
