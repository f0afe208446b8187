/**
 * @file
 * Google-benchmark microbenchmarks for the table-lookup stage — one of
 * the two critical stages the paper's router cycle time depends on
 * (Section 2.2). Compares lookup cost across storage schemes and the
 * sign-computation hardware of economical storage.
 */

#include <benchmark/benchmark.h>

#include "routing/algorithm_factory.hpp"
#include "tables/economical_storage.hpp"
#include "tables/full_table.hpp"
#include "tables/interval_table.hpp"
#include "tables/meta_table.hpp"
#include "tables/table_factory.hpp"

namespace
{

using namespace lapses;

const Topology&
mesh16()
{
    static const Topology topo = makeSquareMesh(16);
    return topo;
}

const RoutingAlgorithm&
duato()
{
    static const RoutingAlgorithmPtr algo =
        makeRoutingAlgorithm(RoutingAlgo::DuatoFullyAdaptive, mesh16());
    return *algo;
}

void
lookupSweep(benchmark::State& state, const RoutingTable& table)
{
    NodeId r = 0;
    NodeId d = 0;
    const NodeId n = table.topology().numNodes();
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(r, d));
        d += 37;
        if (d >= n) {
            d -= n;
            r = (r + 11) % n;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}

void
BM_FullTableLookup(benchmark::State& state)
{
    static const FullTable table(mesh16(), duato());
    lookupSweep(state, table);
}
BENCHMARK(BM_FullTableLookup);

void
BM_EconomicalStorageLookup(benchmark::State& state)
{
    static const EconomicalStorageTable table(mesh16(), duato());
    lookupSweep(state, table);
}
BENCHMARK(BM_EconomicalStorageLookup);

void
BM_MetaTableLookup(benchmark::State& state)
{
    static const MetaTable table(mesh16(), duato(),
                                 ClusterMap::blockMap(mesh16(), 4));
    lookupSweep(state, table);
}
BENCHMARK(BM_MetaTableLookup);

void
BM_IntervalTableLookup(benchmark::State& state)
{
    static const RoutingAlgorithmPtr xy =
        makeRoutingAlgorithm(RoutingAlgo::DeterministicXY, mesh16());
    static const IntervalTable table(mesh16(), *xy);
    lookupSweep(state, table);
}
BENCHMARK(BM_IntervalTableLookup);

void
BM_SignVectorComputation(benchmark::State& state)
{
    // The ES index hardware: two subtractions + sign encode.
    const Topology& m = mesh16();
    NodeId r = 3;
    NodeId d = 250;
    for (auto _ : state) {
        const SignVector sv(m.mesh()->nodeToCoords(r),
                            m.mesh()->nodeToCoords(d));
        benchmark::DoNotOptimize(sv.tableIndex());
        d = (d + 41) % m.numNodes();
    }
}
BENCHMARK(BM_SignVectorComputation);

void
BM_TableProgrammingFull(benchmark::State& state)
{
    // Reprogramming cost (router bring-up / reconfiguration path).
    for (auto _ : state) {
        const FullTable table(mesh16(), duato());
        benchmark::DoNotOptimize(&table);
    }
}
BENCHMARK(BM_TableProgrammingFull)->Unit(benchmark::kMillisecond);

void
BM_TableProgrammingEconomical(benchmark::State& state)
{
    // k x k mesh: 16 is the paper's network; at 64 the exhaustive
    // validation (N^2 route() calls) is what setup waits on.
    const Topology mesh = makeSquareMesh(static_cast<int>(state.range(0)));
    const RoutingAlgorithmPtr algo =
        makeRoutingAlgorithm(RoutingAlgo::DuatoFullyAdaptive, mesh);
    for (auto _ : state) {
        const EconomicalStorageTable table(mesh, *algo);
        benchmark::DoNotOptimize(&table);
    }
}
BENCHMARK(BM_TableProgrammingEconomical)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
