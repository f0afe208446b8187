/**
 * @file
 * Golden-stats regression tests: seeded end-to-end results pinned for
 * one representative configuration per entry in the simulator's
 * catalog — both router models, every routing algorithm, every table
 * scheme, every path selector. A refactor that shifts any of these
 * numbers (event ordering, RNG consumption, arbitration ties, stat
 * accounting) fails here instead of silently bending the paper's
 * figures.
 *
 * The pins are exact products of the deterministic simulation, not
 * physics: when a change *intentionally* alters results (and the new
 * values are vetted against the paper's shapes), regenerate the table
 * with
 *
 *   LAPSES_GOLDEN_REGEN=1 ./lapses_tests \
 *       --gtest_filter='GoldenStats.*'
 *
 * and paste the printed rows over kGolden below.
 *
 * RecordBytesPinned covers what the catalog rows do not: whole
 * statsToJson records, FNV-1a hashed, of faulted, saturated,
 * telemetry and closed-loop runs on an 8x8 mesh. The same variable
 * regenerates its kRecordPins table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "stats/report.hpp"

namespace lapses
{
namespace
{

/** The shared scenario: small, fast, unsaturated, fixed seed. */
SimConfig
goldenBase()
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.2;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 400;
    cfg.seed = 20260727;
    return cfg;
}

/** One named configuration per catalog entry, in pinned order. */
std::vector<std::pair<std::string, SimConfig>>
goldenCases()
{
    std::vector<std::pair<std::string, SimConfig>> cases;
    auto add = [&](const std::string& name, SimConfig cfg) {
        cases.emplace_back(name, std::move(cfg));
    };

    for (RouterModel model :
         {RouterModel::Proud, RouterModel::LaProud}) {
        SimConfig cfg = goldenBase();
        cfg.model = model;
        add("model:" + routerModelName(model), cfg);
    }

    for (RoutingAlgo routing :
         {RoutingAlgo::DeterministicXY, RoutingAlgo::DeterministicYX,
          RoutingAlgo::DuatoFullyAdaptive, RoutingAlgo::NorthLast,
          RoutingAlgo::WestFirst, RoutingAlgo::NegativeFirst,
          RoutingAlgo::TorusAdaptive}) {
        SimConfig cfg = goldenBase();
        cfg.routing = routing;
        if (routing == RoutingAlgo::TorusAdaptive) {
            cfg.torus = true;
            cfg.table = TableKind::Full; // economical is mesh-only
        }
        add("routing:" + routingAlgoName(routing), cfg);
    }

    for (TableKind table :
         {TableKind::Full, TableKind::MetaRowMinimal,
          TableKind::MetaBlockMaximal, TableKind::EconomicalStorage,
          TableKind::Interval}) {
        SimConfig cfg = goldenBase();
        cfg.table = table;
        if (table == TableKind::Interval) // deterministic-only scheme
            cfg.routing = RoutingAlgo::DeterministicXY;
        add("table:" + tableKindName(table), cfg);
    }

    for (SelectorKind selector :
         {SelectorKind::StaticXY, SelectorKind::FirstFree,
          SelectorKind::Random, SelectorKind::MinMux,
          SelectorKind::Lfu, SelectorKind::Lru,
          SelectorKind::MaxCredit}) {
        SimConfig cfg = goldenBase();
        cfg.selector = selector;
        add("selector:" + selectorKindName(selector), cfg);
    }
    return cases;
}

struct GoldenRow
{
    const char* name;
    std::uint64_t delivered;
    double latency;  //!< mean total latency, cycles
    double accepted; //!< accepted flits/node/cycle
};

// LAPSES_GOLDEN_REGEN=1 prints this table fresh (see file header).
const GoldenRow kGolden[] = {
    {"model:proud", 406, 28.2488, 0.200481},
    {"model:la-proud", 406, 25.33, 0.2},
    {"routing:xy", 406, 25.3325, 0.2},
    {"routing:yx", 406, 25.3744, 0.199519},
    {"routing:duato", 406, 25.33, 0.2},
    {"routing:north-last", 406, 25.3325, 0.2},
    {"routing:west-first", 406, 25.3325, 0.2},
    {"routing:negative-first", 406, 25.6576, 0.2},
    {"routing:torus-adaptive", 413, 25.6998, 0.40625},
    {"table:full-table", 406, 25.33, 0.2},
    {"table:meta-row", 406, 25.3916, 0.199519},
    {"table:meta-block", 406, 25.33, 0.2},
    {"table:economical-storage", 406, 25.33, 0.2},
    {"table:interval", 406, 25.3325, 0.2},
    {"selector:static-xy", 406, 25.33, 0.2},
    {"selector:first-free", 406, 25.33, 0.2},
    {"selector:random", 406, 25.7635, 0.200962},
    {"selector:min-mux", 406, 25.4138, 0.2},
    {"selector:lfu", 406, 25.7266, 0.200481},
    {"selector:lru", 406, 25.6404, 0.200481},
    {"selector:max-credit", 406, 25.6527, 0.200481},
};

TEST(GoldenStats, PinnedPerCatalogEntry)
{
    const auto cases = goldenCases();
    const bool regen =
        std::getenv("LAPSES_GOLDEN_REGEN") != nullptr;
    if (!regen) {
        ASSERT_EQ(std::size(kGolden), cases.size())
            << "catalog changed; regenerate the golden table";
    }

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& [name, cfg] = cases[i];
        ASSERT_NO_THROW(cfg.validate()) << name;
        Simulation sim(cfg);
        const SimStats stats = sim.run();

        if (regen) {
            std::printf("    {\"%s\", %llu, %.6g, %.6g},\n",
                        name.c_str(),
                        static_cast<unsigned long long>(
                            stats.deliveredMessages),
                        stats.meanLatency(), stats.acceptedFlitRate);
            continue;
        }

        const GoldenRow& want = kGolden[i];
        EXPECT_EQ(name, want.name) << "catalog order changed";
        EXPECT_FALSE(stats.saturated) << name;
        EXPECT_EQ(stats.deliveredMessages, want.delivered) << name;
        EXPECT_NEAR(stats.meanLatency(), want.latency,
                    1e-4 * want.latency)
            << name;
        EXPECT_NEAR(stats.acceptedFlitRate, want.accepted,
                    1e-4 * want.accepted)
            << name;
    }
}

/** 64-bit FNV-1a of a string. */
std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** The record panel's shared base: an 8x8 mesh with short messages. */
SimConfig
recordBase()
{
    SimConfig cfg;
    cfg.radices = {8, 8};
    cfg.msgLen = 8;
    cfg.normalizedLoad = 0.3;
    cfg.warmupMessages = 300;
    cfg.measureMessages = 2000;
    cfg.seed = 7;
    return cfg;
}

/** Two random link faults inside the measurement window. */
SimConfig
withFaults(SimConfig cfg, FaultPolicy policy)
{
    cfg.faultCount = 2;
    cfg.faultStart = 400;
    cfg.faultSpacing = 300;
    cfg.faultPolicy = policy;
    return cfg;
}

/** A closed-loop run; a short timeout makes faults cost retries. */
SimConfig
closedLoop(SimConfig cfg)
{
    cfg.workload = WorkloadKind::RequestReply;
    cfg.requestTimeout = 400;
    return cfg;
}

/** One run per exit path and statistic family the catalog misses. */
std::vector<std::pair<std::string, SimConfig>>
recordCases()
{
    const SimConfig base = recordBase();
    std::vector<std::pair<std::string, SimConfig>> cases;
    auto add = [&](const std::string& name, SimConfig cfg) {
        cases.emplace_back(name, std::move(cfg));
    };

    // Full tables are reprogrammed around faults; economical storage
    // only masks dead ports.
    SimConfig full = base;
    full.table = TableKind::Full;
    add("open:faults-reinject", withFaults(full, FaultPolicy::Reinject));
    add("open:faults-drop", withFaults(base, FaultPolicy::Drop));

    SimConfig sat = base;
    sat.traffic = TrafficKind::Transpose;
    sat.routing = RoutingAlgo::DeterministicXY;
    sat.normalizedLoad = 0.6;
    sat.measureMessages = 4000; // saturates before the quota is issued
    add("open:transpose-xy-saturated", sat);

    SimConfig telem = base;
    telem.telemetryWindow = 128;
    add("open:telemetry", telem);

    add("closed:healthy", closedLoop(base));
    add("closed:faults-drop",
        withFaults(closedLoop(full), FaultPolicy::Drop));
    add("closed:faults-reinject",
        withFaults(closedLoop(base), FaultPolicy::Reinject));

    SimConfig no_retry = withFaults(closedLoop(base), FaultPolicy::Drop);
    no_retry.maxRetries = 0;
    add("closed:no-retries", no_retry);

    // Two slow servers behind 16-deep windows: the quota is issued,
    // then the drain saturates.
    SimConfig drain_sat = closedLoop(base);
    drain_sat.requestTimeout = 4000;
    drain_sat.inflightWindow = 16;
    drain_sat.serviceTime = 30;
    drain_sat.servers = 2;
    drain_sat.measureMessages = 1450;
    add("closed:drain-saturated", drain_sat);

    SimConfig par = withFaults(closedLoop(full), FaultPolicy::Reinject);
    par.kernel = KernelKind::Parallel;
    par.intraJobs = 3;
    add("closed:faults-parallel3", par);
    return cases;
}

struct RecordPin
{
    const char* name;
    std::uint64_t digest; //!< FNV-1a of statsToJson
};

// LAPSES_GOLDEN_REGEN=1 prints this table fresh (see file header).
const RecordPin kRecordPins[] = {
    {"open:faults-reinject", 0x839f454131bc4122ull},
    {"open:faults-drop", 0xef3e8c8a981d81adull},
    {"open:transpose-xy-saturated", 0x120920cc2db6e993ull},
    {"open:telemetry", 0x5dee998a7f8f947bull},
    {"closed:healthy", 0xa111bd97ca626e43ull},
    {"closed:faults-drop", 0x2c4aad6b0df128fdull},
    {"closed:faults-reinject", 0xcc48fc2869b52aa6ull},
    {"closed:no-retries", 0x5626d4dbd17a275aull},
    {"closed:drain-saturated", 0x15b7e999a0f8618full},
    {"closed:faults-parallel3", 0x233ed4befbed5ed2ull},
};

TEST(GoldenStats, RecordBytesPinned)
{
    const auto cases = recordCases();
    const bool regen =
        std::getenv("LAPSES_GOLDEN_REGEN") != nullptr;
    if (!regen) {
        ASSERT_EQ(std::size(kRecordPins), cases.size())
            << "panel changed; regenerate the record pins";
    }

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& [name, cfg] = cases[i];
        Simulation sim(cfg);
        const std::uint64_t digest = fnv1a(statsToJson(sim.run()));
        if (regen) {
            std::printf("    {\"%s\", 0x%016llxull},\n", name.c_str(),
                        static_cast<unsigned long long>(digest));
            continue;
        }
        EXPECT_EQ(name, kRecordPins[i].name) << "panel order changed";
        EXPECT_EQ(digest, kRecordPins[i].digest) << name;
    }
}

} // namespace
} // namespace lapses
