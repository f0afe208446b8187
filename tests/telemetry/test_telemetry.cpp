/**
 * @file
 * Tests for the telemetry subsystem's determinism contract (DESIGN.md
 * "Telemetry determinism contract"): enabling windowed metrics, span
 * export or any window size must leave every statistic byte-identical,
 * under both kernels, while the sampled windows themselves land at
 * exact boundaries even across idle fast-forward.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "network/tracer.hpp"
#include "stats/report.hpp"
#include "telemetry/telemetry.hpp"

namespace lapses
{
namespace
{

/** The golden-stats scenario: small, fast, unsaturated, fixed seed. */
SimConfig
telemetryBase()
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

/** Run one point, optionally with a telemetry buffer attached;
 *  returns (stats JSON, telemetry JSONL). */
std::pair<std::string, std::string>
runWithTelemetry(SimConfig cfg, bool attach_buffer)
{
    Simulation sim(cfg);
    std::unique_ptr<TelemetryBuffer> buffer;
    if (attach_buffer) {
        buffer = std::make_unique<TelemetryBuffer>(
            sim.topology().numNodes(), sim.topology().numPorts());
        sim.network().attachTelemetryBuffer(buffer.get());
    }
    const SimStats stats = sim.run();
    std::ostringstream telem;
    if (buffer != nullptr)
        buffer->writeJsonl(telem);
    return {statsToJson(stats), telem.str()};
}

TEST(TelemetryDeterminism, StatsByteIdenticalAcrossWindowSizes)
{
    const std::string off =
        runWithTelemetry(telemetryBase(), false).first;
    for (Cycle window : {Cycle{1}, Cycle{7}, Cycle{64}, Cycle{1000}}) {
        SimConfig cfg = telemetryBase();
        cfg.telemetryWindow = window;
        // Counters + wake source alone, then with the buffer attached:
        // neither may move a single stats byte.
        EXPECT_EQ(runWithTelemetry(cfg, false).first, off)
            << "window " << window << " (no buffer)";
        EXPECT_EQ(runWithTelemetry(cfg, true).first, off)
            << "window " << window << " (buffer attached)";
    }
}

TEST(TelemetryDeterminism, SpanExportLeavesStatsIdentical)
{
    const std::string off =
        runWithTelemetry(telemetryBase(), false).first;
    SimConfig cfg = telemetryBase();
    Simulation sim(cfg);
    FlitTracer tracer(1 << 14);
    std::ostringstream spans;
    tracer.enableSpanExport(spans, 1, 5);
    sim.network().setTracer(&tracer);
    EXPECT_EQ(statsToJson(sim.run()), off);
    EXPECT_GT(tracer.spansExported(), 0u);
}

TEST(TelemetryDeterminism, CrossKernelLockstepWithTelemetryOn)
{
    SimConfig base = telemetryBase();
    base.telemetryWindow = 7;

    SimConfig scan_cfg = base;
    scan_cfg.kernel = KernelKind::Scan;
    SimConfig active_cfg = base;
    active_cfg.kernel = KernelKind::Active;

    Simulation scan(scan_cfg);
    Simulation active(active_cfg);
    TelemetryBuffer scan_buf(scan.topology().numNodes(),
                             scan.topology().numPorts());
    TelemetryBuffer active_buf(active.topology().numNodes(),
                               active.topology().numPorts());
    scan.network().attachTelemetryBuffer(&scan_buf);
    active.network().attachTelemetryBuffer(&active_buf);

    const std::string scan_stats = statsToJson(scan.run());
    const std::string active_stats = statsToJson(active.run());
    EXPECT_EQ(scan_stats, active_stats);
    EXPECT_EQ(scan.network().now(), active.network().now());

    // The telemetry stream itself must be byte-identical too: the
    // active kernel's skipped idle steps contribute exactly the zeros
    // the scan kernel adds explicitly.
    ASSERT_EQ(scan_buf.windows(), active_buf.windows());
    ASSERT_GT(scan_buf.windows(), 0u);
    std::ostringstream scan_rows;
    std::ostringstream active_rows;
    scan_buf.writeJsonl(scan_rows);
    active_buf.writeJsonl(active_rows);
    EXPECT_EQ(scan_rows.str(), active_rows.str());
}

TEST(TelemetryDeterminism, WindowBoundariesExactUnderFastForward)
{
    // Near-idle network on the active kernel: long stretches are
    // fast-forwarded, yet every window boundary must still be hit
    // exactly — the boundary is a wake source like fault events.
    SimConfig cfg = telemetryBase();
    cfg.normalizedLoad = 0.005;
    cfg.telemetryWindow = 33;
    cfg.kernel = KernelKind::Active;
    Simulation sim(cfg);
    TelemetryBuffer buffer(sim.topology().numNodes(),
                           sim.topology().numPorts());
    sim.network().attachTelemetryBuffer(&buffer);
    sim.stepCycles(1000);

    // Boundaries 33, 66, ..., 990: exactly 30 complete windows, one
    // row per node each.
    EXPECT_EQ(buffer.windows(), 30u);
    EXPECT_EQ(buffer.rows(),
              30u * static_cast<std::size_t>(
                        sim.topology().numNodes()));
    EXPECT_GT(sim.network().kernelCounters().fastForwardedCycles, 0u)
        << "scenario too busy to exercise fast-forward";
}

TEST(Telemetry, AttachWithoutWindowThrows)
{
    Simulation sim(telemetryBase()); // telemetryWindow = 0
    TelemetryBuffer buffer(sim.topology().numNodes(),
                           sim.topology().numPorts());
    EXPECT_THROW(sim.network().attachTelemetryBuffer(&buffer),
                 ConfigError);
}

TEST(Telemetry, BufferEmitsPerWindowDeltas)
{
    TelemetryBuffer buffer(2, 3);
    RouterTelemetry cum(3);

    cum.flitsOut = {5, 0, 2};
    cum.vcOccupancyTime = {10, 0, 0};
    cum.arbStalls = 4;
    cum.creditStarvedCycles = 1;
    buffer.beginWindow(0, 100);
    buffer.sample(0, cum, 7);

    cum.flitsOut = {9, 1, 2};
    cum.vcOccupancyTime = {25, 0, 3};
    cum.arbStalls = 4;
    cum.creditStarvedCycles = 3;
    buffer.beginWindow(100, 200);
    buffer.sample(0, cum, 0);

    std::ostringstream os;
    buffer.writeJsonl(os);
    EXPECT_EQ(os.str(),
              "{\"window_start\":0,\"window_end\":100,\"node\":0,"
              "\"flits_out\":[5,0,2],\"vc_occupancy_time\":[10,0,0],"
              "\"arb_stalls\":4,\"credit_starved\":1,"
              "\"nic_backlog\":7}\n"
              "{\"window_start\":100,\"window_end\":200,\"node\":0,"
              "\"flits_out\":[4,1,0],\"vc_occupancy_time\":[15,0,3],"
              "\"arb_stalls\":0,\"credit_starved\":2,"
              "\"nic_backlog\":0}\n");

    EXPECT_EQ(buffer.csvHeader(),
              "window_start,window_end,node,flits_out_p0,flits_out_p1,"
              "flits_out_p2,vc_occupancy_time_p0,vc_occupancy_time_p1,"
              "vc_occupancy_time_p2,arb_stalls,credit_starved,"
              "nic_backlog");
    std::ostringstream csv;
    buffer.writeCsv(csv);
    EXPECT_EQ(csv.str(),
              buffer.csvHeader() +
                  "\n0,100,0,5,0,2,10,0,0,4,1,7\n"
                  "100,200,0,4,1,0,15,0,3,0,2,0\n");
}

TEST(SpanExport, HandTracedTwoNodePath)
{
    // One 2-flit message, one hop, contention-free LA-PROUD timing:
    // head injects at 10, arrives at 15, tail ejects at 21. The
    // transfer time is (1 hop arrival + 1) * 5 + tail seq 1 = 11,
    // exactly the observed network time, so queueing is 0.
    FlitTracer tracer(16);
    std::ostringstream os;
    tracer.enableSpanExport(os, 1, 5);
    tracer.record({10, TraceEvent::Kind::Inject, 0, kLocalPort, 0, 0,
                   FlitType::Head});
    tracer.record({15, TraceEvent::Kind::HopArrive, 1, 3, 0, 0,
                   FlitType::Head});
    tracer.record({20, TraceEvent::Kind::Eject, 1, kInvalidPort, 0, 0,
                   FlitType::Head});
    tracer.record({21, TraceEvent::Kind::Eject, 1, kInvalidPort, 0, 1,
                   FlitType::Tail});
    EXPECT_EQ(tracer.spansExported(), 1u);
    EXPECT_EQ(os.str(),
              "{\"msg\":0,\"src\":0,\"dst\":1,\"flits\":2,"
              "\"inject_cycle\":10,\"eject_cycle\":21,"
              "\"hops\":[{\"node\":1,\"port\":3,\"cycle\":15}],"
              "\"network_cycles\":11,\"transfer_cycles\":11,"
              "\"queueing_cycles\":0}\n");
}

TEST(SpanExport, SamplingFilterAndFragments)
{
    FlitTracer tracer(16);
    std::ostringstream os;
    tracer.enableSpanExport(os, 2, 5);
    // msg 1 is filtered out by id % 2 != 0.
    tracer.record({0, TraceEvent::Kind::Inject, 0, kLocalPort, 1, 0,
                   FlitType::Head});
    tracer.record({11, TraceEvent::Kind::Eject, 1, kInvalidPort, 1, 0,
                   FlitType::HeadTail});
    // msg 2's tail without a seen injection: a fragment, skipped.
    tracer.record({20, TraceEvent::Kind::Eject, 1, kInvalidPort, 2, 1,
                   FlitType::Tail});
    EXPECT_EQ(tracer.spansExported(), 0u);
    EXPECT_TRUE(os.str().empty());
    // msg 4 passes the filter (single-flit message: HeadTail closes
    // the span it opened).
    tracer.record({30, TraceEvent::Kind::Inject, 0, kLocalPort, 4, 0,
                   FlitType::HeadTail});
    tracer.record({41, TraceEvent::Kind::Eject, 2, kInvalidPort, 4, 0,
                   FlitType::HeadTail});
    EXPECT_EQ(tracer.spansExported(), 1u);
    EXPECT_NE(os.str().find("\"msg\":4"), std::string::npos);
}

TEST(SpanExport, SimulatedSpansMatchManhattanPaths)
{
    // At light load some message meets no contention, so the smallest
    // queueing time is exactly 0 when the per-hop cost counts the link
    // delay, at unit delay and beyond.
    for (const Cycle link_delay : {Cycle{1}, Cycle{3}}) {
        SCOPED_TRACE("link delay " + std::to_string(link_delay));
        SimConfig cfg;
        cfg.radices = {4, 4};
        cfg.msgLen = 3;
        cfg.normalizedLoad = 0.02;
        cfg.linkDelay = link_delay;
        Simulation sim(cfg);
        FlitTracer tracer(1 << 18);
        std::ostringstream os;
        tracer.enableSpanExport(os, 1, contentionFreeHopCycles(cfg));
        sim.network().setTracer(&tracer);
        sim.stepCycles(4000);
        ASSERT_GT(tracer.spansExported(), 20u);

        const Topology topo = makeSquareMesh(4);
        std::istringstream lines(os.str());
        std::string line;
        std::size_t checked = 0;
        long long min_queueing = std::numeric_limits<long long>::max();
        while (std::getline(lines, line)) {
            unsigned long long msg = 0;
            int src = 0;
            int dst = 0;
            int flits = 0;
            ASSERT_EQ(std::sscanf(line.c_str(),
                                  "{\"msg\":%llu,\"src\":%d,\"dst\":%d,"
                                  "\"flits\":%d",
                                  &msg, &src, &dst, &flits),
                      4)
                << line;
            EXPECT_EQ(flits, cfg.msgLen) << line;
            // One hop-arrival record per router on the path.
            std::size_t hops = 0;
            for (std::size_t pos = line.find("{\"node\":");
                 pos != std::string::npos;
                 pos = line.find("{\"node\":", pos + 1))
                ++hops;
            EXPECT_EQ(static_cast<int>(hops),
                      topo.distance(static_cast<NodeId>(src),
                                    static_cast<NodeId>(dst)))
                << line;
            // Transfer never exceeds the observed network time: the
            // split is contention-free cost + nonnegative queueing.
            const std::string key = "\"queueing_cycles\":";
            const std::size_t at = line.find(key);
            ASSERT_NE(at, std::string::npos) << line;
            const long long queueing =
                std::strtoll(line.c_str() + at + key.size(), nullptr, 10);
            EXPECT_GE(queueing, 0) << line;
            min_queueing = std::min(min_queueing, queueing);
            ++checked;
        }
        EXPECT_EQ(checked, tracer.spansExported());
        EXPECT_EQ(min_queueing, 0);
    }
}

} // namespace
} // namespace lapses
