/**
 * @file
 * lapses-sim: command-line driver for the LAPSES network simulator.
 *
 * Run a single point:
 *   lapses-sim --traffic transpose --load 0.3 --selector max-credit
 *
 * Sweep loads and emit CSV (plot Fig. 5/6-style curves directly):
 *   lapses-sim --traffic bit-reversal --sweep 0.1:0.8:0.1 --csv out.csv
 *
 * Every option has the paper's Table 2 value as its default; run with
 * --help for the full list.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/lapses.hpp"
#include "exp/config_fields.hpp"
#include "network/tracer.hpp"
#include "stats/report.hpp"
#include "telemetry/telemetry.hpp"

namespace
{

using namespace lapses;

void
printHelp()
{
    std::printf(
        "lapses-sim -- LAPSES adaptive-router network simulator\n"
        "\n"
        "%s"
        "\n"
        "Telemetry / tracing (README \"Telemetry & tracing\"; single\n"
        "point only, not --sweep):\n"
        "  --telemetry-out FILE per-window per-node metrics, JSONL\n"
        "                       (CSV when FILE ends in .csv);\n"
        "                       needs --telemetry-window\n"
        "  --trace-out FILE     per-message lifecycle spans, JSONL\n"
        "  --trace-capacity N   tracer event ring size      [65536]\n"
        "  --trace-sample N     export every Nth message id     [1]\n"
        "  --profile            print per-phase kernel wall-clock\n"
        "                       times after the run\n"
        "\n"
        "Output / sweeps:\n"
        "  --sweep LO:HI:STEP   sweep normalized load\n"
        "  --csv FILE           write results as CSV\n"
        "  --json               print the point as JSON\n"
        "  --quiet              suppress the human-readable line\n"
        "  --help               this text\n",
        configFlagHelp(FlagSet::Sim).c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    SimConfig cfg;
    cfg.warmupMessages = 1000;
    cfg.measureMessages = 10000;
    std::vector<double> sweep;
    std::string csv_path;
    bool as_json = false;
    bool quiet = false;
    std::string telemetry_out;
    std::string trace_out;
    std::uint64_t trace_capacity = 65536;
    std::uint64_t trace_sample = 1;
    bool profile = false;

    try {
        // LAPSES_BENCH_MODE selects the measurement scale here
        // exactly like it does for the benches (paper = Section 2.2's
        // 10k/400k); explicit --mode/--warmup/--measure flags
        // override it, typos are rejected.
        if (std::getenv("LAPSES_BENCH_MODE") != nullptr)
            applyBenchMode(cfg, benchModeFromEnv());
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&] { return flagValue(argc, argv, i); };
            if (consumeConfigFlag(argc, argv, i, cfg, FlagSet::Sim)) {
                continue;
            } else if (arg == "--help" || arg == "-h") {
                printHelp();
                return 0;
            } else if (arg == "--telemetry-out") {
                telemetry_out = value();
            } else if (arg == "--trace-out") {
                trace_out = value();
            } else if (arg == "--trace-capacity") {
                trace_capacity = parseCheckedU64(arg, value());
                if (trace_capacity == 0)
                    throw ConfigError("--trace-capacity must be >= 1");
            } else if (arg == "--trace-sample") {
                trace_sample = parseCheckedU64(arg, value());
                if (trace_sample == 0)
                    throw ConfigError("--trace-sample must be >= 1");
            } else if (arg == "--profile") {
                profile = true;
            } else if (arg == "--sweep") {
                sweep = parseLoadRange(arg, value());
            } else if (arg == "--csv") {
                csv_path = value();
            } else if (arg == "--json") {
                as_json = true;
            } else if (arg == "--quiet") {
                quiet = true;
            } else {
                throw ConfigError("unknown option '" + arg +
                                  "' (see --help)");
            }
        }

        if (!telemetry_out.empty() && cfg.telemetryWindow == 0) {
            throw ConfigError(
                "--telemetry-out needs --telemetry-window N (> 0)");
        }
        if (!sweep.empty() &&
            (!telemetry_out.empty() || !trace_out.empty() ||
             profile)) {
            throw ConfigError(
                "--telemetry-out/--trace-out/--profile apply to a "
                "single point, not --sweep");
        }

        std::vector<SweepSeries> series(1);
        series[0].label = cfg.describe();

        if (sweep.empty()) {
            cfg.validate();
            Simulation sim(cfg);

            // Pure observers: none of these change a single statistic
            // (DESIGN.md "Telemetry determinism contract").
            std::unique_ptr<TelemetryBuffer> telem;
            std::ofstream telem_os;
            if (!telemetry_out.empty()) {
                telem_os.open(telemetry_out);
                if (!telem_os)
                    throw ConfigError("cannot open " + telemetry_out);
                telem = std::make_unique<TelemetryBuffer>(
                    sim.topology().numNodes(),
                    sim.topology().numPorts());
                sim.network().attachTelemetryBuffer(telem.get());
            }
            std::unique_ptr<FlitTracer> tracer;
            std::ofstream trace_os;
            if (!trace_out.empty()) {
                trace_os.open(trace_out);
                if (!trace_os)
                    throw ConfigError("cannot open " + trace_out);
                tracer = std::make_unique<FlitTracer>(
                    static_cast<std::size_t>(trace_capacity));
                tracer->enableSpanExport(
                    trace_os, trace_sample,
                    static_cast<Cycle>(
                        contentionFreeHopCycles(cfg.model)));
                sim.network().setTracer(tracer.get());
            }
            if (profile)
                sim.network().setProfiling(true);

            const SimStats stats = sim.run();

            if (telem != nullptr) {
                const bool telem_csv =
                    telemetry_out.size() >= 4 &&
                    telemetry_out.compare(telemetry_out.size() - 4, 4,
                                          ".csv") == 0;
                if (telem_csv)
                    telem->writeCsv(telem_os);
                else
                    telem->writeJsonl(telem_os);
                if (!quiet) {
                    std::printf("wrote %zu telemetry rows (%zu "
                                "windows) to %s\n",
                                telem->rows(), telem->windows(),
                                telemetry_out.c_str());
                }
            }
            if (tracer != nullptr && !quiet) {
                std::printf(
                    "wrote %llu message spans to %s\n",
                    static_cast<unsigned long long>(
                        tracer->spansExported()),
                    trace_out.c_str());
            }
            if (profile) {
                const KernelProfile& prof =
                    sim.network().kernelProfile();
                const Network::KernelCounters& kc =
                    sim.network().kernelCounters();
                std::printf(
                    "kernel profile (%s kernel, wall-clock):\n"
                    "  wire drain    %9.3f ms  (%llu events)\n"
                    "  boundary drain%9.3f ms  (coordinator, serial)\n"
                    "  intra deliver %9.3f ms  (summed over shards)\n"
                    "  NIC stepping  %9.3f ms  (%llu steps)\n"
                    "  router steps  %9.3f ms  (%llu steps)\n"
                    "  barrier wait  %9.3f ms  (coordinator)\n"
                    "  fault events  %9.3f ms\n"
                    "  telemetry     %9.3f ms\n"
                    "  total timed   %9.3f ms  (%llu cycles "
                    "fast-forwarded)\n",
                    kernelKindName(sim.network().kernel()),
                    prof.wireDrainSeconds * 1e3,
                    static_cast<unsigned long long>(
                        kc.wireEventsDelivered),
                    prof.boundaryDrainSeconds * 1e3,
                    prof.intraDeliverySeconds * 1e3,
                    prof.nicStepSeconds * 1e3,
                    static_cast<unsigned long long>(kc.nicSteps),
                    prof.routerStepSeconds * 1e3,
                    static_cast<unsigned long long>(kc.routerSteps),
                    prof.barrierWaitSeconds * 1e3,
                    prof.faultSeconds * 1e3,
                    prof.telemetrySeconds * 1e3,
                    prof.totalSeconds() * 1e3,
                    static_cast<unsigned long long>(
                        kc.fastForwardedCycles));
                // Amdahl view: phases the coordinator runs alone vs
                // the timed total. NIC/router stepping and intra
                // delivery are the parallel portion (their seconds sum
                // worker CPU time across shards). Scan steps everything
                // on one thread, so it has no serial fraction.
                const double total = prof.totalSeconds();
                if (sim.network().kernel() != KernelKind::Scan &&
                    total > 0.0) {
                    std::printf(
                        "  serial fraction %.1f%% (boundary drain + "
                        "barrier wait + fault + telemetry)\n",
                        100.0 * prof.serialSeconds() / total);
                }
                const std::size_t shards =
                    sim.network().shardCount();
                if (shards > 1) {
                    std::uint64_t lo =
                        std::numeric_limits<std::uint64_t>::max();
                    std::uint64_t hi = 0;
                    for (std::size_t s = 0; s < shards; ++s) {
                        const Network::KernelCounters& sc =
                            sim.network().shardCounters(s);
                        const std::uint64_t work =
                            sc.nicSteps + sc.routerSteps;
                        lo = std::min(lo, work);
                        hi = std::max(hi, work);
                        std::printf(
                            "  shard %zu stepped %llu components "
                            "(%llu NIC + %llu router), %llu wire "
                            "events\n",
                            s,
                            static_cast<unsigned long long>(work),
                            static_cast<unsigned long long>(
                                sc.nicSteps),
                            static_cast<unsigned long long>(
                                sc.routerSteps),
                            static_cast<unsigned long long>(
                                sc.wireEventsDelivered));
                    }
                    // Warn (measurement only) when shard work is
                    // lopsided enough to cap the parallel speedup;
                    // the floor skips trivially short runs.
                    if (hi > 2 * lo && hi > 10000) {
                        std::fprintf(
                            stderr,
                            "lapses-sim: warning: shard work "
                            "imbalance %llu..%llu stepped components "
                            "(> 2x); the busiest shard bounds the "
                            "parallel speedup\n",
                            static_cast<unsigned long long>(lo),
                            static_cast<unsigned long long>(hi));
                    }
                }
            }

            if (!quiet) {
                std::printf("%s\n  %s\n", cfg.describe().c_str(),
                            stats.summary().c_str());
                const std::string curve = stats.recoveryCurveSummary();
                if (!curve.empty()) {
                    std::printf("  post-fault latency recovery "
                                "(cycles since last fault):\n%s",
                                curve.c_str());
                }
            }
            if (as_json)
                std::printf("%s\n", statsToJson(stats).c_str());
            series[0].loads.push_back(cfg.normalizedLoad);
            series[0].points.push_back(stats);
        } else {
            const auto points = runLoadSweep(
                cfg, sweep, [&](const SweepPoint& pt) {
                    if (!quiet) {
                        std::printf("load %.3f: %s\n", pt.load,
                                    pt.stats.summary().c_str());
                        std::fflush(stdout);
                    }
                });
            for (const SweepPoint& pt : points) {
                series[0].loads.push_back(pt.load);
                series[0].points.push_back(pt.stats);
            }
        }

        if (!csv_path.empty()) {
            std::ofstream os(csv_path);
            if (!os)
                throw ConfigError("cannot open " + csv_path);
            writeSweepCsv(os, series);
            if (!quiet)
                std::printf("wrote %s\n", csv_path.c_str());
        }
    } catch (const ConfigError& e) {
        std::fprintf(stderr, "lapses-sim: %s\n", e.what());
        return 1;
    } catch (const SimulationError& e) {
        std::fprintf(stderr, "lapses-sim: %s\n", e.what());
        return 2;
    }
    return 0;
}
