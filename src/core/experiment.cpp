#include "core/experiment.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <thread>

#include "common/assert.hpp"
#include "core/simulation.hpp"
#include "exp/campaign.hpp"
#include "exp/result_sink.hpp"

namespace lapses
{

std::vector<SweepPoint>
runLoadSweep(SimConfig base, const std::vector<double>& loads,
             const std::function<void(const SweepPoint&)>& progress)
{
    // Thin wrapper over the campaign engine: one series (the load
    // axis), executed in ascending order with the saturated tail
    // marked, not simulated (the paper prints "Sat." there). Seeds are
    // not derived per point: a sweep reuses base.seed for every load,
    // matching the single-run CLI semantics.
    CampaignGrid grid;
    grid.base = base;
    grid.axes.loads = loads;
    grid.deriveSeeds = false;

    CampaignOptions opts;
    opts.jobs = 1; // one series; parallelism lives across series
    if (progress) {
        opts.progress = [&progress](const RunResult& r) {
            SweepPoint pt;
            pt.load = r.run.config.normalizedLoad;
            pt.stats = r.stats;
            progress(pt);
        };
    }

    std::vector<SweepPoint> points;
    points.reserve(loads.size());
    for (const RunResult& r : runCampaign(grid.expand(), opts)) {
        SweepPoint pt;
        pt.load = r.run.config.normalizedLoad;
        pt.stats = r.stats;
        points.push_back(std::move(pt));
    }
    return points;
}

BenchMode
benchModeFromEnv()
{
    const char* env = std::getenv("LAPSES_BENCH_MODE");
    if (env == nullptr || *env == '\0')
        return BenchMode::Default;
    // A typo ("Paper", "papers") would silently run default scale
    // while the user believes they got the paper's 10k/400k; reject
    // like LAPSES_KERNEL does.
    return parseEnum<BenchMode>("LAPSES_BENCH_MODE", env);
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

unsigned
benchJobsFromEnv()
{
    const char* env = std::getenv("LAPSES_JOBS");
    unsigned jobs = 0;
    if (env != nullptr && *env != '\0') {
        jobs = static_cast<unsigned>(parseCheckedInt(
            "LAPSES_JOBS", env, 0, std::numeric_limits<int>::max()));
    }
    return resolveJobs(jobs);
}

namespace
{

/** Campaign shard for grid-driven benches, from LAPSES_SHARD="k/M"
 *  (unset -> the whole campaign); ConfigError on a malformed value. */
ShardSpec
benchShardFromEnv()
{
    const char* env = std::getenv("LAPSES_SHARD");
    if (env == nullptr || *env == '\0')
        return {};
    return parseShardSpec(env);
}

} // namespace

bool
runBenchShardFromEnv(const std::vector<CampaignGrid>& grids,
                     const char* tag)
{
    ShardSpec shard;
    try {
        shard = benchShardFromEnv();
    } catch (const ConfigError& e) {
        // Bench main()s have no exception handler; die cleanly.
        std::fprintf(stderr, "%s: %s\n", tag, e.what());
        std::exit(1);
    }
    if (shard.isAll())
        return false;

    CampaignOptions opts;
    opts.jobs = benchJobsFromEnv();
    opts.shard = shard;
    opts.progress = [tag, &shard](const RunResult& r) {
        std::fprintf(stderr, "[%s %s] run %zu: %s\n", tag,
                     shard.str().c_str(), r.run.index,
                     r.run.config.describe().c_str());
    };
    JsonlSink sink(std::cout);
    runCampaign(expandGrids(grids), opts, {&sink});
    std::fprintf(stderr,
                 "[%s] shard %s done; merge the shards with "
                 "lapses-merge\n",
                 tag, shard.str().c_str());
    return true;
}

double
parseCheckedDouble(const std::string& flag, const std::string& value,
                   double lo, double hi)
{
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
        throw ConfigError("bad " + flag + " value '" + value +
                          "' (not a number)");
    }
    // Negated form so NaN (which compares false to both bounds) is
    // rejected too.
    if (!(v >= lo && v <= hi)) {
        char range[64];
        std::snprintf(range, sizeof(range), "[%g, %g]", lo, hi);
        throw ConfigError("bad " + flag + " value '" + value +
                          "' (want a number in " + range + ")");
    }
    return v;
}

int
parseCheckedInt(const std::string& flag, const std::string& value,
                int lo, int hi)
{
    char* end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
        throw ConfigError("bad " + flag + " value '" + value +
                          "' (not an integer)");
    }
    if (v < lo || v > hi) {
        throw ConfigError("bad " + flag + " value '" + value +
                          "' (want an integer in [" +
                          std::to_string(lo) + ", " +
                          std::to_string(hi) + "])");
    }
    return static_cast<int>(v);
}

std::uint64_t
parseCheckedU64(const std::string& flag, const std::string& value)
{
    // Digits-only up front: strtoull would silently negate "-1" to
    // ULLONG_MAX and skip leading whitespace.
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
        throw ConfigError("bad " + flag + " value '" + value +
                          "' (want a non-negative integer)");
    }
    errno = 0;
    const unsigned long long v =
        std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE) {
        throw ConfigError("bad " + flag + " value '" + value +
                          "' (out of range)");
    }
    return static_cast<std::uint64_t>(v);
}

std::vector<double>
parseLoadRange(const std::string& flag, const std::string& spec)
{
    double lo = 0.0;
    double hi = 0.0;
    double step = 0.0;
    int used = -1; // %n: the whole token must parse
    if (std::sscanf(spec.c_str(), "%lf:%lf:%lf%n", &lo, &hi, &step,
                    &used) != 3 ||
        used != static_cast<int>(spec.size()) || !std::isfinite(lo) ||
        !std::isfinite(hi) || !std::isfinite(step) || lo <= 0.0 ||
        step <= 0.0 || hi < lo) {
        throw ConfigError("bad " + flag + " value '" + spec +
                          "' (want LO:HI:STEP, three finite numbers "
                          "with LO > 0, STEP > 0 and HI >= LO)");
    }
    std::vector<double> loads;
    for (double x = lo; x <= hi + 1e-9; x += step)
        loads.push_back(x);
    return loads;
}

std::vector<int>
parseMeshRadices(const std::string& flag, const std::string& spec)
{
    const auto bad = [&](const std::string& why) {
        return ConfigError("bad " + flag + " value '" + spec + "' (" +
                           why + "; want KxK[xK], each K an integer " +
                           ">= 2)");
    };
    std::vector<int> radices;
    std::size_t pos = 0;
    for (;;) {
        std::size_t next = spec.find('x', pos);
        if (next == std::string::npos)
            next = spec.size();
        const std::string part = spec.substr(pos, next - pos);
        if (part.empty())
            throw bad("empty radix");
        // Digits only: atoi/strtol would accept a sign, leading
        // whitespace and trailing garbage ("16abc" -> 16).
        if (part.find_first_not_of("0123456789") != std::string::npos)
            throw bad("radix '" + part + "' is not an integer");
        errno = 0;
        const unsigned long long k =
            std::strtoull(part.c_str(), nullptr, 10);
        if (errno == ERANGE ||
            k > static_cast<unsigned long long>(
                    std::numeric_limits<int>::max())) {
            throw bad("radix '" + part + "' is out of range");
        }
        if (k < 2)
            throw bad("radix '" + part + "' is below 2");
        radices.push_back(static_cast<int>(k));
        if (next == spec.size())
            return radices;
        pos = next + 1;
    }
}

void
applyBenchMode(SimConfig& cfg, BenchMode mode)
{
    switch (mode) {
      case BenchMode::Quick:
        cfg.warmupMessages = 200;
        cfg.measureMessages = 2000;
        break;
      case BenchMode::Default:
        cfg.warmupMessages = 800;
        cfg.measureMessages = 8000;
        break;
      case BenchMode::Paper:
        cfg.warmupMessages = 10000;   // Section 2.2
        cfg.measureMessages = 400000; // Section 2.2
        break;
    }
}

std::string
latencyCell(const SimStats& stats)
{
    if (stats.saturated)
        return "Sat.";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", stats.meanLatency());
    return std::string(buf);
}

} // namespace lapses
