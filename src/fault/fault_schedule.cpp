#include "fault/fault_schedule.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace lapses
{

std::string
FaultEvent::str() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%d:%d@%llu", down ? "" : "+",
                  static_cast<int>(node), static_cast<int>(port),
                  static_cast<unsigned long long>(cycle));
    return buf;
}

FaultEvent
parseFaultEvent(const std::string& spec, bool down)
{
    const auto bad = [&spec]() -> ConfigError {
        return ConfigError("bad fault event '" + spec +
                           "' (want node:port@cycle, e.g. 12:1@2000)");
    };
    const std::size_t colon = spec.find(':');
    const std::size_t at = spec.find('@');
    if (colon == std::string::npos || at == std::string::npos ||
        at < colon) {
        throw bad();
    }
    const auto digits = [](const std::string& s) {
        return !s.empty() &&
               s.find_first_not_of("0123456789") == std::string::npos;
    };
    const std::string node_s = spec.substr(0, colon);
    const std::string port_s = spec.substr(colon + 1, at - colon - 1);
    const std::string cycle_s = spec.substr(at + 1);
    if (!digits(node_s) || !digits(port_s) || !digits(cycle_s))
        throw bad();
    FaultEvent event;
    try {
        const long long node = std::stoll(node_s);
        if (node > std::numeric_limits<NodeId>::max()) {
            // A silent wrap could alias into a valid node id and
            // fail the wrong link; validate() would never notice.
            throw ConfigError("bad fault event '" + spec +
                              "': node id out of range");
        }
        event.node = static_cast<NodeId>(node);
        const long long port = std::stoll(port_s);
        if (port < 1 || port > 127) {
            throw ConfigError("bad fault event '" + spec +
                              "': port must be a non-local port (>= 1)");
        }
        event.port = static_cast<PortId>(port);
        event.cycle = static_cast<Cycle>(std::stoull(cycle_s));
    } catch (const std::out_of_range&) {
        throw bad();
    }
    event.down = down;
    return event;
}

void
FaultSchedule::appendRandom(const Topology& topo, int count,
                            std::uint64_t seed, Cycle start,
                            Cycle spacing)
{
    if (count <= 0)
        return;
    Rng rng(seed);
    // Replay the explicit events up to each generated cycle so the
    // sampler sees the true failure state (validate() re-checks the
    // merged schedule anyway; here we just avoid generating obvious
    // rejects).
    FailureSet failures;
    std::vector<FaultEvent> merged = events_;
    std::sort(merged.begin(), merged.end());
    std::size_t replayed = 0;
    for (int i = 0; i < count; ++i) {
        const Cycle cycle =
            start + static_cast<Cycle>(i) * spacing;
        while (replayed < merged.size() &&
               merged[replayed].cycle <= cycle) {
            const FaultEvent& e = merged[replayed++];
            if (e.down)
                failures.fail(topo, e.node, e.port);
            else
                failures.repair(topo, e.node, e.port);
        }
        // Rejection-sample a failable site: a real link, not already
        // down, whose loss keeps the network connected.
        bool placed = false;
        for (int attempt = 0; attempt < 4096 && !placed; ++attempt) {
            const auto node = static_cast<NodeId>(rng.nextBounded(
                static_cast<std::uint64_t>(topo.numNodes())));
            const auto port = static_cast<PortId>(1 + rng.nextBounded(
                static_cast<std::uint64_t>(topo.numPorts() - 1)));
            if (!topo.hasNeighbor(node, port) ||
                failures.isFailed(node, port)) {
                continue;
            }
            FailureSet trial = failures;
            trial.fail(topo, node, port);
            if (!checkConnectivity(topo, trial).connected)
                continue;
            failures = trial;
            addDown(cycle, node, port);
            placed = true;
        }
        if (!placed) {
            throw ConfigError(
                "could not place random fault " + std::to_string(i) +
                " without cutting the network (too many faults for "
                "this topology?)");
        }
    }
}

void
FaultSchedule::validate(const Topology& topo)
{
    std::sort(events_.begin(), events_.end());
    FailureSet failures;
    for (const FaultEvent& event : events_) {
        if (!topo.contains(event.node)) {
            throw ConfigError("fault event " + event.str() +
                              ": node out of range");
        }
        if (event.port < 1 || event.port >= topo.numPorts() ||
            !topo.hasNeighbor(event.node, event.port)) {
            throw ConfigError("fault event " + event.str() +
                              ": no link through that port (local or "
                              "unconnected port?)");
        }
        if (event.down) {
            if (failures.isFailed(event.node, event.port)) {
                throw ConfigError("fault event " + event.str() +
                                  ": link is already down");
            }
            failures.fail(topo, event.node, event.port);
            const ConnectivityReport conn =
                checkConnectivity(topo, failures);
            if (!conn.connected) {
                throw ConfigError("fault event " + event.str() + ": " +
                                  conn.describe());
            }
        } else {
            if (!failures.isFailed(event.node, event.port)) {
                throw ConfigError("fault event " + event.str() +
                                  ": cannot repair a link that is up");
            }
            failures.repair(topo, event.node, event.port);
        }
    }
}

std::uint64_t
deriveFaultSeed(std::uint64_t run_seed)
{
    // Any fixed decorrelating stream works; reuse the campaign
    // seed-derivation mix so the fault stream never aliases a node's
    // traffic stream.
    return deriveSeed(run_seed, 0xFA517u);
}

} // namespace lapses
