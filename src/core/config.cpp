#include "core/config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.hpp"
#include "router/flit.hpp"

namespace lapses
{

Topology
buildTopology(const SimConfig& cfg)
{
    return makeTopology(cfg.topology, cfg.radices);
}

Cycle
contentionFreeHopCycles(const SimConfig& cfg)
{
    const Cycle stages = cfg.model == RouterModel::LaProud ? 4 : 5;
    return stages + cfg.linkDelay;
}

int
resolveEscapeVcs(const SimConfig& cfg, const RoutingAlgorithm& algo)
{
    if (!algo.usesEscapeChannels())
        return 1; // unused; routers ignore it without escape discipline
    // Meta-tables need the two-phase escape (see DESIGN.md); torus
    // dateline routing needs two classes as well; all other schemes
    // reserve a single escape VC.
    const bool meta = cfg.table == TableKind::MetaRowMinimal ||
                      cfg.table == TableKind::MetaBlockMaximal;
    const int escape = cfg.escapeVcs > 0
                           ? cfg.escapeVcs
                           : std::max(algo.escapeClasses(), meta ? 2 : 1);
    if (escape >= cfg.vcsPerPort) {
        throw ConfigError(
            "vcsPerPort too small for the required escape VCs (" +
            std::to_string(escape) + ")");
    }
    return escape;
}

void
SimConfig::validate() const
{
    if (topology.isMeshKind() && radices.empty())
        throw ConfigError("topology needs at least one dimension");
    if (vcsPerPort < 1)
        throw ConfigError("vcsPerPort must be >= 1");
    if (bufferDepth < 1)
        throw ConfigError("bufferDepth must be >= 1");
    if (msgLen < 1 || msgLen > kMaxMsgLen) {
        throw ConfigError("msgLen must be in [1, " +
                          std::to_string(kMaxMsgLen) + "]");
    }
    if (!std::isfinite(normalizedLoad) || normalizedLoad <= 0.0)
        throw ConfigError("normalizedLoad must be finite and > 0");
    if (measureMessages < 1)
        throw ConfigError("measureMessages must be >= 1");
    if (latencySatCutoff <= 0.0)
        throw ConfigError("latencySatCutoff must be > 0");
    if (escapeVcs == 0 || escapeVcs < -1)
        throw ConfigError("escapeVcs must be -1 (auto) or >= 1");
    if (escapeVcs >= vcsPerPort)
        throw ConfigError("escapeVcs must leave at least one adaptive "
                          "VC (escapeVcs < vcsPerPort)");
    if (faultCount < 0)
        throw ConfigError("faultCount must be >= 0");
    if (faultCount > 0 && faultSpacing < 1)
        throw ConfigError("faultSpacing must be >= 1");
    if (linkDelay < 1 || linkDelay > 64)
        throw ConfigError("linkDelay must be in [1, 64]");
    if (closedLoop()) {
        if (topology.isMeshKind()) {
            int nodes = 1;
            for (int r : radices)
                nodes *= r;
            if (servers < 1 || servers >= nodes) {
                throw ConfigError(
                    "servers must be in [1, numNodes) for "
                    "the request-reply workload");
            }
        } else if (servers < 1) {
            // The endpoint-count upper bound needs the built graph;
            // Simulation enforces it.
            throw ConfigError("servers must be in [1, numNodes) for "
                              "the request-reply workload");
        }
        if (inflightWindow < 1)
            throw ConfigError("inflightWindow must be >= 1");
        if (requestTimeout < 1)
            throw ConfigError("requestTimeout must be >= 1");
        if (maxRetries < 0)
            throw ConfigError("maxRetries must be >= 0");
        if (backoffBase < 1)
            throw ConfigError("backoffBase must be >= 1");
        if (serviceTime < 1)
            throw ConfigError("serviceTime must be >= 1");
    }
}

std::string
SimConfig::describe() const
{
    std::string s;
    if (topology.isMeshKind()) {
        for (std::size_t i = 0; i < radices.size(); ++i) {
            if (i)
                s += 'x';
            s += std::to_string(radices[i]);
        }
        s += topology.kind == TopologyKind::Torus ? " torus" : " mesh";
    } else {
        s += topology.str();
    }
    s += ", " + enumName(model);
    s += ", " + enumName(routing);
    s += ", " + enumName(table);
    s += ", sel " + enumName(selector);
    s += ", " + enumName(traffic);
    if (closedLoop()) {
        s += ", request-reply (" + std::to_string(servers) +
             " servers, window " + std::to_string(inflightWindow) +
             ", timeout " + std::to_string(requestTimeout) +
             ", retries " + std::to_string(maxRetries) + ")";
    } else {
        char load_buf[24];
        std::snprintf(load_buf, sizeof(load_buf), ", load %.2f",
                      normalizedLoad);
        s += load_buf;
    }
    s += ", len " + std::to_string(msgLen);
    if (hasFaults()) {
        s += ", faults " + std::to_string(faultCount);
        if (!faultEvents.empty()) {
            s += "+" + std::to_string(faultEvents.size()) +
                 " explicit";
        }
        s += " (" + enumName(faultPolicy) + ")";
    }
    if (telemetryWindow > 0)
        s += ", telem " + std::to_string(telemetryWindow);
    return s;
}

} // namespace lapses
