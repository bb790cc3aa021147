/**
 * @file
 * Network simulation implementation.
 */

#include "noc/network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace ditile::noc {

namespace {

/** Serialization cycles for one message over one link. */
Cycle
serializationCycles(const NocConfig &config, ByteCount bytes)
{
    return ceilDiv<Cycle>(static_cast<Cycle>(bytes),
                          static_cast<Cycle>(config.linkBytesPerCycle));
}

} // namespace

NocResult
simulateTraffic(const NocConfig &config, std::vector<Message> messages,
                const NocFaults *faults)
{
    auto topology = Topology::create(config);
    NocResult result;

    // Batches drained from a traffic matrix share one inject cycle;
    // skipping the sort of an already ordered batch changes nothing.
    const auto by_inject = [](const Message &a, const Message &b) {
        return a.injectCycle < b.injectCycle;
    };
    if (!std::is_sorted(messages.begin(), messages.end(), by_inject))
        std::stable_sort(messages.begin(), messages.end(), by_inject);

    std::vector<Cycle> link_free(
        static_cast<std::size_t>(topology->numLinks()), 0);
    double latency_sum = 0.0;
    static const NocFaults no_faults;
    const NocFaults &active_faults = faults ? *faults : no_faults;
    Route rt; // Reused across the batch: routing never reallocates.

    for (const Message &m : messages) {
        DITILE_ASSERT(m.src >= 0 && m.src < config.numTiles() &&
                      m.dst >= 0 && m.dst < config.numTiles(),
                      "message endpoints out of range");
        ++result.numMessages;
        result.totalBytes += m.bytes;
        result.bytesByClass[static_cast<int>(m.cls)] += m.bytes;

        topology->routeInto(m.src, m.dst, m.cls, active_faults, rt);
        const auto &hops = rt.hops;
        Cycle t = m.injectCycle;
        if (rt.rerouted)
            ++result.reroutedMessages;
        if (rt.degraded) {
            // No fault-free path exists: the sender retries with
            // bounded exponential backoff before forcing the transfer
            // through the degraded route.
            ++result.retriedMessages;
            Cycle backoff = 0;
            Cycle step = active_faults.retryBackoffCycles;
            for (int attempt = 0; attempt < active_faults.maxRetries;
                 ++attempt) {
                backoff += step;
                step *= 2;
            }
            result.retryBackoffCycles += backoff;
            t += backoff;
        }
        const Cycle ser = serializationCycles(config, m.bytes);
        // Links between router stops form one bypass segment: the
        // message serializes once over the whole segment (cut-through
        // across bypassed routers), so Re-Link bypasses save both the
        // router latency and the per-hop re-serialization.
        std::size_t seg_begin = 0;
        for (std::size_t h = 0; h < hops.size(); ++h) {
            result.hopBytes += m.bytes;
            ++result.totalHops;
            if (!hops[h].routerStop)
                continue;
            Cycle start = t;
            for (std::size_t k = seg_begin; k <= h; ++k) {
                start = std::max(start, link_free[
                    static_cast<std::size_t>(hops[k].link)]);
            }
            t = start + ser;
            for (std::size_t k = seg_begin; k <= h; ++k) {
                link_free[static_cast<std::size_t>(hops[k].link)] = t;
            }
            t += config.routerLatencyCycles;
            result.routerBytes += m.bytes;
            ++result.routerStops;
            seg_begin = h + 1;
        }
        latency_sum += static_cast<double>(t - m.injectCycle);
        result.makespan = std::max(result.makespan, t);
    }

    result.avgLatency = result.numMessages
        ? latency_sum / static_cast<double>(result.numMessages) : 0.0;
    return result;
}

Cycle
zeroLoadLatency(const NocConfig &config, const Message &message)
{
    auto topology = Topology::create(config);
    const auto hops = topology->route(message.src, message.dst,
                                      message.cls);
    const Cycle ser = serializationCycles(config, message.bytes);
    Cycle t = 0;
    for (const Hop &hop : hops) {
        if (hop.routerStop)
            t += ser + config.routerLatencyCycles;
    }
    return t;
}

} // namespace ditile::noc
