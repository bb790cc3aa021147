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

/**
 * The replay loop over one style's route walker. Each hop is timed as
 * the walker produces it; only the links of the current bypass
 * segment are held (in `segment`, whose storage the batch reuses).
 */
template <typename Routes>
NocResult
replay(const Routes &routes, const NocConfig &config,
       const std::vector<Message> &messages, const NocFaults &faults)
{
    NocResult result;
    std::vector<Cycle> link_free(
        static_cast<std::size_t>(routes.numLinks()), 0);
    std::vector<LinkId> segment;
    double latency_sum = 0.0;

    // No fault-free path: the sender retries with bounded exponential
    // backoff before forcing the transfer through the degraded route.
    Cycle backoff = 0;
    Cycle step = faults.retryBackoffCycles;
    for (int attempt = 0; attempt < faults.maxRetries; ++attempt) {
        backoff += step;
        step *= 2;
    }

    for (const Message &m : messages) {
        DITILE_ASSERT(m.src >= 0 && m.src < config.numTiles() &&
                      m.dst >= 0 && m.dst < config.numTiles(),
                      "message endpoints out of range");
        ++result.numMessages;
        result.totalBytes += m.bytes;
        result.bytesByClass[static_cast<int>(m.cls)] += m.bytes;

        const RouteChoice choice = routes.choose(m.src, m.dst, faults);
        Cycle t = m.injectCycle;
        if (choice.rerouted)
            ++result.reroutedMessages;
        if (choice.degraded) {
            ++result.retriedMessages;
            result.retryBackoffCycles += backoff;
            t += backoff;
        }
        const Cycle ser = serializationCycles(config, m.bytes);
        // Links between router stops form one bypass segment: the
        // message serializes once over the whole segment (cut-through
        // across bypassed routers), so Re-Link bypasses save both the
        // router latency and the per-hop re-serialization.
        std::uint64_t hops = 0;
        std::uint64_t stops = 0;
        routes.walk(m.src, m.dst, choice, [&](LinkId link, bool stop) {
            ++hops;
            if (!stop) {
                segment.push_back(link);
                return;
            }
            Cycle start = std::max(
                t, link_free[static_cast<std::size_t>(link)]);
            for (const LinkId l : segment)
                start = std::max(start,
                                 link_free[static_cast<std::size_t>(l)]);
            t = start + ser;
            link_free[static_cast<std::size_t>(link)] = t;
            for (const LinkId l : segment)
                link_free[static_cast<std::size_t>(l)] = t;
            segment.clear();
            t += config.routerLatencyCycles;
            ++stops;
        });
        result.totalHops += hops;
        result.hopBytes += m.bytes * hops;
        result.routerStops += stops;
        result.routerBytes += m.bytes * stops;
        latency_sum += static_cast<double>(t - m.injectCycle);
        result.makespan = std::max(result.makespan, t);
    }

    result.avgLatency = result.numMessages
        ? latency_sum / static_cast<double>(result.numMessages) : 0.0;
    return result;
}

} // namespace

NocResult
simulateTraffic(const NocConfig &config, std::vector<Message> messages,
                const NocFaults *faults)
{
    // Batches drained from a traffic matrix share one inject cycle;
    // skipping the sort of an already ordered batch changes nothing.
    const auto by_inject = [](const Message &a, const Message &b) {
        return a.injectCycle < b.injectCycle;
    };
    if (!std::is_sorted(messages.begin(), messages.end(), by_inject))
        std::stable_sort(messages.begin(), messages.end(), by_inject);

    static const NocFaults no_faults;
    return withRoutes(config, [&](const auto &routes) {
        return replay(routes, config, messages,
                      faults ? *faults : no_faults);
    });
}

Cycle
zeroLoadLatency(const NocConfig &config, const Message &message)
{
    const auto hops = Topology(config).route(message.src, message.dst,
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
