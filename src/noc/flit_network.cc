/**
 * @file
 * Flit-level wormhole simulation.
 */

#include "noc/flit_network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace ditile::noc {

namespace {

/**
 * In-flight packet state. The head owns link path[headIndex-1] and
 * everything behind it until the tail (flits cycles after the head
 * left a link) releases it.
 */
struct Packet
{
    std::size_t id = 0;
    Cycle injectCycle = 0;
    Cycle flits = 1;
    std::vector<Hop> path;
    Cycle routerDelay = 0;    ///< Total router latency on the path.

    std::size_t headIndex = 0;    ///< Next path link to acquire.
    Cycle headStallUntil = 0;     ///< Router pipeline delay gate.
    Cycle doneCycle = 0;          ///< Tail fully drained.
    bool finished = false;
};

} // namespace

NocResult
simulateFlitTraffic(const FlitConfig &config,
                    std::vector<Message> messages)
{
    const Topology topology(config.noc);
    NocResult result;

    std::stable_sort(messages.begin(), messages.end(),
        [](const Message &a, const Message &b) {
            return a.injectCycle < b.injectCycle;
        });

    std::vector<Packet> packets;
    packets.reserve(messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
        const Message &m = messages[i];
        result.totalBytes += m.bytes;
        result.bytesByClass[static_cast<int>(m.cls)] += m.bytes;
        ++result.numMessages;

        Packet p;
        p.id = i;
        p.injectCycle = m.injectCycle;
        p.flits = std::max<Cycle>(1, ceilDiv<Cycle>(
            static_cast<Cycle>(m.bytes),
            static_cast<Cycle>(config.flitBytes)));
        p.path = topology.route(m.src, m.dst, m.cls);
        for (const Hop &hop : p.path) {
            result.hopBytes += m.bytes;
            ++result.totalHops;
            if (hop.routerStop) {
                result.routerBytes += m.bytes;
                ++result.routerStops;
            }
        }
        if (p.path.empty()) {
            p.finished = true;
            p.doneCycle = p.injectCycle;
        }
        packets.push_back(std::move(p));
    }

    // linkFreeAt[l]: first cycle the link can accept a new packet's
    // head (previous owner's tail has drained).
    std::vector<Cycle> link_free(
        static_cast<std::size_t>(topology.numLinks()), 0);

    double latency_sum = 0.0;
    std::size_t remaining = 0;
    for (const auto &p : packets)
        remaining += !p.finished;

    Cycle cycle = 0;
    while (remaining > 0) {
        DITILE_ASSERT(cycle < config.maxCycles,
                      "flit simulation exceeded the cycle guard");
        // Oldest-first arbitration: packets were sorted by injection.
        for (Packet &p : packets) {
            if (p.finished || p.injectCycle > cycle ||
                p.headStallUntil > cycle) {
                continue;
            }
            if (p.headIndex < p.path.size()) {
                const Hop &hop = p.path[p.headIndex];
                Cycle &free_at =
                    link_free[static_cast<std::size_t>(hop.link)];
                if (free_at > cycle)
                    continue;
                // Acquire: the head crosses this cycle, the tail
                // drains `flits` cycles later, releasing the link.
                free_at = cycle + p.flits;
                ++p.headIndex;
                if (hop.routerStop) {
                    p.headStallUntil = cycle + 1 +
                        config.noc.routerLatencyCycles;
                } else {
                    p.headStallUntil = cycle + 1;
                }
                if (p.headIndex == p.path.size()) {
                    // Head arrived; tail drains behind it.
                    p.doneCycle = cycle + p.flits +
                        config.noc.routerLatencyCycles;
                    p.finished = true;
                    --remaining;
                    latency_sum += static_cast<double>(
                        p.doneCycle - p.injectCycle);
                    result.makespan = std::max(result.makespan,
                                               p.doneCycle);
                }
            }
        }
        ++cycle;
    }

    result.avgLatency = result.numMessages
        ? latency_sum / static_cast<double>(result.numMessages) : 0.0;
    return result;
}

Cycle
flitZeroLoadLatency(const FlitConfig &config, const Message &message)
{
    // Replaying a single message keeps this definitionally consistent
    // with the simulation (head pipeline + tail drain + ejection).
    Message m = message;
    m.injectCycle = 0;
    const auto result = simulateFlitTraffic(config, {m});
    return result.makespan;
}

} // namespace ditile::noc
