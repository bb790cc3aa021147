/**
 * @file
 * Contention-aware network simulation.
 *
 * Messages are bulk transfers; the simulator serializes each over the
 * links of its route with first-come-first-served link arbitration at
 * cycle granularity. This captures the effects the paper's evaluation
 * depends on — hop counts, link contention, serialization latency,
 * per-class volumes — while staying fast enough to replay every
 * message of a full DGNN execution.
 */

#ifndef DITILE_NOC_NETWORK_HH
#define DITILE_NOC_NETWORK_HH

#include <vector>

#include "noc/message.hh"
#include "noc/topology.hh"

namespace ditile::noc {

/**
 * Aggregate outcome of replaying one message batch.
 */
struct NocResult
{
    Cycle makespan = 0;            ///< Last delivery cycle.
    double avgLatency = 0.0;       ///< Mean per-message latency.
    std::uint64_t numMessages = 0;
    ByteCount totalBytes = 0;      ///< Payload bytes injected.
    ByteCount hopBytes = 0;        ///< Sum of bytes x links traversed.
    ByteCount routerBytes = 0;     ///< Sum of bytes x router stops.
    std::uint64_t totalHops = 0;   ///< Link traversals.
    std::uint64_t routerStops = 0; ///< Router pipeline traversals.
    ByteCount bytesByClass[4] = {0, 0, 0, 0}; ///< Indexed by
                                              ///< TrafficClass.
    std::uint64_t reroutedMessages = 0; ///< Took a non-minimal path
                                        ///< around dead links.
    std::uint64_t retriedMessages = 0;  ///< No fault-free path; paid
                                        ///< bounded retry backoff.
    Cycle retryBackoffCycles = 0;       ///< Total backoff charged.
};

/**
 * Replay a batch of messages over the configured topology.
 *
 * Messages are served in injection-cycle order (ties by vector
 * order); each link is a FCFS resource moving linkBytesPerCycle per
 * cycle; router stops add routerLatencyCycles.
 *
 * When `faults` is non-null, routes dodge dead links where possible
 * (counted in reroutedMessages); a message with no fault-free path
 * pays maxRetries exponential backoff attempts before being forced
 * through the degraded route (counted in retriedMessages). A null
 * `faults` leaves the fault-free fast path untouched.
 */
NocResult simulateTraffic(const NocConfig &config,
                          std::vector<Message> messages,
                          const NocFaults *faults = nullptr);

/** Ideal (zero-load) latency of a single message, for tests. */
Cycle zeroLoadLatency(const NocConfig &config, const Message &message);

} // namespace ditile::noc

#endif // DITILE_NOC_NETWORK_HH
