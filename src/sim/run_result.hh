/**
 * @file
 * Outcome of one accelerator execution over a dynamic graph.
 */

#ifndef DITILE_SIM_RUN_RESULT_HH
#define DITILE_SIM_RUN_RESULT_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_model.hh"
#include "energy/energy_model.hh"
#include "model/accounting.hh"

namespace ditile::sim {

/**
 * Per-snapshot timeline record: when each phase of snapshot t ran and
 * what it cost. Components overlap per the §7.1 timing model, so
 * phase durations do not sum to the end-to-end time.
 */
struct SnapshotTrace
{
    SnapshotId snapshot = 0;
    int column = 0;               ///< Tile column executing it.
    Cycle dramDone = 0;           ///< Off-chip stream completion.
    Cycle gnnComputeCycles = 0;   ///< Critical-tile GNN compute.
    Cycle rnnComputeCycles = 0;   ///< Critical-tile RNN compute.
    Cycle spatialCommCycles = 0;  ///< GNN-phase NoC makespan.
    Cycle temporalCommCycles = 0; ///< RNN-boundary NoC makespan.
    Cycle gnnDone = 0;            ///< GNN phase completion time.
    Cycle rnnDone = 0;            ///< RNN phase completion time.

    // What the phases moved; the trace reports it as span args.
    ByteCount spatialBytes = 0;
    std::uint64_t spatialMessages = 0;
    ByteCount temporalBytes = 0;  ///< Temporal-class boundary bytes.
    ByteCount reuseBytes = 0;     ///< Reuse-class boundary bytes.
    dram::DramResult dram;        ///< Off-chip stream, retries merged.
    std::uint64_t dramRetryRequests = 0;
    ByteCount dramRetryBytes = 0;
    Cycle dramRetryCycles = 0;    ///< Cycles the retries added.
    int relinkSpan = 0;           ///< Adaptive Re-Link span, else 0.

    /** Scale-out: the boundary exchange this chip sends after the
     *  snapshot (payload and framed wire bytes). */
    ByteCount interchipPayloadBytes = 0;
    ByteCount interchipWireBytes = 0;
};

/**
 * One recovery action the engine performed in degraded mode.
 */
struct RecoveryEvent
{
    SnapshotId snapshot = 0;
    std::string kind;   ///< "tile-remap", "noc-reroute", "noc-retry",
                        ///< or "dram-retry".
    std::string detail; ///< Human-readable description.
};

/**
 * Fault-injection outcome: what was injected and how the run degraded.
 * All zero / disabled when the plan carries no fault schedule.
 */
struct ResilienceReport
{
    bool enabled = false;

    // Injected fault counts by category (distinct hardware elements).
    std::uint64_t injectedTileFaults = 0;
    std::uint64_t injectedLinkFaults = 0;
    std::uint64_t injectedBypassFaults = 0;
    std::uint64_t injectedDramFaults = 0;

    std::uint64_t degradedSnapshots = 0; ///< Snapshots with any
                                         ///< active fault state.
    std::uint64_t remappedVertices = 0;  ///< Vertex-snapshot pairs the
                                         ///< BDW re-deal moved.
    std::uint64_t reroutedMessages = 0;  ///< Non-minimal NoC paths.
    std::uint64_t retriedMessages = 0;   ///< Messages that paid retry
                                         ///< backoff.
    Cycle nocRetryBackoffCycles = 0;     ///< Total NoC backoff paid.
    std::uint64_t dramRetryRequests = 0; ///< Re-read DRAM requests.
    ByteCount dramRetryBytes = 0;        ///< Bytes re-streamed.
    Cycle dramRetryCycles = 0;           ///< Extra off-chip cycles.

    /** Mean fraction of compute slots offline across snapshots. */
    double degradedCapacityFraction = 0.0;

    /** Ordered recovery log (snapshot-major). */
    std::vector<RecoveryEvent> events;

    /** Export the counters into a StatSet ("resilience.*" keys). */
    StatSet
    toStats() const
    {
        StatSet s;
        s.set("resilience.tile_faults",
              static_cast<double>(injectedTileFaults));
        s.set("resilience.link_faults",
              static_cast<double>(injectedLinkFaults));
        s.set("resilience.bypass_faults",
              static_cast<double>(injectedBypassFaults));
        s.set("resilience.dram_faults",
              static_cast<double>(injectedDramFaults));
        s.set("resilience.degraded_snapshots",
              static_cast<double>(degradedSnapshots));
        s.set("resilience.remapped_vertices",
              static_cast<double>(remappedVertices));
        s.set("resilience.rerouted_messages",
              static_cast<double>(reroutedMessages));
        s.set("resilience.retried_messages",
              static_cast<double>(retriedMessages));
        s.set("resilience.noc_retry_backoff_cycles",
              static_cast<double>(nocRetryBackoffCycles));
        s.set("resilience.dram_retry_requests",
              static_cast<double>(dramRetryRequests));
        s.set("resilience.dram_retry_bytes",
              static_cast<double>(dramRetryBytes));
        s.set("resilience.dram_retry_cycles",
              static_cast<double>(dramRetryCycles));
        s.set("resilience.degraded_capacity_fraction",
              degradedCapacityFraction);
        return s;
    }
};

/**
 * Task-graph schedule summary of either timeline. Everything here is
 * derived from the deterministic scheduler, so it is bit-identical at
 * any thread width; `--task-stats` and `ditile_inspect plan --tasks`
 * render it.
 */
struct TaskGraphStats
{
    std::uint64_t numTasks = 0;
    std::uint64_t numEdges = 0;
    Cycle makespan = 0;

    /** Per-resource-lane occupancy. */
    struct Lane
    {
        std::string name;
        std::uint64_t tasks = 0;
        Cycle busyCycles = 0;
    };
    std::vector<Lane> lanes;

    /** Every scheduled task in canonical id order. */
    struct Task
    {
        int id = 0;
        std::string kind; ///< Canonical TaskKind token.
        SnapshotId snapshot = 0;
        std::string lane; ///< Lane name.
        Cycle start = 0;
        Cycle finish = 0;
        bool critical = false; ///< On the scheduler's critical path.
    };
    std::vector<Task> tasks;
};

/**
 * Everything the figure benches and tests read out of a run.
 */
struct RunResult
{
    std::string acceleratorName;
    std::string workloadName;

    Cycle totalCycles = 0;

    // Non-overlapped view of where time went (components may overlap,
    // so the sum can exceed totalCycles).
    Cycle computeCycles = 0;
    Cycle onChipCommCycles = 0;
    Cycle offChipCycles = 0;
    Cycle configCycles = 0;

    model::OpsBreakdown ops;
    model::DramBreakdown dramTraffic;
    energy::EnergyEvents energyEvents;
    energy::EnergyBreakdown energy;

    /** Busy-MAC fraction over the whole-chip makespan. */
    double peUtilization = 0.0;

    /** On-chip bytes actually moved between tiles. */
    ByteCount nocBytes = 0;
    ByteCount nocBytesTemporal = 0;
    ByteCount nocBytesSpatial = 0;
    ByteCount nocBytesReuse = 0;

    /** Detailed merged counters (NoC, DRAM, energy). */
    StatSet stats;

    /** Per-snapshot timeline, size == T. */
    std::vector<SnapshotTrace> trace;

    /** Fault-injection outcome (disabled on fault-free runs). */
    ResilienceReport resilience;

    /** Task-graph schedule summary. */
    TaskGraphStats taskGraph;
};

} // namespace ditile::sim

#endif // DITILE_SIM_RUN_RESULT_HH
