/**
 * @file
 * Deterministic list scheduler over a duration-annotated TaskGraph.
 *
 * Event-driven ready-time propagation: a task becomes ready when every
 * dependency has finished, and starts at max(ready, lane free). Tasks
 * are dispatched in (ready_cycle, canonical task id) order from one
 * serial priority queue, so the schedule — and every number derived
 * from it — is a pure function of the annotated graph, bit-identical
 * at any --threads width (the engine's parallelism lives entirely in
 * producing the durations, never in consuming them).
 */

#ifndef DITILE_SIM_SCHEDULER_HH
#define DITILE_SIM_SCHEDULER_HH

#include <vector>

#include "common/types.hh"
#include "sim/run_result.hh"
#include "sim/task_graph.hh"

namespace ditile::sim {

/** Where and why one task ran. */
struct ScheduledTask
{
    Cycle start = 0;
    Cycle finish = 0;

    /**
     * The task that bound this one's start: the lane predecessor when
     * the lane was the constraint, else the latest-finishing
     * dependency (smallest id on ties), -1 for tasks starting at 0.
     * Following critPred from the last-finishing task walks the
     * critical path.
     */
    int critPred = -1;
};

/** Aggregate occupancy of one resource lane. */
struct LaneUsage
{
    std::uint64_t tasks = 0;
    Cycle busyCycles = 0;
};

/** Full schedule: per-task times, per-lane usage, critical path. */
struct ScheduleResult
{
    std::vector<ScheduledTask> tasks; ///< Indexed by task id.
    std::vector<LaneUsage> lanes;     ///< Indexed like graph lanes.
    Cycle makespan = 0;

    /** Task ids start-to-end along the critical path. */
    std::vector<int> criticalPath;
};

/**
 * Schedule a duration-annotated graph. Asserts on dependency cycles.
 */
ScheduleResult scheduleTaskGraph(const TaskGraph &graph);

/**
 * The reportable summary of a schedule: lane occupancy and every task
 * with its lane name, times and critical-path membership. Shared by
 * the chip and cluster timelines.
 */
TaskGraphStats taskGraphStats(const TaskGraph &graph,
                              const ScheduleResult &sched);

} // namespace ditile::sim

#endif // DITILE_SIM_SCHEDULER_HH
