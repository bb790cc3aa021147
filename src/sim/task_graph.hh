/**
 * @file
 * Comp/Comm task DAG built from an ExecutionPlan.
 *
 * The task graph is the engine's only timeline: explicit dependencies
 * between typed tasks bound to per-device resource lanes. In overlap
 * mode GNN compute, RNN compute, NoC traffic, DRAM streaming and
 * Re-Link reconfiguration overlap whenever their data dependencies
 * allow (the pipelining idea of PiPAD / DGNN-Booster applied to the
 * paper's timing model). Staged mode (`--no-overlap`) adds barrier
 * edges that reproduce the legacy phase-by-phase formulas exactly.
 *
 * The graph is *structural*: it is a pure function of the plan (the
 * mapping, the policy knobs, the overlap mode and the snapshot count),
 * never of realized durations or fault outcomes. Durations are filled
 * in by the engine after its evaluation stages, and the deterministic
 * list scheduler (scheduler.hh) turns the annotated graph into
 * start/finish times.
 *
 * Canonical task ids are snapshot-major: for each snapshot t the tasks
 * are enumerated DramStream, GnnCompute, SpatialComm, TemporalComm
 * (boundary snapshots only), RnnCompute, RelinkReconfig. Ids therefore
 * ascend with t within every kind, which is what makes the scheduler's
 * (ready_cycle, id) tie-break reproduce snapshot order on every lane.
 */

#ifndef DITILE_SIM_TASK_GRAPH_HH
#define DITILE_SIM_TASK_GRAPH_HH

#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace ditile::sim {

struct ExecutionPlan;

/** What a task models; one per engine sub-model phase. */
enum class TaskKind
{
    GnnCompute,     ///< Critical-tile GNN phase of one snapshot.
    RnnCompute,     ///< Critical-tile RNN phase of one snapshot.
    SpatialComm,    ///< GNN-phase spatial NoC traffic.
    TemporalComm,   ///< RNN-boundary temporal + reuse NoC traffic.
    DramStream,     ///< Off-chip stream of one snapshot.
    RelinkReconfig, ///< Per-snapshot Re-Link switch budget.
    ChipCompute,    ///< One chip's full snapshot in a scale-out
                    ///< cluster (sim/scaleout.hh).
    InterChipComm,  ///< Cross-chip boundary exchange after one
                    ///< snapshot.
};

/** Canonical serialization token ("gnn", "rnn", "spatial", ...). */
const char *taskKindToken(TaskKind kind);

/**
 * Exclusive device a task occupies while it runs. Lanes serialize the
 * tasks bound to them; distinct lanes run concurrently.
 */
enum class LaneKind
{
    TileColumn,      ///< One tile column's MAC arrays (the whole grid
                     ///< under spatial-only mapping).
    RnnEngine,       ///< One column's RNN issue slot. Neither mode
                     ///< re-blocks a column on its RNN phase (the
                     ///< temporal chain already serializes RNN
                     ///< globally), so RNN compute gets its own lane.
    NocColumn,       ///< One column's share of the NoC.
    TemporalLink,    ///< Cross-column boundary links. Never binds: the
                     ///< RNN chain already serializes boundaries.
    DramChannel,     ///< The off-chip channel group (the DRAM model
                     ///< serializes streams through one cursor).
    RelinkController,///< The Re-Link controller's reconfig sequencer.
    Chip,            ///< One whole chip of a scale-out cluster.
    InterChipLink,   ///< One chip's egress inter-chip link.
};

/** Canonical serialization token ("tile-col", "rnn-engine", ...). */
const char *laneKindToken(LaneKind kind);

/** One exclusive resource lane. */
struct ResourceLane
{
    LaneKind kind = LaneKind::TileColumn;
    int index = 0; ///< Column / channel id; 0 for singleton devices.

    /** Canonical display name, e.g. "tile-col:3" or "dram:0". */
    std::string name() const;
};

/** One schedulable task. */
struct TaskNode
{
    int id = 0;
    TaskKind kind = TaskKind::GnnCompute;
    SnapshotId snapshot = 0;
    int lane = 0;       ///< Index into TaskGraph::lanes.
    Cycle duration = 0; ///< Filled by the engine; 0 until annotated.
};

/**
 * The full DAG: lanes, nodes in canonical id order, and dependency
 * edges (src must finish before dst may start) in emission order.
 */
struct TaskGraph
{
    std::vector<ResourceLane> lanes;
    std::vector<TaskNode> nodes;
    std::vector<std::pair<int, int>> edges;

    /** Task ids of one snapshot; -1 where the task does not exist. */
    struct SnapshotTasks
    {
        int dram = -1;
        int gnn = -1;
        int spatial = -1;
        int temporal = -1;
        int rnn = -1;
        int relink = -1;
    };
    std::vector<SnapshotTasks> bySnapshot;

    int addLane(LaneKind kind, int index);
    int addTask(TaskKind kind, SnapshotId snapshot, int lane);
    void addDep(int src, int dst);
};

/**
 * Build the structural task graph for a plan. Durations are zero; the
 * engine annotates them from its evaluation stages. With
 * plan.options.overlap the edges are the true data dependencies only;
 * without it the staged barrier edges are added on top (a superset
 * over the same nodes and lanes), so for equal durations the overlap
 * makespan is <= the staged one. Every edge points forward in id
 * order except the globalGnnBarrier edges into RNN[0].
 */
TaskGraph buildTaskGraph(const ExecutionPlan &plan);

/**
 * The single-chip task graph of a plan, also for a scale-out plan,
 * whose chips each run it (buildTaskGraph gives such a plan the
 * cluster graph instead).
 */
TaskGraph buildChipTaskGraph(const ExecutionPlan &plan);

} // namespace ditile::sim

#endif // DITILE_SIM_TASK_GRAPH_HH
