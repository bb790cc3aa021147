/**
 * @file
 * Multi-chip scale-out: shard one global ExecutionPlan over a
 * ChipCluster of M DiTile chips behind an inter-chip interconnect.
 *
 * The global plan carries a ScaleOutSpec (plan_format 3): the chip
 * count, the InterChipLink parameters, and the recorded chunk→chip
 * assignment from the DGC-style chunk partitioner
 * (workload/chunk_partition.hh). Execution shards the workload into
 * per-chip induced subgraphs, instantiates one per-chip ExecutionPlan
 * each (restricting the global mapping to the shard and re-deriving
 * the redundancy-free snapshot plans through the shared PlanCache,
 * keyed per shard by its structure hash), executes every chip through
 * the unchanged single-chip engine, and assembles the cluster timeline
 * as a task graph: ChipCompute nodes chained per chip, InterChipComm
 * nodes on per-chip link lanes carrying the boundary state between
 * consecutive snapshots. The deterministic list scheduler propagates
 * ready times, so cross-chip traffic overlaps other chips' compute
 * exactly like on-chip comm overlaps compute in the PR-7 DAG; with
 * --no-overlap the comm nodes gain barrier edges and the timeline
 * degrades to compute-all / exchange-all phases (never faster).
 *
 * Determinism: chips execute in serial chip order (each chip's engine
 * parallelism is already bit-identical at any width), the partitioner
 * assignment is recorded in the plan, and the cluster schedule is the
 * deterministic scheduler's output — so M-chip results are
 * bit-identical at any --threads width. chips == 1 plans carry no
 * ScaleOutSpec section and never enter this layer, keeping the
 * single-chip path byte-identical.
 */

#ifndef DITILE_SIM_SCALEOUT_HH
#define DITILE_SIM_SCALEOUT_HH

#include <vector>

#include "common/types.hh"
#include "graph/dynamic_graph.hh"
#include "noc/interchip.hh"

namespace ditile::sim {

struct ExecutionPlan;
struct RunResult;
struct TaskGraph;
class PlanCache;

/**
 * Scale-out section of an ExecutionPlan. Default-constructed means
 * single chip: the plan serializes as format 2 and executes through
 * the unchanged single-chip path.
 */
struct ScaleOutSpec
{
    int chips = 1;
    noc::InterChipLinkConfig link;

    /** Vertices per chunk of the recorded assignment. */
    VertexId chunkSpan = 1;

    /** Chunk -> chip assignment recorded by the partitioner. */
    std::vector<int> chipOfChunk;

    bool enabled() const { return chips > 1; }
};

/**
 * Attach a scale-out spec to a plan: runs the chunk partitioner over
 * the workload and records the assignment. chips <= 1 clears the spec
 * (plan serializes and executes exactly as before). Throws InputError
 * on infeasible configurations (more chips than vertices) and on a
 * link noc::checkInterChipLink rejects.
 */
void applyScaleOut(ExecutionPlan &plan, const graph::DynamicGraph &dg,
                   int chips, const noc::InterChipLinkConfig &link);

/**
 * Trace track groups one run of a `chips`-chip plan spans: one per
 * chip plus the cluster group, or the single group of a one-chip run.
 * Tools step each run's track base by this many kTracksPerRun.
 */
int traceTrackGroups(int chips);

/**
 * Execute a chips > 1 plan as a ChipCluster (see file comment).
 * `cache` (optional) shares the per-shard snapshot-plan sets across
 * chips and across repeated runs; when null a run-local cache still
 * shares them across this run's chips.
 */
RunResult runScaleOut(const graph::DynamicGraph &dg,
                      const ExecutionPlan &plan, PlanCache *cache);

/**
 * Structural cluster-level task graph for a chips > 1 plan: per-chip
 * ChipCompute chains plus InterChipComm nodes on per-chip link lanes,
 * pure function of (chips, snapshot count, overlap). Durations are
 * zero; runScaleOut annotates them.
 */
TaskGraph buildClusterTaskGraph(const ExecutionPlan &plan);

} // namespace ditile::sim

#endif // DITILE_SIM_SCALEOUT_HH
