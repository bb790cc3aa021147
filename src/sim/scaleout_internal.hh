/**
 * @file
 * Scale-out evaluation and scheduling, and the shard construction
 * they share with their tests (not part of the public sim API).
 *
 * A chip's shard is the subgraph its vertices induce: the intra-chip
 * edges, with local ids that ascend with the global ids. Snapshot 0 is
 * one walk of the chip's rows of the global snapshot 0; every later
 * snapshot is Csr::patched from the global delta restricted to the
 * chip, and that restriction is the shard's delta, so no edge list is
 * materialized, sorted or diffed per snapshot. Cross-chip edges are
 * counted, not sharded: the boundary egress of snapshot 0 comes from
 * one walk, and each later snapshot's carries forward by +/-1 per
 * cross-chip delta edge.
 */

#ifndef DITILE_SIM_SCALEOUT_INTERNAL_HH
#define DITILE_SIM_SCALEOUT_INTERNAL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "graph/dynamic_graph.hh"
#include "sim/scaleout.hh"

namespace ditile::sim {

struct Evaluation;
struct RunResult;
class PlanCache;

/** The vertex universe cut per chip by a recorded assignment. */
struct ShardLayout
{
    /** Owning chip of each global vertex. */
    std::vector<int> chipOf;

    /** Each chip's global vertex ids, ascending (index = local id). */
    std::vector<std::vector<VertexId>> globalIds;
};

/**
 * Cut `num_vertices` vertices by the spec's chunk assignment. Throws
 * InputError when the assignment leaves a chip without vertices.
 */
ShardLayout shardLayout(const ScaleOutSpec &spec, VertexId num_vertices);

/**
 * Chip `chip`'s shard of `dg`: every snapshot's intra-chip edges in
 * local ids, with the global deltas restricted to the chip as its
 * deltas. Equal, snapshot for snapshot and delta for delta, to the
 * shard rebuilt from each snapshot's edge list and diffed back.
 */
graph::DynamicGraph buildShard(const graph::DynamicGraph &dg,
                               const ShardLayout &layout, int chip);

/**
 * Cross-chip adjacency entries whose source vertex lives on chip c at
 * snapshot t (the chip's boundary egress), row-major [T * chips]. An
 * undirected cross edge counts once on each endpoint's chip.
 */
std::vector<std::uint64_t> crossEgress(const graph::DynamicGraph &dg,
                                       const ShardLayout &layout);

/**
 * evaluate() of a chips > 1 plan: shard the graph, plan each shard
 * through `cache` (when null, a run-local cache still shares plans
 * across this run's chips) and evaluate every chip, serially in chip
 * order, each on its chip's trace track group.
 */
Evaluation evaluateScaleOut(const graph::DynamicGraph &dg,
                            const ExecutionPlan &plan, PlanCache *cache);

/**
 * schedule() of a chips > 1 evaluation: each chip's timeline on its
 * chip's track group, then the cluster task graph under the plan's
 * overlap option and link, on the group after the chips'.
 */
RunResult scheduleScaleOut(const Evaluation &eval,
                           const ExecutionPlan &plan);

} // namespace ditile::sim

#endif // DITILE_SIM_SCALEOUT_INTERNAL_HH
