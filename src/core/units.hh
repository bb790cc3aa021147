/**
 * @file
 * The DiTile-DGNN front-end units of Figure 5 (a), as functions.
 *
 * The accelerator overview names four pre-execution blocks: the
 * Workload Computation Unit (per-vertex load labels, which is
 * workload::computeVertexLoads), the Parallelization Strategy
 * Adjuster (Algorithm 1), the Balanced and Dynamic Workload Generator
 * (Algorithm 2 + BDW reservoir), and the Reconfiguration Unit (NoC
 * mode selection). Each is a pure function of its inputs, so
 * DiTileAccelerator::plan() reads like the paper's step (1)-(9)
 * walkthrough and SharedFrontEnd memoizes the same calls.
 */

#ifndef DITILE_CORE_UNITS_HH
#define DITILE_CORE_UNITS_HH

#include <vector>

#include "graph/dynamic_graph.hh"
#include "graph/partition.hh"
#include "model/dgnn_config.hh"
#include "noc/message.hh"
#include "sim/accel_config.hh"
#include "tiling/optimizer.hh"
#include "workload/balance.hh"

namespace ditile::core {

/**
 * Step (3): derives the tiling factor and parallel factors from the
 * application and hardware features (Algorithm 1).
 *
 * @param optimize Run the full Algorithm 1 search; when false the
 *        adjuster returns the naive static strategy (per-snapshot
 *        temporal spread, all rows, fragmented tiling) used by the
 *        NoPs ablation.
 */
tiling::ParallelPlan
adjustStrategy(const graph::DynamicGraph &dg,
               const model::DgnnConfig &model_config,
               const sim::AcceleratorConfig &hw, bool optimize);

/** Steps (4)-(6) output: the balanced and dynamic workload (BDW)
 *  mapping the tile array consumes. */
struct WorkloadMapping
{
    graph::VertexPartition rowPartition;
    std::vector<int> snapshotColumn;
    std::vector<workload::BalancedGroup> groups;
};

/**
 * Steps (4)-(6): turns loads + parallel factors into the BDW mapping.
 *
 * @param balance Apply Algorithm 2's sort + round-robin; when false
 *        vertices are placed contiguously (NoWos ablation).
 */
WorkloadMapping
generateWorkload(const graph::DynamicGraph &dg,
                 const std::vector<double> &loads,
                 const tiling::ParallelPlan &plan,
                 const sim::AcceleratorConfig &hw, bool balance);

/** Step (9) output: the interconnect operating mode. */
struct InterconnectMode
{
    noc::TopologyKind topology = noc::TopologyKind::Reconfigurable;
    std::uint64_t reconfigEventsPerSnapshot = 0;
};

/**
 * Step (9): selects the interconnect operating mode and accounts for
 * the reconfiguration events the Re-Link switches consume.
 *
 * @param reconfigurable False selects the fixed mesh (NoRa).
 */
InterconnectMode configureInterconnect(bool reconfigurable);

} // namespace ditile::core

#endif // DITILE_CORE_UNITS_HH
