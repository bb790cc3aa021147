/**
 * @file
 * ExecutionPlan: the serializable intermediate representation between
 * the Figure-5 front end and the execution engine.
 *
 * The paper separates planning from execution: workload computation ->
 * Algorithm-1 strategy adjustment -> Algorithm-2 balanced workload ->
 * redundancy-free execution planning -> NoC reconfiguration, all
 * before the tile array runs. An ExecutionPlan captures every output
 * of those stages as one value:
 *
 *   - the resolved hardware instance (topology included),
 *   - the model shape the plan was derived for,
 *   - the MappingSpec (vertex rows, snapshot columns),
 *   - the engine policy knobs (EngineOptions),
 *   - the Algorithm-1 ParallelPlan (tiling factor, Ps/Pv),
 *   - the Algorithm-2 BDW group assignments,
 *   - the Re-Link reconfiguration schedule (the options' adaptive
 *     mode and per-snapshot switch budget; span selection stays in
 *     the §6.1 runtime controller, which reacts to realized traffic),
 *   - the per-snapshot redundancy-free SnapshotPlans.
 *
 * Plans are pure data: executePlan() replays one bit-identically at
 * any thread count, plans serialize to/from JSON for offline
 * inspection and re-execution, and a content hash keys the PlanCache
 * so sweeps and ablations plan once and execute many times.
 */

#ifndef DITILE_SIM_EXECUTION_PLAN_HH
#define DITILE_SIM_EXECUTION_PLAN_HH

#include <memory>
#include <string>
#include <vector>

#include "model/incremental.hh"
#include "sim/engine.hh"
#include "sim/fault_model.hh"
#include "sim/scaleout.hh"
#include "tiling/optimizer.hh"
#include "workload/balance.hh"

namespace ditile::sim {

class PlanCache;

/**
 * Complete, serializable execution plan for one (workload, model,
 * accelerator) triple.
 */
struct ExecutionPlan
{
    /** Formed-by accelerator, e.g. "DiTile-DGNN" or "RACE". */
    std::string acceleratorName;

    /** Workload the plan was derived for (provenance only). */
    std::string workloadName;

    /**
     * Content key of the workload-digest inputs the plan was derived
     * from (graph structure + GCN depth, see workload::loadDigestKey).
     * Ties a serialized plan to the digest entries it can reuse and
     * participates in the content hash; 0 in documents predating the
     * field.
     */
    std::uint64_t workloadDigest = 0;

    /** Resolved hardware instance, NoC topology included. */
    AcceleratorConfig hw;

    /** Model shape the snapshot plans were computed against. */
    model::DgnnConfig modelConfig;

    /** Work placement onto the tile grid. */
    MappingSpec mapping;

    /** Engine policy knobs, the Re-Link schedule's included. */
    EngineOptions options;

    /** Algorithm-1 output (analytic defaults for the baselines). */
    tiling::ParallelPlan parallel;

    /** Algorithm-2 BDW groups (empty for the baselines). */
    std::vector<workload::BalancedGroup> groups;

    /**
     * Fault-injection schedule (empty = fault-free run). Part of the
     * canonical serialization, so a faulted run replays bit-identically
     * from its plan; documents without the field load as fault-free.
     */
    FaultSpec faults;

    /**
     * Multi-chip scale-out spec (sim/scaleout.hh). Default (chips = 1)
     * means single chip: the plan serializes as plan_format 2 exactly
     * as before; chips > 1 plans serialize as format 3 with a
     * "scaleout" section and execute through runScaleOut().
     */
    ScaleOutSpec scaleout;

    /**
     * Redundancy-free per-snapshot plans, shared so a PlanCache can
     * hand the same (expensive) planner output to many plans.
     */
    std::shared_ptr<const std::vector<model::SnapshotPlan>> snapshots;

    SnapshotId
    numSnapshots() const
    {
        return snapshots
            ? static_cast<SnapshotId>(snapshots->size()) : 0;
    }

    /**
     * FNV-1a hash of the canonical serialization; equal hashes mean
     * semantically identical plans.
     */
    std::uint64_t contentHash() const;

    /** Canonical JSON serialization (self-contained, re-executable). */
    std::string toJson() const;

    /**
     * Rebuild a plan from toJson() output. Throws InputError on
     * malformed, incomplete or out-of-range documents, and on a
     * "relink" section that disagrees with its "options". Round-trips
     * bit-exactly: executing the parsed plan reproduces the original
     * RunResult.
     */
    static ExecutionPlan fromJson(const std::string &text);
};

/**
 * Assemble a plan from engine inputs: captures the IncrementalPlanner
 * output (via `cache` when given, so equal planning inputs share one
 * snapshot-plan set).
 */
ExecutionPlan buildEnginePlan(const graph::DynamicGraph &dg,
                              const model::DgnnConfig &model_config,
                              const AcceleratorConfig &hw,
                              const MappingSpec &mapping,
                              const EngineOptions &options,
                              const std::string &accelerator_name,
                              PlanCache *cache = nullptr);

/**
 * Execute a plan over a dynamic graph and return the full result
 * record. Pure replay: all planning decisions come from the plan; the
 * graph supplies the adjacency the plan's vertex sets index into, and
 * must structurally match the planning-time workload. Scale-out plans
 * (scaleout.enabled()) dispatch to runScaleOut(); `scaleout_cache`
 * optionally shares the per-shard snapshot-plan sets across chips and
 * repeated runs, and is ignored by single-chip plans.
 */
RunResult executePlan(const graph::DynamicGraph &dg,
                      const ExecutionPlan &plan,
                      PlanCache *scaleout_cache = nullptr);

} // namespace ditile::sim

#endif // DITILE_SIM_EXECUTION_PLAN_HH
