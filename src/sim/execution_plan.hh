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
     * "scaleout" section and execute as a ChipCluster.
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
 * Hash of every plan field an evaluation reads: the whole plan
 * document except the options' overlap, the scale-out link and the
 * snapshot plans, mixed field by field without serializing anything.
 * Equal hashes over the same snapshot-plan set mean one evaluation
 * serves both plans (PlanCache::evaluation keys on the pair).
 */
std::uint64_t evaluationFieldsHash(const ExecutionPlan &plan);

/**
 * Hash of the fields of `plan` a snapshot's Stage-1 placement may
 * read: the plan's fields walked as evaluationFieldsHash walks them,
 * with two kinds cleared. Those the placement never reads: the names
 * and the workload digest, the Algorithm-1 and -2 outputs, the
 * accounting options, the DRAM traffic scale, the energy scales, the
 * overlap option and the scale-out link. Those its per-snapshot key
 * mixes itself: the snapshot plans and the snapshot columns. A field
 * added to planFields() is keyed.
 */
std::uint64_t placementFieldsHash(const ExecutionPlan &plan);

/**
 * What a run's timeline-independent stages produce (see the stage list
 * in sim/engine.cc): per-snapshot work, the DRAM replay, the Re-Link
 * decisions and the deferred NoC replays, reduced to compact results.
 * No DRAM request or NoC message vector outlives evaluate().
 */
struct Evaluation
{
    /**
     * The run record without its timeline: totalCycles, each trace
     * row's gnnDone/rnnDone, taskGraph and stats are left for
     * schedule(). The rows' phase cycles are the task durations.
     */
    RunResult result;

    /** Counters only the extended stats report. */
    std::uint64_t nocMessages = 0;
    std::uint64_t digestFullFastpath = 0;
    std::uint64_t digestRnnFastpath = 0;
    std::uint64_t relinkEngaged = 0;
    dram::DramResult dramTotal;

    /** Scale-out plans: each chip's evaluation, in chip order, and
     *  the boundary egress per (snapshot, chip), row-major
     *  [T * chips] (see crossEgress in sim/scaleout_internal.hh). */
    std::vector<Evaluation> chips;
    std::vector<std::uint64_t> crossEgress;
};

/**
 * Run every stage of a plan that no timeline option changes. Throws
 * InputError when the plan does not fit the graph (its snapshot count
 * first). A single-chip plan shares each snapshot's placement through
 * `cache`'s memo (PlanCache::placement). A scale-out plan shards the
 * graph, plans each shard through `cache` (or a run-local cache) and
 * evaluates every chip without a cache.
 */
Evaluation evaluate(const graph::DynamicGraph &dg,
                    const ExecutionPlan &plan,
                    PlanCache *cache = nullptr);

/**
 * Time an evaluation under the plan's timeline: annotate the task
 * graph with the evaluation's durations, schedule it, and emit the
 * stats, trace spans and registry totals. `plan` must be the
 * evaluated plan, up to its overlap option and scale-out link.
 */
RunResult schedule(const Evaluation &eval, const ExecutionPlan &plan);

/**
 * Execute a plan over a dynamic graph and return the full result
 * record: evaluate(), then schedule(). Pure replay: all planning
 * decisions come from the plan; the graph supplies the adjacency the
 * plan's vertex sets index into, and must structurally match the
 * planning-time workload. `cache` (optional) shares work across
 * chips and repeated runs: it memoizes the evaluation, so a run that
 * differs from an earlier one only in its overlap option or its
 * scale-out link only re-schedules; on a single chip it memoizes each
 * snapshot's placement, so runs that share a snapshot, its plan and
 * its placement inputs (a sweep's T=16 point after its T=8 point)
 * place it once; and it shares the per-shard snapshot-plan sets of
 * scale-out plans.
 */
RunResult executePlan(const graph::DynamicGraph &dg,
                      const ExecutionPlan &plan,
                      PlanCache *cache = nullptr);

} // namespace ditile::sim

#endif // DITILE_SIM_EXECUTION_PLAN_HH
