/**
 * @file
 * Shared execution-engine implementation.
 *
 * ### Plan replay, parallel evaluation, serial semantics
 *
 * The engine executes an ExecutionPlan: every planning decision (the
 * mapping, the policy knobs, the per-snapshot redundancy-free plans,
 * the reconfiguration schedule) is pure data computed before the first
 * simulated cycle (buildEnginePlan assembles one from engine inputs;
 * executePlan replays it).
 *
 * Snapshots mapped to different tile columns are independent by
 * construction (paper §4): given the plan's per-snapshot work sets,
 * everything per snapshot — op/byte accounting, the per-tile compute
 * distribution, the detailed tile timing and the NoC replays — is a
 * pure function of that snapshot. Only three things chain across
 * snapshots: the DRAM device state (row buffers + completion cursor),
 * the Re-Link controller's engaged span, and the result accumulators.
 *
 * A run is two functions. evaluate() runs every stage no timeline
 * option changes:
 *
 *   1. *parallel* per-snapshot evaluation into one SnapshotWork slot
 *      per snapshot (snapshot_eval.cc; per-tile sub-models fan out a
 *      second level). Each snapshot's work is a per-run part (ops and
 *      DRAM bytes, the DRAM requests) and a placement part (compute
 *      distribution, critical-slot cycles, NoC replays); a PlanCache
 *      shares the placement between runs that agree on its inputs,
 *      so a sweep's T=16 point places only the snapshots its T=8
 *      point did not,
 *   2. *serial* DRAM replay and Re-Link decisions in snapshot order,
 *   3. *parallel* spatial NoC replay for snapshots whose span was
 *      only known after stage 2 (adaptive Re-Link),
 *   4. *serial* merge of every accumulator in canonical snapshot
 *      order into an Evaluation: the run record without its timeline
 *      (trace rows carrying each phase's cycles, energy, resilience)
 *      plus the counters the stats report. No DRAM request or NoC
 *      message outlives it.
 *
 * schedule() then times the evaluation: it annotates the task DAG
 * with the rows' durations, runs the scheduler, and emits the stats,
 * trace spans and registry totals (run_trace.cc) from its schedule.
 * executePlan is evaluate() then schedule(); a PlanCache passed to it
 * memoizes the evaluation, so runs that differ only in the overlap
 * option (or, on a cluster, the inter-chip link) share one. Both memos
 * are silent, and a hit changes no engine.* or cache.* count: the
 * digest fast-path counters follow the plan, not the work done.
 *
 * The timeline is one task DAG (task_graph.cc) over the per-task
 * durations the stages produced, timed by the deterministic list
 * scheduler (scheduler.cc). The two modes differ only in the DAG's
 * edges. Overlap mode keeps the true data dependencies, so
 * independent phases pipeline. The staged model (default here,
 * `--no-overlap` in the CLIs) adds the barrier edges of the legacy
 * formulas: column occupancy and a serial configuration tail. The
 * overlap edges are a subset of the staged ones, so on fault-free
 * runs the overlap makespan never exceeds the staged total.
 *
 * All accumulators merged in stage 4 are integers and the per-index
 * slots make the schedule invisible, so results are bit-identical to
 * the single-threaded path at any thread count (asserted by
 * parallel_test.cc). Width comes from ThreadPool::global(), i.e. the
 * --threads flag; the default of 1 runs the loop inline.
 */

#include "sim/engine.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "noc/network.hh"
#include "noc/relink_controller.hh"
#include "sim/engine_internal.hh"
#include "sim/execution_plan.hh"
#include "sim/fault_model.hh"
#include "sim/plan_cache.hh"
#include "sim/run_trace.hh"
#include "sim/scaleout_internal.hh"
#include "sim/scheduler.hh"
#include "sim/task_graph.hh"
#include "workload/balance.hh"
#include "workload/digest.hh"

namespace ditile::sim {

using detail::SnapshotWork;

namespace {

/** Stages 1-3 of a single-chip plan, reduced in snapshot order;
 *  `cache` (optional) memoizes each snapshot's placement. */
Evaluation
evaluateChip(const graph::DynamicGraph &dg, const ExecutionPlan &plan,
             PlanCache *cache)
{
    const AcceleratorConfig &hw = plan.hw;
    const model::DgnnConfig &model_config = plan.modelConfig;
    const MappingSpec &mapping = plan.mapping;
    const EngineOptions &options = plan.options;

    const SnapshotId num_snapshots = dg.numSnapshots();
    const VertexId num_vertices = dg.numVertices();
    const int feature_dim = dg.featureDim();
    const auto bpv = static_cast<ByteCount>(model_config.bytesPerValue);
    const auto z_bytes =
        static_cast<ByteCount>(model_config.gnnOutputDim()) * bpv;
    const auto h_bytes =
        static_cast<ByteCount>(model_config.lstmHidden) * bpv;

    const std::vector<model::SnapshotPlan> &snapshot_plans =
        *plan.snapshots;
    const graph::VertexPartition &partition = mapping.spatialOnly
        ? mapping.tilePartition : mapping.rowPartition;
    if (partition.numVertices() != num_vertices)
        DITILE_THROW("plan partition does not cover the graph: ",
                     partition.numVertices(), " vs ", num_vertices);
    if (!mapping.spatialOnly &&
        mapping.snapshotColumn.size() != snapshot_plans.size())
        DITILE_THROW("snapshot->column map must cover every snapshot");

    dram::DramModel dram_model(hw.dram);

    // Stable address regions so row-buffer locality behaves like a real
    // allocation would.
    dram::RegionAllocator regions;
    const auto feature_bytes_total = static_cast<ByteCount>(num_vertices) *
        static_cast<ByteCount>(feature_dim) * bpv;
    const std::uint64_t weight_base = regions.allocate(16u << 20);
    const std::uint64_t adjacency_base = regions.allocate(
        static_cast<ByteCount>(dg.maxEdges()) * 16 + 4096);
    const std::uint64_t feature_base =
        regions.allocate(feature_bytes_total + 4096);
    const std::uint64_t intermediate_base = regions.allocate(
        static_cast<ByteCount>(num_vertices) * z_bytes * 4 + 4096);
    const std::uint64_t output_base = regions.allocate(
        static_cast<ByteCount>(num_vertices) * (z_bytes + 2 * h_bytes)
        + 4096);

    Evaluation eval;
    RunResult &result = eval.result;
    result.acceleratorName = plan.acceleratorName;
    result.workloadName = dg.name();

    const double tile_macs = hw.macsPerTile();
    const OpCount rnn_vertex_macs =
        model::rnnMacsPerVertex(model_config);
    const bool adaptive_relink = options.adaptiveRelink &&
        hw.noc.topology == noc::TopologyKind::Reconfigurable;

    // Resolve the planned vertex->slot assignment once per mapping:
    // the hot loops index a flat array instead of re-checking the
    // mapping kind and remap state per vertex visit.
    const int compute_slots = mapping.spatialOnly ? hw.totalTiles()
                                                  : hw.tileRows;
    std::vector<int> base_owner(static_cast<std::size_t>(num_vertices));
    for (VertexId v = 0; v < num_vertices; ++v) {
        const int owner = partition.owner(v);
        if (owner < 0 || owner >= compute_slots)
            DITILE_THROW("plan places vertex ", v, " on slot ", owner);
        base_owner[static_cast<std::size_t>(v)] = owner;
    }
    const bool use_digest = workload::digestEnabled();

    // Per-layer dimension sums for the digest fast paths.
    OpCount sum_in_dims = 0;
    OpCount sum_in_out_dims = 0;
    for (int l = 0; l < model_config.numGcnLayers(); ++l) {
        const auto in_dim = static_cast<OpCount>(
            model_config.gcnInputDim(l, feature_dim));
        const auto out_dim =
            static_cast<OpCount>(model_config.gcnOutputDim(l));
        sum_in_dims += in_dim;
        sum_in_out_dims += in_dim * out_dim;
    }

    ThreadPool &pool = ThreadPool::global();
    std::vector<SnapshotWork> work(
        static_cast<std::size_t>(num_snapshots));

    // ---- Fault resolution + degraded-mode BDW re-deal. ----
    // A non-empty fault schedule resolves into per-snapshot fault
    // state; snapshots whose column lost tiles get their vertex
    // assignment re-dealt (Algorithm 2 over the survivors). All fault
    // state is pure per-snapshot data computed up front, so the
    // parallel stages below stay bit-identical at any thread width.
    std::unique_ptr<FaultModel> fault_model;
    if (!plan.faults.empty()) {
        fault_model = std::make_unique<FaultModel>(plan.faults, hw,
                                                   num_snapshots);
    }
    const FaultModel *fm = fault_model.get();
    std::vector<std::vector<int>> owner_remap(
        static_cast<std::size_t>(num_snapshots));
    std::vector<int> dead_slots(
        static_cast<std::size_t>(num_snapshots), 0);
    std::vector<std::uint64_t> remap_moved(
        static_cast<std::size_t>(num_snapshots), 0);
    if (fm) {
        warnOnce("fault injection active for '", dg.name(),
                 "': executing in degraded mode");
        // The digest already holds every snapshot's Eq.-17 loads
        // (bit-identical to computeSnapshotLoads), so the pre-pass
        // shares the one construction with the balancer instead of
        // re-walking L x E per degraded snapshot.
        std::shared_ptr<const workload::LoadDigest> fault_loads;
        if (use_digest) {
            fault_loads = workload::DigestCache::global().loads(
                dg, model_config.numGcnLayers());
        }
        parallelFor(static_cast<std::size_t>(num_snapshots),
                    [&](std::size_t i) {
            const auto t = static_cast<SnapshotId>(i);
            const FaultSet &fs = fm->at(t);
            if (!fs.anyTile())
                return;
            const int col = mapping.spatialOnly
                ? 0 : mapping.snapshotColumn[i];
            std::vector<bool> failed(
                static_cast<std::size_t>(compute_slots), false);
            int dead = 0;
            for (int s = 0; s < compute_slots; ++s) {
                const TileId tile = mapping.spatialOnly
                    ? static_cast<TileId>(s)
                    : static_cast<TileId>(s * hw.tileCols + col);
                if (fs.deadTile[static_cast<std::size_t>(tile)]) {
                    failed[static_cast<std::size_t>(s)] = true;
                    ++dead;
                }
            }
            if (dead == 0)
                return;
            dead_slots[i] = dead;
            std::vector<double> scratch_loads;
            const std::vector<double> *loads;
            if (fault_loads) {
                loads = fault_loads->snapshotLoads[i].get();
            } else {
                scratch_loads = workload::computeSnapshotLoads(
                    dg.snapshot(t), model_config.numGcnLayers());
                loads = &scratch_loads;
            }
            auto remapped = workload::remapFailedParts(
                *loads, base_owner, failed, compute_slots);
            for (std::size_t v = 0; v < base_owner.size(); ++v) {
                if (remapped[v] != base_owner[v])
                    ++remap_moved[i];
            }
            owner_remap[i] = std::move(remapped);
        }, &pool);
    }

    // Partition digest for the full-recompute fast paths. It
    // summarizes the *planned* assignment, so degraded snapshots whose
    // owners were re-dealt take the scratch loops regardless. Rows are
    // read only on full-recompute snapshots without detailed tile
    // timing, so it covers up to the last of those; the RNN and
    // boundary fast paths read just slotVertexCount.
    std::shared_ptr<const workload::PartitionDigest> pdigest;
    if (use_digest) {
        bool wanted = false;
        SnapshotId rows = 0;
        for (SnapshotId t = 0; t < num_snapshots; ++t) {
            const auto &sp = snapshot_plans[static_cast<std::size_t>(t)];
            wanted = wanted || sp.fullRecompute || sp.rnnVertices.isAll();
            if (sp.fullRecompute && !options.detailedTileTiming)
                rows = t + 1;
        }
        if (wanted) {
            pdigest = workload::DigestCache::global().partition(
                dg, base_owner, compute_slots, rows);
        }
    }

    // ---- Stage 1: parallel per-snapshot evaluation. ----
    const detail::EvalContext ctx{
        dg, plan, snapshot_plans,
        bpv, z_bytes, h_bytes, feature_bytes_total,
        weight_base, adjacency_base, feature_base, intermediate_base,
        output_base,
        compute_slots, tile_macs, rnn_vertex_macs, adaptive_relink,
        sum_in_dims, sum_in_out_dims,
        base_owner, owner_remap, fm, pdigest.get(), pool,
        cache, cache ? placementFieldsHash(plan) : 0};
    parallelFor(static_cast<std::size_t>(num_snapshots),
                [&](std::size_t i) {
        detail::evaluateSnapshot(ctx, i, work[i]);
    }, &pool);
    if (cache) {
        // Recency follows snapshot order, not which worker looked up
        // first.
        std::vector<std::uint64_t> keys;
        keys.reserve(work.size());
        for (const SnapshotWork &w : work)
            keys.push_back(w.placementKey);
        cache->retainPlacements(keys);
    }

    // ---- Stage 2: serial DRAM replay + Re-Link decisions. ----
    // Row-buffer state and the completion cursor chain snapshot to
    // snapshot; the controller's engaged span likewise. Each
    // snapshot's device outcome lands in its trace row.
    noc::RelinkController relink_controller(hw.tileRows);
    result.trace.resize(static_cast<std::size_t>(num_snapshots));
    Cycle dram_cursor = 0;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        SnapshotWork &w = work[i];
        SnapshotTrace &row = result.trace[i];
        row.snapshot = t;
        row.column = mapping.spatialOnly ? 0 : mapping.snapshotColumn[i];
        for (auto &request : w.requests)
            request.issueCycle = dram_cursor;
        row.dram = dram_model.service(w.requests);
        dram_cursor = std::max(dram_cursor, row.dram.completionCycle);
        if (fm && fm->at(t).anyDram()) {
            // Transient channel errors: a seeded fraction of this
            // snapshot's reads fails ECC and is re-read after the
            // primary stream completes. Sampling is keyed off the
            // (plan seed, snapshot) pair only, so the retry set is
            // independent of thread width and replay order.
            const FaultSet &fs = fm->at(t);
            const double p = clamp(
                plan.faults.dramRetryFraction *
                    static_cast<double>(fs.dramFaultChannels) /
                    static_cast<double>(hw.dram.channels),
                0.0, 1.0);
            Rng rng(mix64(plan.faults.seed ^
                          (0x9e3779b97f4a7c15ULL *
                           (static_cast<std::uint64_t>(t) + 1))));
            std::vector<dram::DramRequest> retries;
            for (const auto &request : w.requests) {
                if (request.write || request.bytes == 0)
                    continue;
                if (rng.bernoulli(p))
                    retries.push_back(request);
            }
            if (!retries.empty()) {
                for (auto &request : retries)
                    request.issueCycle = dram_cursor;
                const auto retry_res = dram_model.service(retries);
                row.dramRetryRequests = retries.size();
                row.dramRetryBytes = retry_res.totalBytes();
                row.dramRetryCycles =
                    retry_res.completionCycle > dram_cursor
                        ? retry_res.completionCycle - dram_cursor : 0;
                dram_cursor = std::max(dram_cursor,
                                       retry_res.completionCycle);
                row.dram += retry_res;
            }
        }
        result.energyEvents.dramBytes += row.dram.totalBytes();
        result.energyEvents.dramActivates +=
            row.dram.rowMisses + row.dram.rowConflicts;
        row.dramDone = dram_cursor;
        if (w.placement->spatialPending) {
            // Stuck-open bypass columns force span-1 routing for the
            // traffic crossing them; the controller prices that into
            // its engage/bypass decision as a per-message blend.
            double stuck_open = 0.0;
            if (fm && hw.tileCols > 0) {
                const auto &nf = fm->at(t).noc;
                int stuck = 0;
                for (int c = 0; c < hw.tileCols; ++c) {
                    if (nf.spanOverride(c) == 1)
                        ++stuck;
                }
                stuck_open = static_cast<double>(stuck) /
                    static_cast<double>(hw.tileCols);
            }
            const auto decision = relink_controller.decide(
                w.placement->spatialDistances, hw.noc.routerLatencyCycles,
                stuck_open);
            row.relinkSpan = decision.span;
            result.energyEvents.reconfigEvents +=
                decision.reconfigEvents;
        }
    }

    // ---- Stage 3: deferred spatial replays, span now known. ----
    if (adaptive_relink) {
        parallelFor(static_cast<std::size_t>(num_snapshots),
                    [&](std::size_t i) {
            SnapshotWork &w = work[i];
            if (!w.placement->spatialPending)
                return;
            const auto t = static_cast<SnapshotId>(i);
            const noc::NocFaults *noc_faults =
                fm && fm->at(t).anyNoc() ? &fm->at(t).noc : nullptr;
            noc::NocConfig noc_config = hw.noc;
            noc_config.reLinkSpan = result.trace[i].relinkSpan;
            w.relinkedSpatial = noc::simulateTraffic(
                noc_config, w.placement->spatialMsgs, noc_faults);
        }, &pool);
    }

    // ---- Ordered reduction into the result record. ----
    // Every accumulator is an integer count (the capacity sum aside,
    // which keeps its own serial order), merged in ascending snapshot
    // order, so this reproduces the serial loop exactly. Each trace
    // row keeps its snapshot's phase cycles: they are the task
    // durations schedule() annotates.
    result.configCycles = static_cast<Cycle>(num_snapshots) *
        hw.perSnapshotConfigCycles;
    // Busy MAC-cycles are offered by the tiles assigned to each
    // compute phase (critical-path window x full per-tile array), so
    // imbalance and statically-partitioned idle regions both show up
    // as lost capacity.
    const int active_tiles = mapping.spatialOnly ? hw.totalTiles()
                                                 : hw.tileRows;
    double capacity = 0.0;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const SnapshotWork &w = work[i];
        const detail::SnapshotPlacement &p = *w.placement;
        const noc::NocResult &spatial = w.spatial();
        SnapshotTrace &row = result.trace[i];
        result.ops += w.ops;
        result.dramTraffic += w.dramTraffic;
        result.energyEvents.localBufferBytes += p.localBufferBytes;
        result.nocBytes += spatial.totalBytes;
        result.nocBytesSpatial += spatial.totalBytes;
        result.energyEvents.nocLinkBytes += spatial.hopBytes;
        result.energyEvents.nocRouterBytes += spatial.routerBytes;
        if (p.hasTemporal) {
            result.nocBytes += p.temporal.totalBytes;
            result.nocBytesTemporal +=
                p.temporal.bytesByClass[static_cast<int>(
                    noc::TrafficClass::Temporal)];
            result.nocBytesReuse += p.temporal.bytesByClass[
                static_cast<int>(noc::TrafficClass::Reuse)];
            result.energyEvents.nocLinkBytes += p.temporal.hopBytes;
            result.energyEvents.nocRouterBytes += p.temporal.routerBytes;
            if (options.reuseFifoForwarding)
                result.energyEvents.reuseFifoBytes += p.reuseTotal;
        }
        result.computeCycles += p.gnnCompute + p.rnnCompute;
        result.onChipCommCycles +=
            spatial.makespan + p.temporal.makespan;
        // Dead tiles offer no capacity; fault-free runs see the
        // unmodified tile count (dead_slots stays all-zero).
        capacity += static_cast<double>(active_tiles - dead_slots[i]) *
            tile_macs *
            (options.gnnMacFraction * static_cast<double>(p.gnnCompute) +
             options.rnnMacFraction * static_cast<double>(p.rnnCompute));

        row.gnnComputeCycles = p.gnnCompute;
        row.rnnComputeCycles = p.rnnCompute;
        row.spatialCommCycles = spatial.makespan;
        row.temporalCommCycles = p.temporal.makespan;
        row.spatialBytes = spatial.totalBytes;
        row.spatialMessages = spatial.numMessages;
        row.temporalBytes = p.temporal.bytesByClass[static_cast<int>(
            noc::TrafficClass::Temporal)];
        row.reuseBytes = p.temporal.bytesByClass[static_cast<int>(
            noc::TrafficClass::Reuse)];
        eval.nocMessages +=
            spatial.numMessages + p.temporal.numMessages;
        eval.dramTotal += row.dram;
        eval.relinkEngaged += row.relinkSpan > 1 ? 1 : 0;
        const model::SnapshotPlan &splan = snapshot_plans[i];
        const bool digest_snapshot = pdigest && owner_remap[i].empty();
        eval.digestFullFastpath += digest_snapshot &&
                splan.fullRecompute && !options.detailedTileTiming
            ? 1 : 0;
        eval.digestRnnFastpath +=
            digest_snapshot && splan.rnnVertices.isAll() ? 1 : 0;
    }

    result.offChipCycles = dram_cursor;
    result.peUtilization = capacity > 0.0
        ? static_cast<double>(result.ops.totalMacs()) / capacity : 0.0;

    // ---- Energy assembly. ----
    result.energyEvents.macs = result.ops.totalMacs();
    result.energyEvents.aluOps = result.ops.elementwiseOps;
    result.energyEvents.activations = result.ops.activationOps;
    // Operand traffic into the MAC arrays after register-level reuse
    // (added on top of any staging traffic the detailed tile model
    // accumulated).
    result.energyEvents.localBufferBytes += result.ops.totalMacs() * 2;
    // Everything staged through the distributed buffers: off-chip data
    // both directions plus inter-tile payloads.
    result.energyEvents.distBufferBytes =
        result.energyEvents.dramBytes * 2 + result.nocBytes;
    // Mode-switch events per snapshot, on top of any adaptive Re-Link
    // toggles counted during the NoC phases.
    result.energyEvents.reconfigEvents +=
        options.reconfigEventsPerSnapshot *
        static_cast<std::uint64_t>(num_snapshots);
    result.energy = energy::computeEnergy(result.energyEvents,
                                          hw.energyTable);
    result.energy.computePj *= options.computeEnergyScale;
    result.energy.onChipCommPj *= options.onChipEnergyScale;
    result.energy.offChipCommPj *= options.offChipEnergyScale;

    // ---- Resilience report. ----
    if (fm) {
        ResilienceReport &rr = result.resilience;
        rr.enabled = true;
        rr.injectedTileFaults = fm->tileFaults();
        rr.injectedLinkFaults = fm->linkFaults();
        rr.injectedBypassFaults = fm->bypassFaults();
        rr.injectedDramFaults = fm->dramFaults();
        rr.degradedSnapshots = fm->degradedSnapshots();
        double offline = 0.0;
        for (SnapshotId t = 0; t < num_snapshots; ++t) {
            const auto i = static_cast<std::size_t>(t);
            const noc::NocResult &spatial = work[i].spatial();
            const noc::NocResult &temporal = work[i].placement->temporal;
            const SnapshotTrace &row = result.trace[i];
            const std::uint64_t rerouted = spatial.reroutedMessages +
                temporal.reroutedMessages;
            const std::uint64_t retried = spatial.retriedMessages +
                temporal.retriedMessages;
            const Cycle backoff = spatial.retryBackoffCycles +
                temporal.retryBackoffCycles;
            rr.remappedVertices += remap_moved[i];
            rr.reroutedMessages += rerouted;
            rr.retriedMessages += retried;
            rr.nocRetryBackoffCycles += backoff;
            rr.dramRetryRequests += row.dramRetryRequests;
            rr.dramRetryBytes += row.dramRetryBytes;
            rr.dramRetryCycles += row.dramRetryCycles;
            offline += static_cast<double>(dead_slots[i]) /
                static_cast<double>(active_tiles);
            if (dead_slots[i] > 0) {
                rr.events.push_back(
                    {t, "tile-remap",
                     std::to_string(dead_slots[i]) +
                         " compute slot(s) offline; re-dealt " +
                         std::to_string(remap_moved[i]) + " vertices"});
            }
            if (rerouted > 0) {
                rr.events.push_back(
                    {t, "noc-reroute",
                     std::to_string(rerouted) +
                         " message(s) took non-minimal routes around "
                         "dead links"});
            }
            if (retried > 0) {
                rr.events.push_back(
                    {t, "noc-retry",
                     std::to_string(retried) + " message(s) paid " +
                         std::to_string(backoff) +
                         " backoff cycles on unavoidable dead links"});
            }
            if (row.dramRetryRequests > 0) {
                rr.events.push_back(
                    {t, "dram-retry",
                     std::to_string(row.dramRetryRequests) +
                         " read request(s) re-streamed (" +
                         std::to_string(row.dramRetryBytes) +
                         " bytes)"});
            }
        }
        rr.degradedCapacityFraction = num_snapshots > 0
            ? offline / static_cast<double>(num_snapshots) : 0.0;
    }

    return eval;
}

} // namespace

Evaluation
evaluate(const graph::DynamicGraph &dg, const ExecutionPlan &plan,
         PlanCache *cache)
{
    DITILE_ASSERT(plan.snapshots != nullptr,
                  "execution plan has no snapshot plans");
    // A plan loaded from a file (--plan-in) may have been made for
    // another workload: reject the mismatch as bad input, before a
    // scale-out plan sizes its cluster from either count.
    if (plan.numSnapshots() != dg.numSnapshots())
        DITILE_THROW("plan has ", plan.numSnapshots(),
                     " snapshots, the workload ", dg.numSnapshots());
    return plan.scaleout.enabled()
        ? evaluateScaleOut(dg, plan, cache)
        : evaluateChip(dg, plan, cache);
}

RunResult
detail::scheduleChip(const Evaluation &eval, const ExecutionPlan &plan)
{
    RunResult result = eval.result;
    const auto num_snapshots = static_cast<SnapshotId>(result.trace.size());

    // ---- Timeline: annotate the structural task DAG with the
    // evaluation's durations. Staged mode charges the whole
    // configuration time to the last Re-Link task; overlap mode gives
    // every snapshot its own (task_graph.cc documents both modes'
    // edges). The deterministic scheduler then propagates ready times
    // through the annotated DAG.
    TaskGraph tg = buildChipTaskGraph(plan);
    DITILE_ASSERT(tg.bySnapshot.size() == result.trace.size(),
                  "schedule plan and evaluation disagree on snapshots");
    auto node = [&](int id) -> TaskNode & {
        return tg.nodes[static_cast<std::size_t>(id)];
    };
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const SnapshotTrace &row = result.trace[i];
        const auto &st = tg.bySnapshot[i];
        node(st.dram).duration =
            row.dramDone - (t > 0 ? result.trace[i - 1].dramDone : 0);
        node(st.gnn).duration = row.gnnComputeCycles;
        node(st.spatial).duration = row.spatialCommCycles;
        if (st.temporal != -1)
            node(st.temporal).duration = row.temporalCommCycles;
        node(st.rnn).duration = row.rnnComputeCycles;
        if (plan.options.overlap)
            node(st.relink).duration = plan.hw.perSnapshotConfigCycles;
        else if (t + 1 == num_snapshots)
            node(st.relink).duration = result.configCycles;
    }
    const ScheduleResult sched = scheduleTaskGraph(tg);
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const auto &st = tg.bySnapshot[i];
        SnapshotTrace &row = result.trace[i];
        // The DRAM chain reproduces dramDone exactly; the GNN phase
        // is complete once compute, spatial traffic and the off-chip
        // stream have all landed.
        row.gnnDone = std::max(
            {sched.tasks[static_cast<std::size_t>(st.gnn)].finish,
             sched.tasks[static_cast<std::size_t>(st.spatial)].finish,
             row.dramDone});
        row.rnnDone = sched.tasks[static_cast<std::size_t>(st.rnn)].finish;
    }
    result.totalCycles = sched.makespan;
    result.taskGraph = taskGraphStats(tg, sched);

    // ---- Stats, then the trace and registry emitted from them. ----
    writeFieldStats(result);
    if (Tracer::global().metricsEnabled()) {
        // Appended, so the stats JSON with metrics off keeps its
        // exact field sequence.
        const dram::DramResult &dram_total = eval.dramTotal;
        const std::pair<const char *, std::uint64_t> extended[] = {
            {"noc.spatial_bytes", result.nocBytesSpatial},
            {"noc.temporal_bytes", result.nocBytesTemporal},
            {"noc.reuse_bytes", result.nocBytesReuse},
            {"noc.messages", eval.nocMessages},
            {"dram.requests", dram_total.requests},
            {"dram.row_hits", dram_total.rowHits},
            {"dram.row_misses", dram_total.rowMisses},
            {"dram.row_conflicts", dram_total.rowConflicts},
            {"dram.read_bytes", dram_total.readBytes},
            {"dram.write_bytes", dram_total.writeBytes},
            {"engine.digest_full_fastpath", eval.digestFullFastpath},
            {"engine.digest_rnn_fastpath", eval.digestRnnFastpath},
            {"engine.scratch_snapshots",
             static_cast<std::uint64_t>(num_snapshots) -
                 eval.digestFullFastpath},
            {"relink.engaged_snapshots", eval.relinkEngaged},
            {"taskgraph.tasks", tg.nodes.size()},
            {"taskgraph.edges", tg.edges.size()},
            {"taskgraph.lanes", tg.lanes.size()},
            {"taskgraph.critical_tasks", sched.criticalPath.size()},
        };
        for (const auto &[key, value] : extended)
            result.stats.set(key, static_cast<double>(value));
    }
    emitRunTrace(tg, sched, result);
    return result;
}

RunResult
schedule(const Evaluation &eval, const ExecutionPlan &plan)
{
    return plan.scaleout.enabled() ? scheduleScaleOut(eval, plan)
                                   : detail::scheduleChip(eval, plan);
}

RunResult
executePlan(const graph::DynamicGraph &dg, const ExecutionPlan &plan,
            PlanCache *cache)
{
    if (cache == nullptr)
        return schedule(evaluate(dg, plan), plan);
    return schedule(*cache->evaluation(dg, plan), plan);
}

} // namespace ditile::sim
