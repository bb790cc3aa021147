/**
 * @file
 * Shared execution-engine implementation.
 *
 * ### Plan replay, parallel evaluation, serial semantics
 *
 * The engine executes an ExecutionPlan: every planning decision (the
 * mapping, the policy knobs, the per-snapshot redundancy-free plans,
 * the reconfiguration schedule) is pure data computed before the first
 * simulated cycle. runEngine() is the legacy one-shot entry point and
 * simply assembles a plan (buildEnginePlan) and replays it, so the two
 * paths are bit-identical by construction.
 *
 * Snapshots mapped to different tile columns are independent by
 * construction (paper §4): given the plan's per-snapshot work sets,
 * everything per snapshot — op/byte accounting, the per-tile compute
 * distribution, the detailed tile timing and the NoC replays — is a
 * pure function of that snapshot. Only three things chain across
 * snapshots: the DRAM device state (row buffers + completion cursor),
 * the Re-Link controller's engaged span, and the result accumulators.
 *
 * executePlan therefore runs in stages:
 *
 *   1. *parallel* per-snapshot evaluation into one SnapshotWork slot
 *      per snapshot (snapshot_eval.cc; per-tile sub-models fan out a
 *      second level),
 *   2. *serial* DRAM replay and Re-Link decisions in snapshot order,
 *   3. *parallel* spatial NoC replay for snapshots whose span was
 *      only known after stage 2 (adaptive Re-Link),
 *   4. *serial* merge of every accumulator in canonical snapshot
 *      order, then the timeline, whose schedule drives the trace
 *      spans and registry totals (run_trace.cc).
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
#include "sim/run_trace.hh"
#include "sim/scaleout.hh"
#include "sim/scheduler.hh"
#include "sim/task_graph.hh"
#include "workload/balance.hh"
#include "workload/digest.hh"

namespace ditile::sim {

using detail::SnapshotWork;

RunResult
executePlan(const graph::DynamicGraph &dg, const ExecutionPlan &plan,
            PlanCache *scaleout_cache)
{
    if (plan.scaleout.enabled())
        return runScaleOut(dg, plan, scaleout_cache);

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

    DITILE_ASSERT(plan.snapshots != nullptr,
                  "execution plan has no snapshot plans");
    // A plan loaded from a file (--plan-in) may have been made for
    // another workload: reject the mismatch as bad input.
    if (plan.numSnapshots() != num_snapshots)
        DITILE_THROW("plan has ", plan.numSnapshots(),
                     " snapshots, the workload ", num_snapshots);
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

    // The task DAG is structural (a pure function of the plan). Built
    // before the evaluation stages allocate, its small blocks do not
    // split the freed per-snapshot buffers, which holds peak RSS.
    TaskGraph tg = buildTaskGraph(plan);
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

    RunResult result;
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
                loads = &fault_loads->snapshotLoads[i];
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
    // owners were re-dealt take the scratch loops regardless.
    std::shared_ptr<const workload::PartitionDigest> pdigest;
    if (use_digest) {
        for (const auto &sp : snapshot_plans) {
            if (sp.fullRecompute ||
                static_cast<VertexId>(sp.rnnVertices.size()) ==
                    num_vertices) {
                pdigest = workload::DigestCache::global().partition(
                    dg, base_owner, compute_slots);
                break;
            }
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
        base_owner, owner_remap, fm, pdigest.get(), pool};
    parallelFor(static_cast<std::size_t>(num_snapshots),
                [&](std::size_t i) {
        detail::evaluateSnapshot(ctx, i, work[i]);
    }, &pool);

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
        if (w.spatialPending) {
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
                w.spatialDistances, hw.noc.routerLatencyCycles,
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
            if (!w.spatialPending)
                return;
            const auto t = static_cast<SnapshotId>(i);
            const noc::NocFaults *noc_faults =
                fm && fm->at(t).anyNoc() ? &fm->at(t).noc : nullptr;
            noc::NocConfig noc_config = hw.noc;
            noc_config.reLinkSpan = result.trace[i].relinkSpan;
            w.spatial = noc::simulateTraffic(noc_config,
                                             std::move(w.spatialMsgs),
                                             noc_faults);
            w.spatialMsgs.clear();
        }, &pool);
    }

    // ---- Stage 4: ordered reduction into the result record. ----
    // Every accumulator is an integer count (the capacity sum aside,
    // which keeps its own serial order), merged in ascending snapshot
    // order, so this reproduces the serial loop exactly. The same
    // pass annotates the task DAG built above with the durations the
    // evaluation stages produced. Staged mode charges the whole
    // configuration time to the last Re-Link task; overlap mode gives
    // every snapshot its own (task_graph.cc documents both modes'
    // edges).
    result.configCycles = static_cast<Cycle>(num_snapshots) *
        hw.perSnapshotConfigCycles;
    auto node = [&](int id) -> TaskNode & {
        return tg.nodes[static_cast<std::size_t>(id)];
    };
    // Busy MAC-cycles are offered by the tiles assigned to each
    // compute phase (critical-path window x full per-tile array), so
    // imbalance and statically-partitioned idle regions both show up
    // as lost capacity.
    const int active_tiles = mapping.spatialOnly ? hw.totalTiles()
                                                 : hw.tileRows;
    double capacity = 0.0;
    std::uint64_t noc_messages = 0;
    std::uint64_t digest_full_fastpath = 0;
    std::uint64_t digest_rnn_fastpath = 0;
    std::uint64_t relink_engaged = 0;
    dram::DramResult dram_total;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const SnapshotWork &w = work[i];
        SnapshotTrace &row = result.trace[i];
        result.ops += w.ops;
        result.dramTraffic += w.dramTraffic;
        result.energyEvents.localBufferBytes += w.localBufferBytes;
        result.nocBytes += w.spatial.totalBytes;
        result.nocBytesSpatial += w.spatial.totalBytes;
        result.energyEvents.nocLinkBytes += w.spatial.hopBytes;
        result.energyEvents.nocRouterBytes += w.spatial.routerBytes;
        if (w.hasTemporal) {
            result.nocBytes += w.temporal.totalBytes;
            result.nocBytesTemporal +=
                w.temporal.bytesByClass[static_cast<int>(
                    noc::TrafficClass::Temporal)];
            result.nocBytesReuse += w.temporal.bytesByClass[
                static_cast<int>(noc::TrafficClass::Reuse)];
            result.energyEvents.nocLinkBytes += w.temporal.hopBytes;
            result.energyEvents.nocRouterBytes += w.temporal.routerBytes;
            if (options.reuseFifoForwarding)
                result.energyEvents.reuseFifoBytes += w.reuseTotal;
        }
        result.computeCycles += w.gnnCompute + w.rnnCompute;
        result.onChipCommCycles +=
            w.spatial.makespan + w.temporal.makespan;
        // Dead tiles offer no capacity; fault-free runs see the
        // unmodified tile count (dead_slots stays all-zero).
        capacity += static_cast<double>(active_tiles - dead_slots[i]) *
            tile_macs *
            (options.gnnMacFraction * static_cast<double>(w.gnnCompute) +
             options.rnnMacFraction * static_cast<double>(w.rnnCompute));

        row.gnnComputeCycles = w.gnnCompute;
        row.rnnComputeCycles = w.rnnCompute;
        row.spatialCommCycles = w.spatial.makespan;
        row.temporalCommCycles = w.temporal.makespan;
        row.spatialBytes = w.spatial.totalBytes;
        row.spatialMessages = w.spatial.numMessages;
        row.temporalBytes = w.temporal.bytesByClass[static_cast<int>(
            noc::TrafficClass::Temporal)];
        row.reuseBytes = w.temporal.bytesByClass[static_cast<int>(
            noc::TrafficClass::Reuse)];
        noc_messages += w.spatial.numMessages + w.temporal.numMessages;
        dram_total += row.dram;
        relink_engaged += row.relinkSpan > 1 ? 1 : 0;
        const model::SnapshotPlan &splan = snapshot_plans[i];
        const bool digest_snapshot = pdigest && owner_remap[i].empty();
        digest_full_fastpath += digest_snapshot && splan.fullRecompute &&
                !options.detailedTileTiming
            ? 1 : 0;
        digest_rnn_fastpath += digest_snapshot &&
                static_cast<VertexId>(splan.rnnVertices.size()) ==
                    num_vertices
            ? 1 : 0;

        const auto &st = tg.bySnapshot[i];
        node(st.dram).duration =
            row.dramDone - (t > 0 ? result.trace[i - 1].dramDone : 0);
        node(st.gnn).duration = w.gnnCompute;
        node(st.spatial).duration = w.spatial.makespan;
        if (st.temporal != -1)
            node(st.temporal).duration = w.temporal.makespan;
        node(st.rnn).duration = w.rnnCompute;
        if (options.overlap)
            node(st.relink).duration = hw.perSnapshotConfigCycles;
        else if (t + 1 == num_snapshots)
            node(st.relink).duration = result.configCycles;
    }

    // ---- Timeline: the deterministic scheduler propagates ready
    // times through the annotated DAG. ----
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
            const SnapshotWork &w = work[i];
            const SnapshotTrace &row = result.trace[i];
            const std::uint64_t rerouted = w.spatial.reroutedMessages +
                w.temporal.reroutedMessages;
            const std::uint64_t retried = w.spatial.retriedMessages +
                w.temporal.retriedMessages;
            const Cycle backoff = w.spatial.retryBackoffCycles +
                w.temporal.retryBackoffCycles;
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

    // ---- Stats, then the trace and registry emitted from them. ----
    writeFieldStats(result);
    if (Tracer::global().metricsEnabled()) {
        // Appended, so the stats JSON with metrics off keeps its
        // exact field sequence.
        const std::pair<const char *, std::uint64_t> extended[] = {
            {"noc.spatial_bytes", result.nocBytesSpatial},
            {"noc.temporal_bytes", result.nocBytesTemporal},
            {"noc.reuse_bytes", result.nocBytesReuse},
            {"noc.messages", noc_messages},
            {"dram.requests", dram_total.requests},
            {"dram.row_hits", dram_total.rowHits},
            {"dram.row_misses", dram_total.rowMisses},
            {"dram.row_conflicts", dram_total.rowConflicts},
            {"dram.read_bytes", dram_total.readBytes},
            {"dram.write_bytes", dram_total.writeBytes},
            {"engine.digest_full_fastpath", digest_full_fastpath},
            {"engine.digest_rnn_fastpath", digest_rnn_fastpath},
            {"engine.scratch_snapshots",
             static_cast<std::uint64_t>(num_snapshots) -
                 digest_full_fastpath},
            {"relink.engaged_snapshots", relink_engaged},
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
runEngine(const graph::DynamicGraph &dg,
          const model::DgnnConfig &model_config,
          const AcceleratorConfig &hw, const MappingSpec &mapping,
          const EngineOptions &options,
          const std::string &accelerator_name)
{
    return executePlan(dg, buildEnginePlan(dg, model_config, hw,
                                           mapping, options,
                                           accelerator_name));
}

} // namespace ditile::sim
