/**
 * @file
 * ChipCluster execution: shard, replay per chip, schedule the cluster
 * task graph.
 */

#include "sim/scaleout.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/engine_internal.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"
#include "sim/run_trace.hh"
#include "sim/scaleout_internal.hh"
#include "sim/scheduler.hh"
#include "sim/task_graph.hh"
#include "workload/chunk_partition.hh"

namespace ditile::sim {

namespace {

/** Cluster node ids are snapshot-major: every snapshot but the last
 * holds `chips` ChipCompute nodes then `chips` InterChipComm nodes;
 * the last snapshot holds only the compute nodes. */
int
computeNodeId(SnapshotId t, int chip, int chips)
{
    return static_cast<int>(t) * 2 * chips + chip;
}

int
commNodeId(SnapshotId t, int chip, int chips)
{
    return static_cast<int>(t) * 2 * chips + chips + chip;
}

void
validateSpec(const ExecutionPlan &plan, VertexId num_vertices)
{
    const ScaleOutSpec &spec = plan.scaleout;
    DITILE_ASSERT(spec.chips > 1, "scale-out run needs chips > 1");
    // Shards restrict every recorded partition, so each must cover the
    // workload.
    for (const graph::VertexPartition *partition :
         {&plan.mapping.rowPartition, &plan.mapping.tilePartition}) {
        if (partition->numParts() > 0 &&
            partition->numVertices() != num_vertices)
            DITILE_THROW("plan partition does not cover the graph: ",
                         partition->numVertices(), " vs ", num_vertices);
    }
    if (spec.chunkSpan < 1)
        DITILE_THROW("scale-out chunk span must be >= 1");
    const auto expected = static_cast<std::size_t>(
        (num_vertices + spec.chunkSpan - 1) / spec.chunkSpan);
    if (spec.chipOfChunk.size() != expected) {
        DITILE_THROW("scale-out assignment covers ",
                     spec.chipOfChunk.size(), " chunk(s), workload has ",
                     expected);
    }
    for (const int c : spec.chipOfChunk) {
        if (c < 0 || c >= spec.chips)
            DITILE_THROW("scale-out assignment names chip ", c,
                         " outside [0, ", spec.chips, ")");
    }
}

/** Track base of chip `chip`'s group (the cluster's is chip `chips`). */
std::uint64_t
chipTrackBase(std::uint64_t track_base, int chip)
{
    return track_base +
        static_cast<std::uint64_t>(chip) * Tracer::kTracksPerRun;
}

/** Restrict a global vertex partition to a shard (owners kept). */
graph::VertexPartition
restrictPartition(const graph::VertexPartition &global,
                  const std::vector<VertexId> &global_ids)
{
    if (global.numParts() == 0)
        return {};
    graph::VertexPartition shard(
        static_cast<VertexId>(global_ids.size()), global.numParts());
    for (std::size_t i = 0; i < global_ids.size(); ++i) {
        const int owner = global.owner(global_ids[i]);
        if (owner != kInvalidTile)
            shard.assign(static_cast<VertexId>(i), owner);
    }
    return shard;
}

} // namespace

ShardLayout
shardLayout(const ScaleOutSpec &spec, VertexId num_vertices)
{
    ShardLayout layout;
    layout.chipOf.resize(static_cast<std::size_t>(num_vertices));
    layout.globalIds.resize(static_cast<std::size_t>(spec.chips));
    for (VertexId v = 0; v < num_vertices; ++v) {
        const int c = spec.chipOfChunk[static_cast<std::size_t>(
            v / spec.chunkSpan)];
        layout.chipOf[static_cast<std::size_t>(v)] = c;
        layout.globalIds[static_cast<std::size_t>(c)].push_back(v);
    }
    for (int c = 0; c < spec.chips; ++c) {
        if (layout.globalIds[static_cast<std::size_t>(c)].empty())
            DITILE_THROW("scale-out assignment leaves chip ", c,
                         " empty");
    }
    return layout;
}

graph::DynamicGraph
buildShard(const graph::DynamicGraph &dg, const ShardLayout &layout,
           int chip)
{
    const auto &global_ids =
        layout.globalIds[static_cast<std::size_t>(chip)];
    std::vector<VertexId> local_of(layout.chipOf.size(), kInvalidVertex);
    for (std::size_t i = 0; i < global_ids.size(); ++i)
        local_of[static_cast<std::size_t>(global_ids[i])] =
            static_cast<VertexId>(i);

    const SnapshotId num_snapshots = dg.numSnapshots();
    std::vector<graph::Csr> snaps;
    std::vector<graph::GraphDelta> deltas;
    snaps.reserve(static_cast<std::size_t>(num_snapshots));
    deltas.reserve(static_cast<std::size_t>(num_snapshots) - 1);
    snaps.push_back(dg.snapshot(0).induced(local_of));
    for (SnapshotId t = 1; t < num_snapshots; ++t) {
        deltas.push_back(dg.delta(t).induced(local_of));
        snaps.push_back(graph::Csr::patched(snaps.back(),
                                            deltas.back().addedEdges(),
                                            deltas.back().removedEdges()));
    }
    return graph::DynamicGraph(dg.name() + "#chip" + std::to_string(chip),
                               std::move(snaps), std::move(deltas),
                               dg.featureDim());
}

std::vector<std::uint64_t>
crossEgress(const graph::DynamicGraph &dg, const ShardLayout &layout)
{
    const auto chips = layout.globalIds.size();
    const SnapshotId num_snapshots = dg.numSnapshots();
    const auto chip_of = [&layout](VertexId v) {
        return static_cast<std::size_t>(
            layout.chipOf[static_cast<std::size_t>(v)]);
    };
    std::vector<std::uint64_t> egress(
        static_cast<std::size_t>(num_snapshots) * chips, 0);
    const graph::Csr &first = dg.snapshot(0);
    for (VertexId v = 0; v < first.numVertices(); ++v) {
        const std::size_t cv = chip_of(v);
        for (const VertexId u : first.neighbors(v))
            egress[cv] += chip_of(u) != cv ? 1 : 0;
    }
    for (SnapshotId t = 1; t < num_snapshots; ++t) {
        auto *row = egress.data() + static_cast<std::size_t>(t) * chips;
        std::copy_n(row - chips, chips, row);
        const graph::GraphDelta &delta = dg.delta(t);
        for (const auto &[u, v] : delta.addedEdges()) {
            if (chip_of(u) != chip_of(v)) {
                ++row[chip_of(u)];
                ++row[chip_of(v)];
            }
        }
        for (const auto &[u, v] : delta.removedEdges()) {
            if (chip_of(u) != chip_of(v)) {
                --row[chip_of(u)];
                --row[chip_of(v)];
            }
        }
    }
    return egress;
}

void
applyScaleOut(ExecutionPlan &plan, const graph::DynamicGraph &dg,
              int chips, const noc::InterChipLinkConfig &link)
{
    if (chips <= 1) {
        plan.scaleout = ScaleOutSpec{};
        return;
    }
    noc::checkInterChipLink(link, plan.hw.frequencyGhz);
    const workload::ChunkPartition cp =
        workload::buildChunkPartition(dg, chips);
    plan.scaleout.chips = chips;
    plan.scaleout.link = link;
    plan.scaleout.chunkSpan = cp.chunkSpan;
    plan.scaleout.chipOfChunk = cp.chipOfChunk;
}

int
traceTrackGroups(int chips)
{
    return chips > 1 ? chips + 1 : 1;
}

TaskGraph
buildClusterTaskGraph(const ExecutionPlan &plan)
{
    const int chips = plan.scaleout.chips;
    const SnapshotId num_snapshots = plan.numSnapshots();
    TaskGraph g;

    // Lanes in canonical order: chip compute lanes ascending, then the
    // per-chip egress link lanes ascending.
    std::vector<int> chip_lane(static_cast<std::size_t>(chips));
    std::vector<int> link_lane(static_cast<std::size_t>(chips));
    for (int c = 0; c < chips; ++c)
        chip_lane[static_cast<std::size_t>(c)] =
            g.addLane(LaneKind::Chip, c);
    for (int c = 0; c < chips; ++c)
        link_lane[static_cast<std::size_t>(c)] =
            g.addLane(LaneKind::InterChipLink, c);

    // Nodes snapshot-major so ids ascend with t within every kind.
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        for (int c = 0; c < chips; ++c) {
            g.addTask(TaskKind::ChipCompute, t,
                      chip_lane[static_cast<std::size_t>(c)]);
        }
        if (t + 1 < num_snapshots) {
            for (int c = 0; c < chips; ++c) {
                g.addTask(TaskKind::InterChipComm, t,
                          link_lane[static_cast<std::size_t>(c)]);
            }
        }
    }

    // Dependencies. Overlap: a chip's boundary exchange waits only for
    // that chip's own snapshot, and the next snapshot of every *other*
    // chip waits for the exchange — so a finished chip streams its
    // halo while slower chips still compute. Staged (--no-overlap)
    // adds the barrier edges: every exchange waits for every chip's
    // snapshot and gates every chip's next snapshot, a strict superset
    // of the overlap dependencies (staged makespan >= overlap).
    const bool overlap = plan.options.overlap;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        for (int c = 0; c < chips; ++c) {
            if (t > 0) {
                g.addDep(computeNodeId(t - 1, c, chips),
                         computeNodeId(t, c, chips));
            }
            if (t + 1 < num_snapshots) {
                if (overlap) {
                    g.addDep(computeNodeId(t, c, chips),
                             commNodeId(t, c, chips));
                } else {
                    for (int o = 0; o < chips; ++o)
                        g.addDep(computeNodeId(t, o, chips),
                                 commNodeId(t, c, chips));
                }
                for (int o = 0; o < chips; ++o) {
                    if (overlap && o == c)
                        continue;
                    g.addDep(commNodeId(t, c, chips),
                             computeNodeId(t + 1, o, chips));
                }
            }
        }
    }
    return g;
}

Evaluation
evaluateScaleOut(const graph::DynamicGraph &dg, const ExecutionPlan &plan,
                 PlanCache *cache)
{
    const ScaleOutSpec &spec = plan.scaleout;
    const VertexId num_vertices = dg.numVertices();
    validateSpec(plan, num_vertices);

    const ShardLayout layout = shardLayout(spec, num_vertices);
    Evaluation eval;
    eval.result.acceleratorName = plan.acceleratorName;
    eval.result.workloadName = dg.name();
    eval.crossEgress = crossEgress(dg, layout);

    // ---- Build, plan and evaluate the M shards serially, one shard
    // alive at a time. Shards share `cache` (or a run-local one),
    // keyed per shard by the shard graph's structure hash, so equal
    // shards plan once.
    PlanCache local_cache;
    PlanCache *shard_cache = cache ? cache : &local_cache;
    const std::uint64_t track_base = Tracer::trackBase();
    eval.chips.reserve(static_cast<std::size_t>(spec.chips));
    for (int c = 0; c < spec.chips; ++c) {
        const auto &global_ids =
            layout.globalIds[static_cast<std::size_t>(c)];
        const graph::DynamicGraph shard = buildShard(dg, layout, c);

        MappingSpec shard_mapping;
        shard_mapping.spatialOnly = plan.mapping.spatialOnly;
        shard_mapping.snapshotColumn = plan.mapping.snapshotColumn;
        shard_mapping.rowPartition =
            restrictPartition(plan.mapping.rowPartition, global_ids);
        shard_mapping.tilePartition =
            restrictPartition(plan.mapping.tilePartition, global_ids);

        // Disjoint trace track group per chip; restored below.
        Tracer::setTrackBase(chipTrackBase(track_base, c));
        ExecutionPlan chip_plan = buildEnginePlan(
            shard, plan.modelConfig, plan.hw, shard_mapping,
            plan.options, plan.acceleratorName, shard_cache);
        chip_plan.faults = plan.faults;
        eval.chips.push_back(evaluate(shard, chip_plan));
    }
    Tracer::setTrackBase(track_base);
    return eval;
}

RunResult
scheduleScaleOut(const Evaluation &eval, const ExecutionPlan &plan)
{
    const ScaleOutSpec &spec = plan.scaleout;
    const int chips = spec.chips;
    const auto chips_sz = static_cast<std::size_t>(chips);
    DITILE_ASSERT(eval.chips.size() == chips_sz,
                  "schedule plan and evaluation disagree on chips");
    const SnapshotId num_snapshots = plan.numSnapshots();
    const std::vector<std::uint64_t> &egress_adj = eval.crossEgress;

    // ---- Each chip's own timeline, on its own track group.
    const std::uint64_t track_base = Tracer::trackBase();
    std::vector<RunResult> chip_results;
    chip_results.reserve(chips_sz);
    for (int c = 0; c < chips; ++c) {
        Tracer::setTrackBase(chipTrackBase(track_base, c));
        chip_results.push_back(detail::scheduleChip(
            eval.chips[static_cast<std::size_t>(c)], plan));
    }
    Tracer::setTrackBase(track_base);

    // ---- Cluster timeline: annotate the cluster DAG and schedule.
    // ChipCompute durations are the chip's monotonized per-snapshot
    // completion increments (overlap inside a chip can finish a later
    // snapshot's trace row early; the chip still occupies its lane in
    // snapshot order), with the chip's timeline tail (config, DRAM
    // drain) folded into its last snapshot so a comm-free cluster
    // reproduces each chip's own makespan exactly.
    const noc::InterChipLink link(spec.link, plan.hw.frequencyGhz);
    const auto z_bytes =
        static_cast<ByteCount>(plan.modelConfig.gnnOutputDim()) *
        static_cast<ByteCount>(plan.modelConfig.bytesPerValue);
    TaskGraph tg = buildClusterTaskGraph(plan);
    ByteCount interchip_payload = 0;
    ByteCount interchip_wire = 0;
    std::uint64_t interchip_transfers = 0;
    Cycle interchip_busy = 0;
    for (int c = 0; c < chips; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        RunResult &r = chip_results[ci];
        Cycle prev = 0;
        for (SnapshotId t = 0; t < num_snapshots; ++t) {
            const auto ti = static_cast<std::size_t>(t);
            Cycle done = std::max(prev, r.trace[ti].rnnDone);
            if (t + 1 == num_snapshots)
                done = std::max(done, r.totalCycles);
            tg.nodes[static_cast<std::size_t>(
                          computeNodeId(t, c, chips))]
                .duration = done - prev;
            prev = done;
        }
        for (SnapshotId t = 0; t + 1 < num_snapshots; ++t) {
            // The exchange after snapshot t ships the states snapshot
            // t+1's boundary aggregation needs: one GNN-output-wide
            // value per cross-chip adjacency entry sourced on c.
            const ByteCount payload =
                egress_adj[(static_cast<std::size_t>(t) + 1) *
                               chips_sz +
                           ci] *
                z_bytes;
            const Cycle dur = link.transferCycles(payload);
            tg.nodes[static_cast<std::size_t>(commNodeId(t, c, chips))]
                .duration = dur;
            SnapshotTrace &row = r.trace[static_cast<std::size_t>(t)];
            row.interchipPayloadBytes = payload;
            row.interchipWireBytes = link.wireBytes(payload);
            interchip_payload += payload;
            interchip_wire += row.interchipWireBytes;
            interchip_busy += dur;
            if (payload > 0)
                ++interchip_transfers;
        }
    }
    const ScheduleResult sched = scheduleTaskGraph(tg);

    // ---- Merge the per-chip results under the cluster timeline.
    RunResult result;
    result.acceleratorName = eval.result.acceleratorName;
    result.workloadName = eval.result.workloadName;
    result.totalCycles = sched.makespan;
    double busy_mac_cycles = 0.0;
    for (const RunResult &r : chip_results) {
        result.computeCycles =
            std::max(result.computeCycles, r.computeCycles);
        result.onChipCommCycles =
            std::max(result.onChipCommCycles, r.onChipCommCycles);
        result.offChipCycles =
            std::max(result.offChipCycles, r.offChipCycles);
        result.configCycles =
            std::max(result.configCycles, r.configCycles);
        result.ops += r.ops;
        result.dramTraffic += r.dramTraffic;
        result.energyEvents += r.energyEvents;
        result.energy += r.energy;
        result.nocBytes += r.nocBytes;
        result.nocBytesTemporal += r.nocBytesTemporal;
        result.nocBytesSpatial += r.nocBytesSpatial;
        result.nocBytesReuse += r.nocBytesReuse;
        result.stats.merge(r.stats);
        busy_mac_cycles +=
            r.peUtilization * static_cast<double>(r.totalCycles);
        // Chip-major trace: chip 0's T rows, then chip 1's, ...
        result.trace.insert(result.trace.end(), r.trace.begin(),
                            r.trace.end());
        if (r.resilience.enabled) {
            const auto &in = r.resilience;
            auto &out = result.resilience;
            out.enabled = true;
            out.injectedTileFaults += in.injectedTileFaults;
            out.injectedLinkFaults += in.injectedLinkFaults;
            out.injectedBypassFaults += in.injectedBypassFaults;
            out.injectedDramFaults += in.injectedDramFaults;
            out.degradedSnapshots += in.degradedSnapshots;
            out.remappedVertices += in.remappedVertices;
            out.reroutedMessages += in.reroutedMessages;
            out.retriedMessages += in.retriedMessages;
            out.nocRetryBackoffCycles += in.nocRetryBackoffCycles;
            out.dramRetryRequests += in.dramRetryRequests;
            out.dramRetryBytes += in.dramRetryBytes;
            out.dramRetryCycles += in.dramRetryCycles;
            out.degradedCapacityFraction +=
                in.degradedCapacityFraction /
                static_cast<double>(chips);
            out.events.insert(out.events.end(), in.events.begin(),
                              in.events.end());
        }
    }
    // Cluster utilization: busy MACs over M chips for the cluster
    // makespan (a stalled chip waiting on the interconnect counts as
    // idle capacity, which is the point of the metric).
    result.peUtilization = sched.makespan > 0
        ? busy_mac_cycles /
            (static_cast<double>(sched.makespan) *
             static_cast<double>(chips))
        : 0.0;

    std::uint64_t cross_adj = 0;
    for (const std::uint64_t e : egress_adj)
        cross_adj += e;
    // The merged stats summed the chips'; the mirrors of the cluster
    // fields take the cluster's values.
    writeFieldStats(result);
    result.stats.set("scaleout.chips", static_cast<double>(chips));
    result.stats.set("scaleout.cross_adjacencies",
                     static_cast<double>(cross_adj));
    result.stats.set("interchip.payload_bytes",
                     static_cast<double>(interchip_payload));
    result.stats.set("interchip.wire_bytes",
                     static_cast<double>(interchip_wire));
    result.stats.set("interchip.transfers",
                     static_cast<double>(interchip_transfers));
    result.stats.set("interchip.busy_cycles",
                     static_cast<double>(interchip_busy));

    result.taskGraph = taskGraphStats(tg, sched);
    // The cluster draws on the track group after its chips'.
    Tracer::setTrackBase(chipTrackBase(track_base, chips));
    emitRunTrace(tg, sched, result);
    Tracer::setTrackBase(track_base);
    return result;
}

} // namespace ditile::sim
