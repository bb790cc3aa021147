/**
 * @file
 * Front-end unit implementations.
 */

#include "core/units.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "tiling/subgraph_former.hh"

namespace ditile::core {

namespace {

int
residentDims(const graph::DynamicGraph &dg,
             const model::DgnnConfig &model_config)
{
    int dims = dg.featureDim();
    for (int d : model_config.gcnDims)
        dims += d;
    dims += 2 * model_config.lstmHidden;
    return dims;
}

} // namespace

tiling::ParallelPlan
adjustStrategy(const graph::DynamicGraph &dg,
               const model::DgnnConfig &model_config,
               const sim::AcceleratorConfig &hw, bool optimize)
{
    const auto app = tiling::ApplicationFeatures::fromGraph(
        dg, model_config.numGcnLayers(), residentDims(dg, model_config),
        model_config.bytesPerValue);
    tiling::HardwareFeatures thw;
    thw.totalTiles = hw.totalTiles();
    thw.distributedBufferBytes = hw.distBufferBytes;

    if (optimize) {
        auto plan = tiling::optimizeAll(app, thw);
        // Form the subgraphs for real on the first snapshot and use
        // the measured cross-fetch fraction instead of the analytical
        // locality estimate.
        plan.tiling.measuredCross = tiling::formSubgraphs(
            dg.snapshot(0), plan.tiling.tilingFactor)
            .crossAdjacencyFraction;
        return plan;
    }

    // Naive static strategy: tiling only to fit the buffer with
    // fragmented subgraphs (2x the optimal factor), one snapshot per
    // column group, all rows as vertex parts.
    tiling::ParallelPlan plan;
    plan.tiling = tiling::optimizeTiling(app, thw);
    plan.tiling.tilingFactor *= 2;
    plan.tiling.dramAccessUnits =
        tiling::dramAccessModel(app, plan.tiling.tilingFactor);
    double lower = 0.0;
    for (double v : app.vertices)
        lower += v;
    plan.tiling.refetchFactor = lower > 0.0
        ? std::max(1.0, plan.tiling.dramAccessUnits / lower) : 1.0;
    plan.tiling.avgSubgraphVertices =
        app.avgVertices() / plan.tiling.tilingFactor;
    plan.tiling.avgSubgraphEdges =
        app.avgEdges() / plan.tiling.tilingFactor;

    const int dim = tiling::gridDim(thw);
    auto &par = plan.parallelism;
    par.snapshotGroups = std::min<int>(dim,
        std::max<SnapshotId>(1, dg.numSnapshots()));
    par.vertexParts = dim;
    par.snapshotsPerGroup = ceilDiv<int>(
        std::max<SnapshotId>(1, dg.numSnapshots()), par.snapshotGroups);
    par.verticesPerPart = ceilDiv<int>(
        std::max(1, static_cast<int>(plan.tiling.avgSubgraphVertices)),
        par.vertexParts);
    par.tcomm = tiling::temporalComm(app, plan.tiling.tilingFactor,
                                     par.snapshotGroups);
    par.rfscomm = tiling::redundancyFreeSpatialComm(
        app, plan.tiling.tilingFactor, par.vertexParts);
    par.recomm = tiling::reuseComm(app, plan.tiling.tilingFactor,
                                   par.snapshotGroups);
    par.totalCommUnits = par.tcomm + par.rfscomm + par.recomm;
    return plan;
}

WorkloadMapping
generateWorkload(const graph::DynamicGraph &dg,
                 const std::vector<double> &loads,
                 const tiling::ParallelPlan &plan,
                 const sim::AcceleratorConfig &hw, bool balance)
{
    WorkloadMapping out;
    const int parts = clamp(plan.parallelism.vertexParts, 1,
                            hw.tileRows);
    if (balance) {
        out.rowPartition = workload::balancedPartition(loads, parts);
    } else {
        out.rowPartition = graph::VertexPartition::contiguous(
            dg.numVertices(), parts);
    }

    // Snapshot -> column: Gs groups laid left-to-right, each owning a
    // contiguous band of columns; snapshots inside a group rotate over
    // the band so consecutive snapshots pipeline on neighbouring tiles.
    const int groups = clamp(plan.parallelism.snapshotGroups, 1,
                             hw.tileCols);
    const int band = std::max(1, hw.tileCols / groups);
    const SnapshotId per_group = ceilDiv<SnapshotId>(
        std::max<SnapshotId>(1, dg.numSnapshots()),
        static_cast<SnapshotId>(groups));
    out.snapshotColumn.resize(
        static_cast<std::size_t>(dg.numSnapshots()));
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const int g = static_cast<int>(t / per_group);
        const int slot = static_cast<int>(t % per_group) % band;
        out.snapshotColumn[static_cast<std::size_t>(t)] =
            std::min(hw.tileCols - 1, g * band + slot);
    }

    out.groups = workload::splitGroups(dg.numSnapshots(), groups,
                                       parts);
    return out;
}

InterconnectMode
configureInterconnect(bool reconfigurable)
{
    InterconnectMode out;
    if (reconfigurable) {
        out.topology = noc::TopologyKind::Reconfigurable;
        // Two Re-Link mode switches per snapshot: one entering the
        // irregular spatial (GNN) phase, one entering the regular
        // temporal/reuse (RNN boundary) phase.
        out.reconfigEventsPerSnapshot = 2;
    } else {
        out.topology = noc::TopologyKind::Mesh;
        out.reconfigEventsPerSnapshot = 0;
    }
    return out;
}

} // namespace ditile::core
