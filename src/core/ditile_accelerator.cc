/**
 * @file
 * DiTileAccelerator implementation.
 */

#include "core/ditile_accelerator.hh"

#include <algorithm>

#include "common/trace.hh"
#include "core/plan_batch.hh"
#include "core/units.hh"
#include "sim/engine.hh"

namespace ditile::core {

DiTileAccelerator::DiTileAccelerator(sim::AcceleratorConfig hw,
                                     DiTileOptions options)
    : hw_(hw), options_(options)
{
}

std::string
DiTileAccelerator::name() const
{
    if (options_.parallelismStrategy && options_.workloadBalance &&
        options_.reconfigurableNoc) {
        return "DiTile-DGNN";
    }
    std::string n = "DiTile";
    n += options_.parallelismStrategy ? "+Ps" : "-Ps";
    n += options_.workloadBalance ? "+Wos" : "-Wos";
    n += options_.reconfigurableNoc ? "+Ra" : "-Ra";
    return n;
}

sim::ExecutionPlan
DiTileAccelerator::plan(const graph::DynamicGraph &dg,
                        const model::DgnnConfig &model_config,
                        sim::PlanCache *cache) const
{
    return plan(dg, model_config, cache, nullptr);
}

sim::ExecutionPlan
DiTileAccelerator::plan(const graph::DynamicGraph &dg,
                        const model::DgnnConfig &model_config,
                        sim::PlanCache *cache,
                        SharedFrontEnd *shared) const
{
    // Plan-stage spans live on a step clock (one step per sub-stage);
    // one plan() call is serial, so the order is deterministic.
    Tracer &tracer = Tracer::global();
    const std::uint64_t plan_track =
        Tracer::trackBase() + Tracer::kPlanTrack;

    // Step (2): per-vertex workload labels. A shared front end has
    // already built them for this graph (or builds them now, once
    // for the whole batch); the loads are a pure function of
    // (graph, layers), so both paths yield bitwise-equal labels.
    std::vector<double> own_loads;
    if (shared == nullptr) {
        own_loads = workload::computeVertexLoads(
            dg, model_config.numGcnLayers());
    }
    const std::vector<double> &loads = shared != nullptr
        ? shared->loads(dg, model_config)
        : own_loads;
    {
        TraceEvent ev;
        ev.addArg("vertices", static_cast<long long>(dg.numVertices()))
            .addArg("snapshots",
                    static_cast<long long>(dg.numSnapshots()));
        tracer.stepSpan("plan", "workload-loads", plan_track, std::move(ev));
    }

    // Step (3): Algorithm 1 — tiling factor + parallel factors,
    // likewise memoized per batch by the shared front end.
    tiling::ParallelPlan parallel = shared != nullptr
        ? shared->strategy(dg, model_config, hw_,
                           options_.parallelismStrategy)
        : adjustStrategy(dg, model_config, hw_,
                         options_.parallelismStrategy);
    {
        TraceEvent ev;
        ev.addArg("tiling_factor", static_cast<long long>(
                      parallel.tiling.tilingFactor))
            .addArg("snapshot_groups", static_cast<long long>(
                        parallel.parallelism.snapshotGroups))
            .addArg("vertex_parts", static_cast<long long>(
                        parallel.parallelism.vertexParts));
        tracer.stepSpan("plan", "alg1-tiling", plan_track, std::move(ev));
    }

    // Steps (4)-(6): Algorithm 2 — the BDW mapping.
    WorkloadMapping bdw = generateWorkload(
        dg, loads, parallel, hw_, options_.workloadBalance);
    const double imbalance = bdw.rowPartition.imbalance(loads);
    {
        TraceEvent ev;
        ev.addArg("groups", static_cast<long long>(bdw.groups.size()))
            .addArg("imbalance_permille",
                    static_cast<long long>(imbalance * 1000.0));
        tracer.stepSpan("plan", "alg2-bdw", plan_track, std::move(ev));
    }

    // Steps (8)-(9): interconnect mode.
    const InterconnectMode mode =
        configureInterconnect(options_.reconfigurableNoc);
    {
        TraceEvent ev;
        ev.addArg("topology",
                  std::string(noc::topologyKindName(mode.topology)))
            .addArg("reconfig_events_per_snapshot",
                    static_cast<long long>(
                        mode.reconfigEventsPerSnapshot));
        tracer.stepSpan("plan", "relink-config", plan_track, std::move(ev));
    }
    if (tracer.metricsEnabled()) {
        tracer.addMetric("plan.prepares", 1);
        tracer.addMetric("plan.tiling_factor_sum",
                         parallel.tiling.tilingFactor);
    }
    sim::AcceleratorConfig hw = hw_;
    hw.noc.topology = mode.topology;

    // Step (7): redundant-free execution policy feeding the engine.
    sim::EngineOptions engine_options;
    engine_options.algo = model::AlgoKind::DiTileAlg;
    // Access-minimizing tiling forms subgraphs around connectivity;
    // without the parallelism strategy the subgraphs respect no
    // locality (the adjuster already doubled the tiling factor).
    engine_options.accounting.crossFetchFraction =
        parallel.tiling.crossFetchFraction(
            options_.parallelismStrategy
                ? tiling::kOptimizedTilingLocality : 1.0);
    engine_options.reuseFifoForwarding = true;
    engine_options.detailedTileTiming = options_.detailedTileTiming;
    engine_options.adaptiveRelink = options_.reconfigurableNoc;
    engine_options.reconfigEventsPerSnapshot =
        mode.reconfigEventsPerSnapshot;
    // Uneven load skews the distributed-buffer occupancy: the hot
    // tiles overflow and re-fetch, so off-chip traffic grows with the
    // partition imbalance (paper §7.3's "uneven data distribution ...
    // leading to increased DRAM access").
    engine_options.dramTrafficScale =
        std::min(1.25, 1.0 + 0.08 * (imbalance - 1.0));

    sim::MappingSpec mapping;
    mapping.rowPartition = std::move(bdw.rowPartition);
    mapping.snapshotColumn = std::move(bdw.snapshotColumn);
    sim::ExecutionPlan plan = sim::buildEnginePlan(
        dg, model_config, hw, mapping, engine_options, name(), cache);
    plan.parallel = std::move(parallel);
    plan.groups = std::move(bdw.groups);
    return plan;
}

} // namespace ditile::core
