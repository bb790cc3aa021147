/**
 * @file
 * Baseline accelerator implementations.
 */

#include "sim/baselines.hh"

#include "common/logging.hh"
#include "sim/engine.hh"
#include "sim/execution_plan.hh"
#include "tiling/optimizer.hh"

namespace ditile::sim {

namespace {

/** Resident per-vertex dims: input + every intermediate + LSTM state. */
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

tiling::HardwareFeatures
tilingHardware(const AcceleratorConfig &hw)
{
    tiling::HardwareFeatures thw;
    thw.totalTiles = hw.totalTiles();
    thw.distributedBufferBytes = hw.distBufferBytes;
    return thw;
}

/** Temporal-parallel snapshot->column spread used by the baselines. */
std::vector<int>
roundRobinColumns(SnapshotId num_snapshots, int cols)
{
    std::vector<int> out(static_cast<std::size_t>(num_snapshots));
    for (SnapshotId t = 0; t < num_snapshots; ++t)
        out[static_cast<std::size_t>(t)] = static_cast<int>(t % cols);
    return out;
}

/**
 * Fit-only tiling of the baselines: partition to fit the buffer but
 * without the Eq. 6 access-minimizing subgraph formation, so subgraphs
 * fragment roughly twice as much as the optimized tiling and respect
 * no locality.
 */
tiling::TilingResult
baselineTiling(const graph::DynamicGraph &dg,
               const model::DgnnConfig &model_config,
               const AcceleratorConfig &hw)
{
    const auto app = tiling::ApplicationFeatures::fromGraph(
        dg, model_config.numGcnLayers(), residentDims(dg, model_config),
        model_config.bytesPerValue);
    auto tiled = tiling::optimizeTiling(app, tilingHardware(hw));
    tiled.tilingFactor *= 2;
    return tiled;
}

/**
 * Shared scaffolding for the three temporal-parallel baselines.
 */
class BaselineAccelerator : public Accelerator
{
  public:
    BaselineAccelerator(std::string name, AcceleratorConfig hw,
                        noc::TopologyKind topology,
                        EngineOptions options)
        : name_(std::move(name)), hw_(hw), options_(options)
    {
        hw_.noc.topology = topology;
    }

    std::string name() const override { return name_; }

    ExecutionPlan
    plan(const graph::DynamicGraph &dg,
         const model::DgnnConfig &model_config,
         PlanCache *cache = nullptr) const override
    {
        const auto tiled = baselineTiling(dg, model_config, hw_);
        EngineOptions options = options_;
        options.accounting.crossFetchFraction =
            tiled.crossFetchFraction(1.0);

        MappingSpec mapping;
        mapping.rowPartition = graph::VertexPartition::contiguous(
            dg.numVertices(), hw_.tileRows);
        mapping.snapshotColumn = roundRobinColumns(dg.numSnapshots(),
                                                   hw_.tileCols);
        ExecutionPlan p = buildEnginePlan(dg, model_config, hw_,
                                          mapping, options, name_,
                                          cache);
        // Fit-only tiling provenance; Algorithm-1 parallelism stays at
        // the analytic defaults (the baselines don't co-optimize it).
        p.parallel.tiling = tiled;
        return p;
    }

  protected:
    std::string name_;
    AcceleratorConfig hw_;
    EngineOptions options_;
};

/**
 * MEGA uses the spatial-parallel mapping instead.
 */
class MegaAccelerator : public Accelerator
{
  public:
    explicit MegaAccelerator(AcceleratorConfig hw)
        : hw_(hw)
    {
        hw_.noc.topology = noc::TopologyKind::Mesh;
    }

    std::string name() const override { return "MEGA"; }

    ExecutionPlan
    plan(const graph::DynamicGraph &dg,
         const model::DgnnConfig &model_config,
         PlanCache *cache = nullptr) const override
    {
        const auto tiled = baselineTiling(dg, model_config, hw_);
        EngineOptions options;
        options.algo = model::AlgoKind::MegaAlg;
        options.accounting.crossFetchFraction =
            tiled.crossFetchFraction(1.0);
        // Whole-grid spatial partitioning duplicates boundary fetches
        // across the tiles sharing a gather.
        options.dramTrafficScale = 1.15;
        // Irregular whole-grid gathers traverse long mesh paths and
        // thrash the row buffers of the commodity DRAM interface.
        options.computeEnergyScale = 2.0;
        options.onChipEnergyScale = 2.0;
        options.offChipEnergyScale = 2.2;

        MappingSpec mapping;
        mapping.spatialOnly = true;
        mapping.tilePartition = graph::VertexPartition::contiguous(
            dg.numVertices(), hw_.totalTiles());
        ExecutionPlan p = buildEnginePlan(dg, model_config, hw_,
                                          mapping, options, name(),
                                          cache);
        p.parallel.tiling = tiled;
        return p;
    }

  private:
    AcceleratorConfig hw_;
};

} // namespace

double
baselineCrossFetchFraction(const graph::DynamicGraph &dg,
                           const model::DgnnConfig &model_config,
                           const AcceleratorConfig &hw)
{
    return baselineTiling(dg, model_config, hw)
        .crossFetchFraction(1.0);
}

std::unique_ptr<Accelerator>
makeReady(const AcceleratorConfig &hw)
{
    EngineOptions options;
    options.algo = model::AlgoKind::ReAlg;
    // Mesh PE array statically partitioned by the average workload
    // split between the kernels: both regions run concurrently.
    options.gnnMacFraction = 0.75;
    options.rnnMacFraction = 0.25;
    // ReRAM processing-in-memory: weights live in the crossbars and a
    // large share of the feature stream is consumed in-situ.
    options.dramTrafficScale = 0.72;
    // Analog MACs pay ADC/DAC conversion on every accumulate; evolving
    // graph data forces frequent ReRAM cell reprogramming, whose write
    // energy dwarfs DDR transfers.
    options.computeEnergyScale = 5.0;
    options.offChipEnergyScale = 3.0;
    return std::make_unique<BaselineAccelerator>(
        "ReaDy", hw, noc::TopologyKind::Mesh, options);
}

std::unique_ptr<Accelerator>
makeDgnnBooster(const AcceleratorConfig &hw)
{
    EngineOptions options;
    options.algo = model::AlgoKind::ReAlg;
    // Dual pipelines with per-batch dispatch: the RNN pipeline starts
    // only after the dispatched GNN batch globally synchronizes.
    options.gnnMacFraction = 0.6;
    options.rnnMacFraction = 0.4;
    options.globalGnnBarrier = true;
    // The dual pipelines share one streamed fetch of the graph batch.
    options.dramTrafficScale = 0.78;
    // FPGA fabric: LUT/routing overhead per operation and per on-chip
    // byte, plus board-level DRAM interfaces.
    options.computeEnergyScale = 12.0;
    options.onChipEnergyScale = 3.5;
    options.offChipEnergyScale = 1.5;
    return std::make_unique<BaselineAccelerator>(
        "DGNN-Booster", hw, noc::TopologyKind::Ring, options);
}

std::unique_ptr<Accelerator>
makeRace(const AcceleratorConfig &hw)
{
    EngineOptions options;
    options.algo = model::AlgoKind::RaceAlg;
    // Engine-based split: equal PE groups for the GNN and RNN engines
    // (the paper's original RACE configuration), joined by a crossbar.
    options.gnnMacFraction = 0.5;
    options.rnnMacFraction = 0.5;
    // Staging intermediate z-vectors between the two engines adds an
    // extra pass over the output stream.
    options.dramTrafficScale = 1.02;
    // The monolithic crossbar's O(N^2) wiring costs per transported
    // byte; engine-local SRAM macros are single-ported and larger.
    options.computeEnergyScale = 2.0;
    options.onChipEnergyScale = 6.0;
    options.offChipEnergyScale = 2.4;
    return std::make_unique<BaselineAccelerator>(
        "RACE", hw, noc::TopologyKind::Crossbar, options);
}

std::unique_ptr<Accelerator>
makeMega(const AcceleratorConfig &hw)
{
    return std::make_unique<MegaAccelerator>(hw);
}

} // namespace ditile::sim
