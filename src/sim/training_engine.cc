/**
 * @file
 * Training-iteration simulation implementation.
 */

#include "sim/training_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "noc/network.hh"

namespace ditile::sim {

namespace {

/** Total learned parameter count of the model. */
OpCount
parameterCount(const graph::DynamicGraph &dg,
               const model::DgnnConfig &config)
{
    OpCount values = 0;
    int in_dim = dg.featureDim();
    for (int l = 0; l < config.numGcnLayers(); ++l) {
        values += static_cast<OpCount>(in_dim) *
            static_cast<OpCount>(
                config.gcnDims[static_cast<std::size_t>(l)]);
        in_dim = config.gcnDims[static_cast<std::size_t>(l)];
    }
    const auto z = static_cast<OpCount>(config.gnnOutputDim());
    const auto h = static_cast<OpCount>(config.lstmHidden);
    const OpCount pairs = config.rnn == model::RnnKind::Lstm ? 4 : 3;
    values += pairs * z * h + pairs * h * h;
    return values;
}

/** Makespan of one ring-neighbor all-reduce step over active tiles. */
Cycle
allReduceStepCycles(const AcceleratorConfig &hw, ByteCount chunk_bytes)
{
    std::vector<noc::Message> msgs;
    const int tiles = hw.totalTiles();
    for (int t = 0; t < tiles; ++t) {
        noc::Message m;
        m.src = static_cast<TileId>(t);
        m.dst = static_cast<TileId>((t + 1) % tiles);
        m.bytes = chunk_bytes;
        m.cls = noc::TrafficClass::Temporal; // regular ring pattern.
        msgs.push_back(m);
    }
    return noc::simulateTraffic(hw.noc, std::move(msgs)).makespan;
}

} // namespace

TrainingResult
runTrainingIteration(const graph::DynamicGraph &dg,
                     const ExecutionPlan &plan)
{
    const model::DgnnConfig &model_config = plan.modelConfig;
    const AcceleratorConfig &hw = plan.hw;
    const EngineOptions &options = plan.options;
    TrainingResult result;
    result.forward = executePlan(dg, plan);
    result.ops = model::countTrainingOps(dg, model_config,
                                         options.algo);

    // Backward sweep: twice the forward products on the same mapping,
    // transposed gathers along the same links.
    result.backwardComputeCycles = 2 * result.forward.computeCycles;
    result.backwardCommCycles = result.forward.onChipCommCycles;

    // Ring all-reduce of the weight gradients: 2(N-1) steps moving
    // params/N values each.
    const OpCount params = parameterCount(dg, model_config);
    const auto tiles = static_cast<OpCount>(hw.totalTiles());
    const ByteCount chunk = static_cast<ByteCount>(ceilDiv<OpCount>(
        params, tiles)) *
        static_cast<ByteCount>(model_config.bytesPerValue);
    if (tiles > 1) {
        const Cycle step = allReduceStepCycles(hw, chunk);
        result.allReduceCycles = step * 2 * (tiles - 1);
    }

    // Optimizer: one multiply-add per parameter across the MAC pool.
    result.weightUpdateCycles = ceilDiv<Cycle>(
        static_cast<Cycle>(params),
        static_cast<Cycle>(hw.totalMacs()));

    // Backward overlaps its communication with compute exactly like
    // the forward pass; the all-reduce and update serialize at the
    // end of the iteration.
    const Cycle backward = std::max(result.backwardComputeCycles,
                                    result.backwardCommCycles);
    result.iterationCycles = result.forward.totalCycles + backward +
        result.allReduceCycles + result.weightUpdateCycles;

    // Energy: forward events plus the backward/update activity.
    energy::EnergyEvents events = result.forward.energyEvents;
    events.macs += result.ops.backward.totalMacs() +
        result.ops.weightUpdateOps / 2;
    events.aluOps += result.ops.backward.elementwiseOps;
    events.activations += result.ops.backward.activationOps;
    // Transposed gathers re-cross the same links; gradient
    // checkpoint traffic re-reads activations from DRAM.
    events.nocLinkBytes += result.forward.energyEvents.nocLinkBytes;
    events.nocRouterBytes +=
        result.forward.energyEvents.nocRouterBytes;
    events.dramBytes += result.forward.energyEvents.dramBytes / 2;
    // All-reduce payload: every step moves one chunk per tile.
    if (tiles > 1) {
        events.nocLinkBytes += chunk * tiles * 2 * (tiles - 1);
    }
    result.energy = energy::computeEnergy(events, hw.energyTable);
    result.energy.computePj *= options.computeEnergyScale;
    result.energy.onChipCommPj *= options.onChipEnergyScale;
    result.energy.offChipCommPj *= options.offChipEnergyScale;
    return result;
}

} // namespace ditile::sim
