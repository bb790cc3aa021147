/**
 * @file
 * Tests for the training-iteration simulation.
 */

#include <gtest/gtest.h>

#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "sim/training_engine.hh"

namespace ditile::sim {
namespace {

graph::DynamicGraph
workload(std::uint64_t seed = 3)
{
    graph::EvolutionConfig config;
    config.numVertices = 400;
    config.numEdges = 2400;
    config.numSnapshots = 4;
    config.dissimilarity = 0.10;
    config.featureDim = 32;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

model::DgnnConfig
smallModel()
{
    model::DgnnConfig config;
    config.gcnDims = {16, 8};
    config.lstmHidden = 8;
    return config;
}

TrainingResult
trainDefault(const graph::DynamicGraph &dg,
             model::AlgoKind algo = model::AlgoKind::DiTileAlg)
{
    const auto hw = AcceleratorConfig::defaults();
    MappingSpec mapping;
    mapping.rowPartition = graph::VertexPartition::contiguous(
        dg.numVertices(), hw.tileRows);
    mapping.snapshotColumn.resize(
        static_cast<std::size_t>(dg.numSnapshots()));
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t)
        mapping.snapshotColumn[static_cast<std::size_t>(t)] =
            static_cast<int>(t % hw.tileCols);
    EngineOptions options;
    options.algo = algo;
    return runTrainingIteration(
        dg, buildEnginePlan(dg, smallModel(), hw, mapping, options,
                            "train"));
}

TEST(TrainingEngine, IterationCostsMoreThanInference)
{
    const auto dg = workload();
    const auto r = trainDefault(dg);
    EXPECT_GT(r.iterationCycles, r.forward.totalCycles);
    EXPECT_GT(r.backwardComputeCycles, 0u);
    EXPECT_EQ(r.backwardComputeCycles, 2 * r.forward.computeCycles);
    EXPECT_GT(r.allReduceCycles, 0u);
    EXPECT_GT(r.weightUpdateCycles, 0u);
}

TEST(TrainingEngine, ComponentsComposeTheIteration)
{
    const auto dg = workload();
    const auto r = trainDefault(dg);
    const Cycle backward = std::max(r.backwardComputeCycles,
                                    r.backwardCommCycles);
    EXPECT_EQ(r.iterationCycles,
              r.forward.totalCycles + backward + r.allReduceCycles +
                  r.weightUpdateCycles);
}

TEST(TrainingEngine, EnergyExceedsInferenceEnergy)
{
    const auto dg = workload();
    const auto r = trainDefault(dg);
    EXPECT_GT(r.energy.totalPj(), r.forward.energy.totalPj());
}

TEST(TrainingEngine, OpsMatchModelAccounting)
{
    const auto dg = workload();
    const auto r = trainDefault(dg, model::AlgoKind::RaceAlg);
    const auto expect = model::countTrainingOps(
        dg, smallModel(), model::AlgoKind::RaceAlg);
    EXPECT_EQ(r.ops.totalArithmetic(), expect.totalArithmetic());
}

TEST(TrainingEngine, RedundancyEliminationHelpsTrainingToo)
{
    const auto dg = workload();
    const auto re = trainDefault(dg, model::AlgoKind::ReAlg);
    const auto ditile = trainDefault(dg, model::AlgoKind::DiTileAlg);
    EXPECT_LT(ditile.iterationCycles, re.iterationCycles);
    EXPECT_LT(ditile.energy.totalPj(), re.energy.totalPj());
}

TEST(TrainingEngine, Deterministic)
{
    const auto dg = workload();
    const auto a = trainDefault(dg);
    const auto b = trainDefault(dg);
    EXPECT_EQ(a.iterationCycles, b.iterationCycles);
    EXPECT_DOUBLE_EQ(a.energy.totalPj(), b.energy.totalPj());
}

TEST(TrainingEngine, DiTileFrontEndIntegration)
{
    const auto dg = workload();
    const auto plan = core::DiTileAccelerator().plan(dg, smallModel());
    const auto r = runTrainingIteration(dg, plan);
    EXPECT_GT(r.iterationCycles, r.forward.totalCycles);
    EXPECT_EQ(r.forward.acceleratorName, "DiTile-DGNN");
    // The front end ran: the plan is populated.
    EXPECT_GE(plan.parallel.tiling.tilingFactor, 1);
}

TEST(TrainingEngine, SingleTileSkipsAllReduce)
{
    const auto dg = workload();
    auto hw = AcceleratorConfig::defaults();
    hw.tileRows = 1;
    hw.tileCols = 1;
    hw.noc.rows = 1;
    hw.noc.cols = 1;
    MappingSpec mapping;
    mapping.rowPartition = graph::VertexPartition::contiguous(
        dg.numVertices(), 1);
    mapping.snapshotColumn.assign(
        static_cast<std::size_t>(dg.numSnapshots()), 0);
    const auto r = runTrainingIteration(
        dg, buildEnginePlan(dg, smallModel(), hw, mapping, {}, "single"));
    EXPECT_EQ(r.allReduceCycles, 0u);
}

} // namespace
} // namespace ditile::sim
