/**
 * @file
 * Tests for the DiTile-DGNN core: front-end units, ablation variants,
 * and the analytical traffic estimator.
 */

#include <gtest/gtest.h>

#include "core/analytical_estimator.hh"
#include "core/ditile_accelerator.hh"
#include "core/units.hh"
#include "graph/generator.hh"

namespace ditile::core {
namespace {

graph::DynamicGraph
workload(std::uint64_t seed = 5)
{
    graph::EvolutionConfig config;
    config.numVertices = 600;
    config.numEdges = 4000;
    config.numSnapshots = 6;
    config.dissimilarity = 0.10;
    config.featureDim = 48;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

TEST(DiTileOptions, VariantTable)
{
    const auto full = DiTileOptions::fromVariant("full");
    EXPECT_TRUE(full.parallelismStrategy);
    EXPECT_TRUE(full.workloadBalance);
    EXPECT_TRUE(full.reconfigurableNoc);

    const auto nops = DiTileOptions::fromVariant("NoPs");
    EXPECT_FALSE(nops.parallelismStrategy);
    EXPECT_TRUE(nops.workloadBalance);

    const auto nowos = DiTileOptions::fromVariant("NoWos");
    EXPECT_FALSE(nowos.workloadBalance);
    EXPECT_TRUE(nowos.reconfigurableNoc);

    const auto nora = DiTileOptions::fromVariant("NoRa");
    EXPECT_FALSE(nora.reconfigurableNoc);

    const auto onlyps = DiTileOptions::fromVariant("OnlyPs");
    EXPECT_TRUE(onlyps.parallelismStrategy);
    EXPECT_FALSE(onlyps.workloadBalance);
    EXPECT_FALSE(onlyps.reconfigurableNoc);

    const auto onlywos = DiTileOptions::fromVariant("OnlyWos");
    EXPECT_TRUE(onlywos.workloadBalance);
    EXPECT_FALSE(onlywos.parallelismStrategy);

    const auto onlyra = DiTileOptions::fromVariant("OnlyRa");
    EXPECT_TRUE(onlyra.reconfigurableNoc);
    EXPECT_FALSE(onlyra.workloadBalance);
}

TEST(DiTileOptions, UnknownVariantIsFatal)
{
    EXPECT_EXIT(DiTileOptions::fromVariant("bogus"),
                ::testing::ExitedWithCode(1), "unknown DiTile variant");
}

TEST(DiTileAccelerator, NameReflectsOptions)
{
    DiTileAccelerator full;
    EXPECT_EQ(full.name(), "DiTile-DGNN");
    DiTileAccelerator ablated(sim::AcceleratorConfig::defaults(),
                              DiTileOptions::fromVariant("NoWos"));
    EXPECT_EQ(ablated.name(), "DiTile+Ps-Wos+Ra");
}

/** The Algorithm-2 imbalance of a plan's row partition. */
double
imbalanceOf(const sim::ExecutionPlan &plan,
            const graph::DynamicGraph &dg,
            const model::DgnnConfig &config)
{
    return plan.mapping.rowPartition.imbalance(
        workload::computeVertexLoads(dg, config.numGcnLayers()));
}

TEST(DiTileAccelerator, RunPopulatesPlanAndMapping)
{
    const auto dg = workload();
    model::DgnnConfig config;
    const DiTileAccelerator accel;
    const auto execution_plan = accel.plan(dg, config);
    const auto result = accel.execute(dg, execution_plan);
    EXPECT_GT(result.totalCycles, 0u);

    const auto &plan = execution_plan.parallel;
    EXPECT_GE(plan.tiling.tilingFactor, 1);
    EXPECT_GE(plan.parallelism.snapshotGroups, 1);
    EXPECT_GE(plan.parallelism.vertexParts, 1);

    const auto &mapping = execution_plan.mapping;
    EXPECT_EQ(mapping.rowPartition.numVertices(), dg.numVertices());
    ASSERT_EQ(static_cast<SnapshotId>(mapping.snapshotColumn.size()),
              dg.numSnapshots());
    const auto hw = accel.hardware();
    for (int c : mapping.snapshotColumn) {
        EXPECT_GE(c, 0);
        EXPECT_LT(c, hw.tileCols);
    }
    EXPECT_LE(mapping.rowPartition.numParts(), hw.tileRows);
    EXPECT_FALSE(execution_plan.groups.empty());
    EXPECT_GE(imbalanceOf(execution_plan, dg, config), 1.0);
}

TEST(DiTileAccelerator, BalancedMappingBeatsUnbalanced)
{
    const auto dg = workload();
    model::DgnnConfig config;
    const DiTileAccelerator balanced;
    const DiTileAccelerator unbalanced(
        sim::AcceleratorConfig::defaults(),
        DiTileOptions::fromVariant("NoWos"));
    EXPECT_LT(imbalanceOf(balanced.plan(dg, config), dg, config),
              imbalanceOf(unbalanced.plan(dg, config), dg, config));
}

TEST(DiTileAccelerator, Deterministic)
{
    const auto dg = workload();
    model::DgnnConfig config;
    DiTileAccelerator a;
    DiTileAccelerator b;
    EXPECT_EQ(a.run(dg, config).totalCycles,
              b.run(dg, config).totalCycles);
}

/** Every ablation variant must cost at least as much as the full
 *  design (Figure 11b's premise), across seeds. */
class AblationOrdering : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AblationOrdering, FullDesignIsFastest)
{
    const auto dg = workload(GetParam());
    model::DgnnConfig config;
    DiTileAccelerator full;
    const auto base = full.run(dg, config).totalCycles;
    for (const char *variant : {"NoPs", "NoWos", "NoRa", "OnlyPs",
                                "OnlyWos", "OnlyRa"}) {
        DiTileAccelerator ablated(
            sim::AcceleratorConfig::defaults(),
            DiTileOptions::fromVariant(variant));
        EXPECT_GE(ablated.run(dg, config).totalCycles, base)
            << variant;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AblationOrdering,
                         ::testing::Values(5u, 21u));

TEST(AnalyticalEstimator, PositiveAndScaleConsistent)
{
    const auto dg = workload();
    model::DgnnConfig config;
    const DiTileAccelerator accel;
    const auto plan = accel.plan(dg, config);
    const auto result = accel.execute(dg, plan);

    int boundaries = 0;
    const auto &cols = plan.mapping.snapshotColumn;
    for (std::size_t t = 1; t < cols.size(); ++t)
        boundaries += cols[t] != cols[t - 1];

    const auto est = estimateTraffic(dg, config, plan.parallel,
                                     boundaries);
    EXPECT_GT(est.dramBytes, 0.0);
    EXPECT_GT(est.onChipBytes, 0.0);
    // The estimate must land within a factor of 2.5 of the simulation
    // (the paper reports a ~5-9% gap on its datasets; synthetic
    // extremes stay within this looser envelope).
    const double da_ratio =
        static_cast<double>(result.dramTraffic.total()) / est.dramBytes;
    const double ot_ratio =
        static_cast<double>(result.nocBytes) / est.onChipBytes;
    EXPECT_GT(da_ratio, 0.4);
    EXPECT_LT(da_ratio, 2.5);
    EXPECT_GT(ot_ratio, 0.4);
    EXPECT_LT(ot_ratio, 2.5);
}

TEST(AnalyticalEstimator, GrowsWithHorizon)
{
    model::DgnnConfig config;
    graph::EvolutionConfig gconfig;
    gconfig.numVertices = 500;
    gconfig.numEdges = 3000;
    gconfig.featureDim = 32;
    double prev = 0.0;
    for (SnapshotId t_count : {2, 6, 12}) {
        gconfig.numSnapshots = t_count;
        const auto dg = graph::generateDynamicGraph(gconfig);
        const auto plan = DiTileAccelerator().plan(dg, config);
        const auto est = estimateTraffic(dg, config, plan.parallel,
                                         t_count - 1);
        EXPECT_GT(est.dramBytes, prev);
        prev = est.dramBytes;
    }
}

TEST(AnalyticalEstimator, BoundaryCountScalesBoundaryTraffic)
{
    model::DgnnConfig config;
    const auto dg = workload();
    const auto plan = DiTileAccelerator().plan(dg, config);
    const auto none = estimateTraffic(dg, config, plan.parallel, 0);
    const auto many = estimateTraffic(dg, config, plan.parallel, 5);
    EXPECT_GT(many.onChipBytes, none.onChipBytes);
    EXPECT_DOUBLE_EQ(many.dramBytes, none.dramBytes);
}

TEST(AnalyticalEstimator, GrowsWithDissimilarity)
{
    model::DgnnConfig config;
    graph::EvolutionConfig gconfig;
    gconfig.numVertices = 600;
    gconfig.numEdges = 4000;
    gconfig.numSnapshots = 6;
    gconfig.featureDim = 48;

    double prev_dram = 0.0;
    for (double dis : {0.02, 0.10, 0.25}) {
        gconfig.dissimilarity = dis;
        const auto dg = graph::generateDynamicGraph(gconfig);
        const auto plan = DiTileAccelerator().plan(dg, config);
        const auto est = estimateTraffic(dg, config, plan.parallel, 3);
        EXPECT_GT(est.dramBytes, prev_dram);
        prev_dram = est.dramBytes;
    }
}

TEST(ReconfigurationUnit, ModesMatchOptions)
{
    const auto on = configureInterconnect(true);
    EXPECT_EQ(on.topology, noc::TopologyKind::Reconfigurable);
    EXPECT_GT(on.reconfigEventsPerSnapshot, 0u);
    const auto off = configureInterconnect(false);
    EXPECT_EQ(off.topology, noc::TopologyKind::Mesh);
    EXPECT_EQ(off.reconfigEventsPerSnapshot, 0u);
}

TEST(StrategyAdjuster, NaiveStrategyFragmentsTiling)
{
    const auto dg = workload();
    model::DgnnConfig config;
    const auto hw = sim::AcceleratorConfig::defaults();
    const auto optimized = adjustStrategy(dg, config, hw, true);
    const auto naive = adjustStrategy(dg, config, hw, false);
    EXPECT_GE(naive.tiling.tilingFactor,
              optimized.tiling.tilingFactor);
    EXPECT_GE(naive.tiling.refetchFactor,
              optimized.tiling.refetchFactor);
}

TEST(WorkloadGenerator, GroupsCoverEverySnapshot)
{
    const auto dg = workload();
    model::DgnnConfig config;
    const auto hw = sim::AcceleratorConfig::defaults();
    const auto plan = adjustStrategy(dg, config, hw, true);
    const auto loads =
        workload::computeVertexLoads(dg, config.numGcnLayers());
    const auto out = generateWorkload(dg, loads, plan, hw, true);

    std::vector<bool> covered(
        static_cast<std::size_t>(dg.numSnapshots()), false);
    for (const auto &g : out.groups)
        for (SnapshotId t = g.snapshotBegin; t < g.snapshotEnd; ++t)
            covered[static_cast<std::size_t>(t)] = true;
    for (bool c : covered)
        EXPECT_TRUE(c);
}

} // namespace
} // namespace ditile::core
