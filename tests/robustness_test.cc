/**
 * @file
 * Robustness sweeps: wide, randomized parameter spaces through the
 * full stack, asserting structural invariants rather than calibrated
 * magnitudes. These are the "does anything crash or go inconsistent
 * at the corners" guards.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/engine.hh"

namespace ditile {
namespace {

struct SweepPoint
{
    VertexId vertices;
    EdgeId edges;
    SnapshotId snapshots;
    double dissimilarity;
    int featureDim;
    std::uint64_t seed;
};

/**
 * gtest's byte-dump of the point, with the padding bytes zeroed. The
 * default printer dumps padding as-is, which is uninitialized, so the
 * parameter names (and the ctest names discovered from them) would
 * change from one listing to the next.
 */
void
PrintTo(const SweepPoint &p, std::ostream *os)
{
    unsigned char bytes[sizeof(SweepPoint)] = {};
    const auto put = [&](std::size_t offset, const auto &field) {
        std::memcpy(bytes + offset, &field, sizeof(field));
    };
    put(offsetof(SweepPoint, vertices), p.vertices);
    put(offsetof(SweepPoint, edges), p.edges);
    put(offsetof(SweepPoint, snapshots), p.snapshots);
    put(offsetof(SweepPoint, dissimilarity), p.dissimilarity);
    put(offsetof(SweepPoint, featureDim), p.featureDim);
    put(offsetof(SweepPoint, seed), p.seed);
    ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(bytes), os);
}

class FullStackSweep : public ::testing::TestWithParam<SweepPoint>
{
};

void
checkInvariants(const sim::RunResult &r, const graph::DynamicGraph &dg)
{
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.ops.totalArithmetic(), 0u);
    EXPECT_GT(r.dramTraffic.total(), 0u);
    EXPECT_GE(r.peUtilization, 0.0);
    EXPECT_LE(r.peUtilization, 1.0 + 1e-9);
    EXPECT_GE(r.energy.computePj, 0.0);
    EXPECT_GE(r.energy.onChipCommPj, 0.0);
    EXPECT_GE(r.energy.offChipCommPj, 0.0);
    EXPECT_GE(r.energy.controlPj, 0.0);
    EXPECT_EQ(static_cast<SnapshotId>(r.trace.size()),
              dg.numSnapshots());
    // Class bytes partition the NoC payload.
    EXPECT_EQ(r.nocBytes, r.nocBytesSpatial + r.nocBytesTemporal +
                              r.nocBytesReuse);
    // Every phase completion fits inside the makespan.
    for (const auto &tr : r.trace) {
        EXPECT_LE(tr.gnnDone, r.totalCycles);
        EXPECT_LE(tr.rnnDone, r.totalCycles);
    }
}

TEST_P(FullStackSweep, EveryAcceleratorHoldsInvariants)
{
    const auto p = GetParam();
    graph::EvolutionConfig config;
    config.numVertices = p.vertices;
    config.numEdges = p.edges;
    config.numSnapshots = p.snapshots;
    config.dissimilarity = p.dissimilarity;
    config.featureDim = p.featureDim;
    config.seed = p.seed;
    const auto dg = graph::generateDynamicGraph(config);

    model::DgnnConfig mconfig;
    mconfig.gcnDims = {16, 8};
    mconfig.lstmHidden = 8;

    {
        core::DiTileAccelerator ditile;
        checkInvariants(ditile.run(dg, mconfig), dg);
    }
    for (auto make : {sim::makeReady, sim::makeDgnnBooster,
                      sim::makeRace, sim::makeMega}) {
        auto accel = make(sim::AcceleratorConfig::defaults());
        checkInvariants(accel->run(dg, mconfig), dg);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Corners, FullStackSweep,
    ::testing::Values(
        // Tiny graph, single snapshot.
        SweepPoint{64, 128, 1, 0.0, 4, 1},
        // Two vertices-ish: degenerate but legal.
        SweepPoint{64, 64, 2, 0.5, 1, 2},
        // Dense small graph.
        SweepPoint{128, 4000, 4, 0.2, 8, 3},
        // Sparse long stream.
        SweepPoint{512, 700, 24, 0.05, 16, 4},
        // Near-total churn.
        SweepPoint{256, 1024, 6, 0.9, 8, 5},
        // Zero churn, many snapshots.
        SweepPoint{256, 1024, 12, 0.0, 8, 6},
        // Wide features.
        SweepPoint{200, 800, 4, 0.1, 700, 7}));

/** Small tile grids must work end to end. */
class GridSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(GridSweep, DiTileRunsOnAnySquareGrid)
{
    const int dim = GetParam();
    graph::EvolutionConfig config;
    config.numVertices = 400;
    config.numEdges = 2000;
    config.numSnapshots = 5;
    const auto dg = graph::generateDynamicGraph(config);

    auto hw = sim::AcceleratorConfig::defaults();
    hw.tileRows = dim;
    hw.tileCols = dim;
    hw.noc.rows = dim;
    hw.noc.cols = dim;
    const core::DiTileAccelerator accel(hw);
    model::DgnnConfig mconfig;
    mconfig.gcnDims = {16, 8};
    mconfig.lstmHidden = 8;
    const auto plan = accel.plan(dg, mconfig);
    const auto r = accel.execute(dg, plan);
    EXPECT_GT(r.totalCycles, 0u);
    const auto &mapping = plan.mapping;
    EXPECT_LE(mapping.rowPartition.numParts(), dim);
    for (int c : mapping.snapshotColumn)
        EXPECT_LT(c, dim);
}

INSTANTIATE_TEST_SUITE_P(Dims, GridSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

/** Buffer capacities from starved to ample. */
class BufferSweep : public ::testing::TestWithParam<ByteCount>
{
};

TEST_P(BufferSweep, TilingAdaptsToCapacity)
{
    graph::EvolutionConfig config;
    config.numVertices = 2000;
    config.numEdges = 16000;
    config.numSnapshots = 4;
    config.featureDim = 256;
    const auto dg = graph::generateDynamicGraph(config);

    auto hw = sim::AcceleratorConfig::defaults();
    hw.distBufferBytes = GetParam();
    const core::DiTileAccelerator accel(hw);
    model::DgnnConfig mconfig;
    const auto plan = accel.plan(dg, mconfig);
    const auto r = accel.execute(dg, plan);
    EXPECT_GT(r.totalCycles, 0u);
    const auto &tiling = plan.parallel.tiling;
    EXPECT_GE(tiling.tilingFactor, 1);
    // Smaller buffers force finer tiling.
    if (GetParam() <= (64u << 10)) {
        EXPECT_GT(tiling.tilingFactor, 4);
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferSweep,
                         ::testing::Values(16u << 10, 64u << 10,
                                           1u << 20, 16u << 20));

/**
 * Cross-accelerator determinism fuzz: two independent constructions
 * of the entire stack must agree bit for bit across random seeds.
 */
class DeterminismFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DeterminismFuzz, EndToEndBitStable)
{
    Rng meta(GetParam());
    graph::EvolutionConfig config;
    config.numVertices = static_cast<VertexId>(
        meta.uniformInt(80, 800));
    config.numEdges = config.numVertices *
        meta.uniformInt(2, 10);
    config.numSnapshots = static_cast<SnapshotId>(
        meta.uniformInt(1, 10));
    config.dissimilarity = meta.uniformReal(0.0, 0.3);
    config.featureDim = static_cast<int>(meta.uniformInt(1, 128));
    config.seed = meta();

    const auto dg1 = graph::generateDynamicGraph(config);
    const auto dg2 = graph::generateDynamicGraph(config);
    model::DgnnConfig mconfig;
    mconfig.gcnDims = {8};
    mconfig.lstmHidden = 8;
    core::DiTileAccelerator a;
    core::DiTileAccelerator b;
    const auto ra = a.run(dg1, mconfig);
    const auto rb = b.run(dg2, mconfig);
    EXPECT_EQ(ra.totalCycles, rb.totalCycles);
    EXPECT_EQ(ra.nocBytes, rb.nocBytes);
    EXPECT_EQ(ra.ops.totalArithmetic(), rb.ops.totalArithmetic());
    EXPECT_DOUBLE_EQ(ra.energy.totalPj(), rb.energy.totalPj());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

} // namespace
} // namespace ditile
