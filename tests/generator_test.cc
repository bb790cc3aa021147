/**
 * @file
 * Tests for the R-MAT generator, temporal evolution and the dataset
 * registry.
 */

#include <gtest/gtest.h>

#include "graph/datasets.hh"
#include "graph/generator.hh"

namespace ditile::graph {
namespace {

TEST(Rmat, ProducesRequestedEdgeCount)
{
    Rng rng(1);
    const auto g = generateRmat(1024, 4096, {}, rng);
    EXPECT_EQ(g.numVertices(), 1024);
    EXPECT_EQ(g.numEdges(), 4096);
}

TEST(Rmat, DeterministicForEqualSeeds)
{
    Rng a(5);
    Rng b(5);
    const auto ga = generateRmat(512, 2048, {}, a);
    const auto gb = generateRmat(512, 2048, {}, b);
    EXPECT_EQ(ga.edgeList(), gb.edgeList());
}

TEST(Rmat, DifferentSeedsDiffer)
{
    Rng a(5);
    Rng b(6);
    const auto ga = generateRmat(512, 2048, {}, a);
    const auto gb = generateRmat(512, 2048, {}, b);
    EXPECT_NE(ga.edgeList(), gb.edgeList());
}

TEST(Rmat, SkewedDegreeDistribution)
{
    Rng rng(9);
    const auto g = generateRmat(2048, 16384, {}, rng);
    // R-MAT with default parameters produces hubs far above the mean.
    EXPECT_GT(g.maxDegree(), 4 * g.avgDegree());
}

TEST(Rmat, NonPowerOfTwoVertices)
{
    Rng rng(11);
    const auto g = generateRmat(1000, 3000, {}, rng);
    EXPECT_EQ(g.numVertices(), 1000);
    EXPECT_EQ(g.numEdges(), 3000);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        for (VertexId u : g.neighbors(v))
            EXPECT_LT(u, 1000);
}

TEST(Rmat, DenseRequestCapped)
{
    Rng rng(13);
    // More edges than possible: must cap at the complete graph.
    const auto g = generateRmat(8, 1000, {}, rng);
    EXPECT_EQ(g.numEdges(), 28);
}

TEST(Evolution, SnapshotCountAndUniverse)
{
    EvolutionConfig config;
    config.numVertices = 500;
    config.numEdges = 2500;
    config.numSnapshots = 6;
    const auto dg = generateDynamicGraph(config);
    EXPECT_EQ(dg.numSnapshots(), 6);
    EXPECT_EQ(dg.numVertices(), 500);
    for (SnapshotId t = 0; t < 6; ++t)
        EXPECT_EQ(dg.snapshot(t).numVertices(), 500);
}

TEST(Evolution, EdgeCountStaysApproximatelyConstant)
{
    EvolutionConfig config;
    config.numVertices = 800;
    config.numEdges = 4000;
    config.numSnapshots = 8;
    config.dissimilarity = 0.10;
    const auto dg = generateDynamicGraph(config);
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        EXPECT_NEAR(static_cast<double>(dg.snapshot(t).numEdges()),
                    4000.0, 4000.0 * 0.05)
            << "snapshot " << t;
    }
}

TEST(Evolution, Deterministic)
{
    EvolutionConfig config;
    config.numVertices = 300;
    config.numEdges = 1200;
    config.numSnapshots = 4;
    config.seed = 77;
    const auto a = generateDynamicGraph(config);
    const auto b = generateDynamicGraph(config);
    for (SnapshotId t = 0; t < 4; ++t)
        EXPECT_EQ(a.snapshot(t).edgeList(), b.snapshot(t).edgeList());
}

TEST(Evolution, SingleSnapshot)
{
    EvolutionConfig config;
    config.numVertices = 100;
    config.numEdges = 300;
    config.numSnapshots = 1;
    const auto dg = generateDynamicGraph(config);
    EXPECT_EQ(dg.numSnapshots(), 1);
}

TEST(Evolution, ZeroDissimilarityFreezesGraph)
{
    EvolutionConfig config;
    config.numVertices = 200;
    config.numEdges = 800;
    config.numSnapshots = 4;
    config.dissimilarity = 0.0;
    const auto dg = generateDynamicGraph(config);
    for (SnapshotId t = 1; t < 4; ++t) {
        EXPECT_EQ(dg.delta(t).numChanges(), 0u);
        EXPECT_EQ(dg.snapshot(t).edgeList(),
                  dg.snapshot(0).edgeList());
    }
}

/** Dissimilarity targeting across the paper's observed band. */
class DissimilarityTarget : public ::testing::TestWithParam<double>
{
};

TEST_P(DissimilarityTarget, MeasuredNearTarget)
{
    const double target = GetParam();
    EvolutionConfig config;
    config.numVertices = 2000;
    config.numEdges = 12000;
    config.numSnapshots = 6;
    config.dissimilarity = target;
    config.seed = 3;
    const auto dg = generateDynamicGraph(config);
    // The generator stops as soon as the affected set reaches the
    // target, so measured dissimilarity lands within a small band.
    EXPECT_NEAR(dg.avgDissimilarity(), target,
                std::max(0.01, target * 0.15));
}

INSTANTIATE_TEST_SUITE_P(Band, DissimilarityTarget,
                         ::testing::Values(0.025, 0.05, 0.083, 0.10,
                                           0.133));

/**
 * Byte-identity goldens for generation. Snapshots t >= 1 are patched
 * from their delta, so a delta that drifted from the draws would no
 * longer show up as a diff mismatch; these structure hashes pin every
 * adjacency list of every snapshot instead. Any change to the RNG
 * draw order, the R-MAT sampler or snapshot construction moves them.
 */
std::uint64_t
rmatHash(VertexId vertices, EdgeId edges, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Csr> snapshots;
    snapshots.push_back(generateRmat(vertices, edges, {}, rng));
    return DynamicGraph("rmat", std::move(snapshots), 1)
        .structureHashValue();
}

TEST(GenerationGolden, Rmat)
{
    EXPECT_EQ(rmatHash(1000, 6000, 11), 0x83e774734c2c775dULL);
    // Dense enough to reach the uniform fallback fill.
    EXPECT_EQ(rmatHash(48, 1100, 13), 0x40bd433e33b6e793ULL);
}

TEST(GenerationGolden, Evolution)
{
    EvolutionConfig config;
    config.numVertices = 1000;
    config.numEdges = 5000;
    config.numSnapshots = 6;
    config.dissimilarity = 0.08;
    config.seed = 123;
    EXPECT_EQ(generateDynamicGraph(config).structureHashValue(),
              0x3739fdead7035a73ULL);
}

struct DatasetGolden
{
    SnapshotId snapshots;
    double dissimilarity;
    std::uint64_t hash;
};

TEST(GenerationGolden, WikipediaHalfScale)
{
    const DatasetGolden goldens[] = {
        {8, 0.02, 0xa780f326d1f693b9ULL},
        {8, 0.10, 0x02bb783b8fbafe14ULL},
        {16, 0.02, 0xc8edc0f0b0894666ULL},
        {16, 0.10, 0xc34e0b82e6042925ULL},
    };
    for (const auto &golden : goldens) {
        DatasetOptions options;
        options.scale = 0.5;
        options.seed = 42;
        options.numSnapshots = golden.snapshots;
        options.dissimilarity = golden.dissimilarity;
        EXPECT_EQ(makeDataset("WD", options).structureHashValue(),
                  golden.hash)
            << golden.snapshots << " snapshots, dis "
            << golden.dissimilarity;
    }
}

TEST(Datasets, RegistryMatchesTableOne)
{
    const auto &registry = datasetRegistry();
    ASSERT_EQ(registry.size(), 6u);
    EXPECT_EQ(registry[0].abbrev, "PM");
    EXPECT_EQ(registry[0].vertices, 1917);
    EXPECT_EQ(registry[0].edges, 88648);
    EXPECT_EQ(registry[0].features, 500);
    EXPECT_EQ(registry[1].abbrev, "RD");
    EXPECT_EQ(registry[1].vertices, 55863);
    EXPECT_EQ(registry[2].abbrev, "MB");
    EXPECT_EQ(registry[2].edges, 2200203);
    EXPECT_EQ(registry[3].abbrev, "TW");
    EXPECT_EQ(registry[3].features, 768);
    EXPECT_EQ(registry[4].abbrev, "WD");
    EXPECT_EQ(registry[4].vertices, 9227);
    EXPECT_EQ(registry[5].abbrev, "FK");
    EXPECT_EQ(registry[5].edges, 33140017);
}

TEST(Datasets, LookupIsCaseInsensitive)
{
    EXPECT_EQ(findDataset("pm").name, "PubMed");
    EXPECT_EQ(findDataset("PUBMED").abbrev, "PM");
    EXPECT_EQ(findDataset("wd").name, "Wikipedia");
}

TEST(Datasets, UnknownNameIsFatal)
{
    EXPECT_EXIT(findDataset("nope"), ::testing::ExitedWithCode(1),
                "unknown dataset");
}

TEST(Datasets, DissimilarityDefaultsInPaperBand)
{
    for (const auto &spec : datasetRegistry()) {
        EXPECT_GE(spec.dissimilarity, 0.041) << spec.name;
        EXPECT_LE(spec.dissimilarity, 0.133) << spec.name;
    }
}

TEST(Datasets, MakeDatasetAppliesScale)
{
    DatasetOptions options;
    options.scale = 0.5;
    options.numSnapshots = 3;
    const auto dg = makeDataset("WD", options);
    EXPECT_EQ(dg.numSnapshots(), 3);
    EXPECT_NEAR(dg.numVertices(), 9227 * 0.5, 2.0);
    EXPECT_EQ(dg.featureDim(), 172);
    EXPECT_EQ(dg.name(), "WD");
}

TEST(Datasets, DefaultScalesKeepGraphsTractable)
{
    for (const auto &spec : datasetRegistry()) {
        const auto scaled_edges = static_cast<double>(spec.edges) *
            spec.defaultScale;
        EXPECT_LE(scaled_edges, 600000.0) << spec.name;
    }
}

TEST(Datasets, SeedOverrideChangesGraph)
{
    DatasetOptions a;
    a.seed = 1;
    a.scale = 0.2;
    DatasetOptions b = a;
    b.seed = 2;
    const auto ga = makeDataset("TW", a);
    const auto gb = makeDataset("TW", b);
    EXPECT_NE(ga.snapshot(0).edgeList(), gb.snapshot(0).edgeList());
}

} // namespace
} // namespace ditile::graph
