/**
 * @file
 * Unit and property tests for CSR graphs, deltas, dynamic graphs and
 * partitions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hh"
#include "graph/delta.hh"
#include "graph/dynamic_graph.hh"
#include "graph/generator.hh"
#include "graph/partition.hh"

namespace ditile::graph {
namespace {

Csr
triangleWithTail()
{
    // 0-1, 1-2, 2-0 triangle plus tail 2-3.
    return Csr::fromEdges(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
}

TEST(Csr, EmptyGraph)
{
    Csr g(5);
    EXPECT_EQ(g.numVertices(), 5);
    EXPECT_EQ(g.numEdges(), 0);
    EXPECT_EQ(g.numAdjacencies(), 0);
    EXPECT_EQ(g.degree(0), 0);
    EXPECT_TRUE(g.neighbors(4).empty());
}

TEST(Csr, BasicConstruction)
{
    const auto g = triangleWithTail();
    EXPECT_EQ(g.numVertices(), 4);
    EXPECT_EQ(g.numEdges(), 4);
    EXPECT_EQ(g.numAdjacencies(), 8);
    EXPECT_EQ(g.degree(0), 2);
    EXPECT_EQ(g.degree(2), 3);
    EXPECT_EQ(g.degree(3), 1);
}

TEST(Csr, NeighborsSortedAndSymmetric)
{
    const auto g = triangleWithTail();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto nbrs = g.neighbors(v);
        EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
        for (VertexId u : nbrs)
            EXPECT_TRUE(g.hasEdge(u, v));
    }
}

TEST(Csr, DropsSelfLoopsAndDuplicates)
{
    const auto g = Csr::fromEdges(3, {{0, 1}, {1, 0}, {1, 1}, {0, 1}});
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_FALSE(g.hasEdge(1, 1));
}

TEST(Csr, HasEdgeOutOfRange)
{
    const auto g = triangleWithTail();
    EXPECT_FALSE(g.hasEdge(-1, 0));
    EXPECT_FALSE(g.hasEdge(0, 99));
}

TEST(Csr, EdgeListIsCanonical)
{
    const auto g = triangleWithTail();
    const auto edges = g.edgeList();
    ASSERT_EQ(edges.size(), 4u);
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
    for (auto [u, v] : edges)
        EXPECT_LT(u, v);
}

TEST(Csr, DegreeStatistics)
{
    const auto g = triangleWithTail();
    EXPECT_DOUBLE_EQ(g.avgDegree(), 2.0);
    EXPECT_EQ(g.maxDegree(), 3);
}

TEST(GraphDelta, DiffDetectsChanges)
{
    const auto before = Csr::fromEdges(4, {{0, 1}, {1, 2}});
    const auto after = Csr::fromEdges(4, {{0, 1}, {2, 3}});
    const auto delta = GraphDelta::diff(before, after);
    ASSERT_EQ(delta.addedEdges().size(), 1u);
    EXPECT_EQ(delta.addedEdges()[0], (Edge{2, 3}));
    ASSERT_EQ(delta.removedEdges().size(), 1u);
    EXPECT_EQ(delta.removedEdges()[0], (Edge{1, 2}));
    const std::vector<VertexId> expected = {1, 2, 3};
    EXPECT_EQ(delta.affectedVertices(), expected);
    EXPECT_DOUBLE_EQ(delta.dissimilarity(4), 0.75);
}

TEST(GraphDelta, IdenticalSnapshotsYieldEmptyDelta)
{
    const auto g = triangleWithTail();
    const auto delta = GraphDelta::diff(g, g);
    EXPECT_TRUE(delta.addedEdges().empty());
    EXPECT_TRUE(delta.removedEdges().empty());
    EXPECT_TRUE(delta.affectedVertices().empty());
    EXPECT_DOUBLE_EQ(delta.dissimilarity(4), 0.0);
}

TEST(GraphDelta, FromChangesNormalizes)
{
    auto delta = GraphDelta::fromChanges({{3, 1}}, {{2, 0}});
    ASSERT_EQ(delta.addedEdges().size(), 1u);
    const std::vector<VertexId> expected = {0, 1, 2, 3};
    EXPECT_EQ(delta.affectedVertices(), expected);
}

TEST(ExpandFrontier, ZeroHopsReturnsSeeds)
{
    const auto g = triangleWithTail();
    const auto out = expandFrontier(g, {2}, 0);
    EXPECT_EQ(out, std::vector<VertexId>{2});
}

TEST(ExpandFrontier, OneHop)
{
    const auto g = triangleWithTail();
    const auto out = expandFrontier(g, {3}, 1);
    EXPECT_EQ(out, (std::vector<VertexId>{2, 3}));
}

TEST(ExpandFrontier, SaturatesConnectedComponent)
{
    const auto g = triangleWithTail();
    const auto out = expandFrontier(g, {0}, 10);
    EXPECT_EQ(out.size(), 4u);
}

TEST(ExpandFrontier, MonotoneInHops)
{
    Rng rng(5);
    const auto g = generateRmat(256, 1024, {}, rng);
    std::vector<VertexId> seeds = {1, 17, 100};
    std::size_t prev = 0;
    for (int h = 0; h <= 4; ++h) {
        const auto out = expandFrontier(g, seeds, h);
        EXPECT_GE(out.size(), prev);
        EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
        prev = out.size();
    }
}

TEST(DynamicGraph, DerivesDeltas)
{
    std::vector<Csr> snapshots;
    snapshots.push_back(Csr::fromEdges(4, {{0, 1}, {1, 2}}));
    snapshots.push_back(Csr::fromEdges(4, {{0, 1}, {2, 3}}));
    DynamicGraph dg("test", snapshots, 16);
    EXPECT_EQ(dg.numSnapshots(), 2);
    EXPECT_EQ(dg.numVertices(), 4);
    EXPECT_EQ(dg.featureDim(), 16);
    EXPECT_EQ(dg.delta(1).addedEdges().size(), 1u);
    EXPECT_DOUBLE_EQ(dg.avgEdges(), 2.0);
    EXPECT_EQ(dg.maxEdges(), 2);
    EXPECT_DOUBLE_EQ(dg.avgDissimilarity(), 0.75);
}

TEST(DynamicGraph, SingleSnapshotHasNoDissimilarity)
{
    DynamicGraph dg("one", {triangleWithTail()}, 8);
    EXPECT_DOUBLE_EQ(dg.avgDissimilarity(), 0.0);
}

TEST(VertexPartition, Contiguous)
{
    auto p = VertexPartition::contiguous(10, 3);
    EXPECT_EQ(p.numParts(), 3);
    EXPECT_EQ(p.owner(0), 0);
    EXPECT_EQ(p.owner(3), 0);
    EXPECT_EQ(p.owner(4), 1);
    EXPECT_EQ(p.owner(9), 2);
    const auto sizes = p.partSizes();
    EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], 10);
}

TEST(VertexPartition, RoundRobin)
{
    auto p = VertexPartition::roundRobin(10, 4);
    EXPECT_EQ(p.owner(0), 0);
    EXPECT_EQ(p.owner(5), 1);
    EXPECT_EQ(p.owner(7), 3);
    for (int part = 0; part < 4; ++part) {
        for (VertexId v : p.members(part))
            EXPECT_EQ(v % 4, part);
    }
}

TEST(VertexPartition, CutEdges)
{
    const auto g = triangleWithTail();
    auto all_one = VertexPartition::contiguous(4, 1);
    EXPECT_EQ(all_one.cutEdges(g), 0);

    VertexPartition split(4, 2);
    split.assign(0, 0);
    split.assign(1, 0);
    split.assign(2, 1);
    split.assign(3, 1);
    // Cut: 1-2 and 2-0.
    EXPECT_EQ(split.cutEdges(g), 2);
}

TEST(VertexPartition, Imbalance)
{
    VertexPartition p(4, 2);
    p.assign(0, 0);
    p.assign(1, 0);
    p.assign(2, 0);
    p.assign(3, 1);
    const std::vector<double> w = {1, 1, 1, 1};
    EXPECT_DOUBLE_EQ(p.imbalance(w), 1.5); // 3 / mean(2).
}

TEST(VertexPartition, ImbalancePerfect)
{
    auto p = VertexPartition::roundRobin(8, 4);
    const std::vector<double> w(8, 2.0);
    EXPECT_DOUBLE_EQ(p.imbalance(w), 1.0);
}

/** Property sweep: random CSR invariants across seeds and sizes. */
class CsrProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(CsrProperty, RoundTripAndSymmetry)
{
    const auto [seed, vertices] = GetParam();
    Rng rng(seed);
    const auto g = generateRmat(static_cast<VertexId>(vertices),
                                vertices * 4, {}, rng);
    // Round trip through the edge list.
    const auto rebuilt = Csr::fromEdges(g.numVertices(), g.edgeList());
    EXPECT_EQ(rebuilt.numEdges(), g.numEdges());
    ASSERT_EQ(rebuilt.numVertices(), g.numVertices());
    EdgeId degree_sum = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(rebuilt.degree(v), g.degree(v));
        degree_sum += g.degree(v);
        auto nbrs = g.neighbors(v);
        EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
        for (VertexId u : nbrs) {
            EXPECT_NE(u, v); // no self loops
            EXPECT_TRUE(g.hasEdge(u, v)); // symmetry
        }
    }
    // Handshake lemma.
    EXPECT_EQ(degree_sum, g.numAdjacencies());
    EXPECT_EQ(degree_sum, 2 * g.numEdges());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsrProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 99u),
                       ::testing::Values(64, 256, 1024)));

/** Delta/diff consistency across random evolutions. */
class DeltaProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DeltaProperty, DiffMatchesAppliedChanges)
{
    EvolutionConfig config;
    config.numVertices = 300;
    config.numEdges = 1500;
    config.numSnapshots = 5;
    config.dissimilarity = 0.12;
    config.seed = GetParam();
    const auto dg = generateDynamicGraph(config);
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        const auto recomputed =
            GraphDelta::diff(dg.snapshot(t - 1), dg.snapshot(t));
        EXPECT_EQ(recomputed.addedEdges(), dg.delta(t).addedEdges())
            << "snapshot " << t;
        EXPECT_EQ(recomputed.removedEdges(), dg.delta(t).removedEdges())
            << "snapshot " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaProperty,
                         ::testing::Values(1u, 7u, 42u, 1000u));

/** Csr::patched against a full rebuild over random deltas. */
class PatchProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

void
expectSameCsr(const Csr &got, const Csr &want)
{
    EXPECT_EQ(got.numVertices(), want.numVertices());
    EXPECT_EQ(got.rowPtr(), want.rowPtr());
    EXPECT_EQ(got.adjacency(), want.adjacency());
}

TEST_P(PatchProperty, MatchesFullRebuild)
{
    const VertexId n = 200;
    Rng rng(GetParam());
    // prev: an R-MAT graph with one vertex stripped of all its edges.
    const auto isolated = static_cast<VertexId>(rng.uniformInt(1, n - 2));
    std::vector<Edge> prev_edges;
    for (const Edge &e : generateRmat(n, 900, {}, rng).edgeList())
        if (e.first != isolated && e.second != isolated)
            prev_edges.push_back(e);
    const Csr prev = Csr::fromEdges(n, prev_edges);

    std::set<Edge> added;
    std::set<Edge> removed;
    auto toggle = [&](VertexId u, VertexId v) {
        if (u == v)
            return;
        const Edge e{std::min(u, v), std::max(u, v)};
        if (prev.hasEdge(u, v))
            removed.insert(e);
        else
            added.insert(e);
    };
    auto randomVertex = [&] {
        return static_cast<VertexId>(rng.uniformInt(0, n - 1));
    };
    // One vertex loses every edge; no other change touches it.
    VertexId emptied = static_cast<VertexId>(rng.uniformInt(1, n - 2));
    while (emptied == isolated || prev.degree(emptied) == 0)
        emptied = emptied % (n - 2) + 1;
    for (VertexId w : prev.neighbors(emptied))
        toggle(emptied, w);
    auto change = [&](VertexId u, VertexId v) {
        if (u != emptied && v != emptied)
            toggle(u, v);
    };
    // The isolated vertex gains edges.
    for (int i = 0; i < 5; ++i)
        change(isolated, randomVertex());
    // Changes on the first and last vertex.
    change(0, n - 1);
    change(0, randomVertex());
    change(n - 1, randomVertex());
    // Random additions and removals anywhere else.
    for (int i = 0; i < 40; ++i)
        change(randomVertex(), randomVertex());
    ASSERT_EQ(prev.degree(isolated), 0);
    ASSERT_GT(prev.degree(emptied), 0);

    std::set<Edge> next(prev_edges.begin(), prev_edges.end());
    for (const Edge &e : removed)
        next.erase(e);
    next.insert(added.begin(), added.end());
    const std::vector<Edge> added_list(added.begin(), added.end());
    const std::vector<Edge> removed_list(removed.begin(), removed.end());
    const Csr got = Csr::patched(prev, added_list, removed_list);
    expectSameCsr(got, Csr::fromEdges(n, {next.begin(), next.end()}));
    EXPECT_EQ(got.degree(emptied), 0);
    EXPECT_GT(got.degree(isolated), 0);

    const auto diff = GraphDelta::diff(prev, got);
    EXPECT_EQ(diff.addedEdges(), added_list);
    EXPECT_EQ(diff.removedEdges(), removed_list);
}

TEST_P(PatchProperty, EmptyDeltaCopiesPrev)
{
    Rng rng(GetParam());
    const Csr prev = generateRmat(200, 900, {}, rng);
    expectSameCsr(Csr::patched(prev, {}, {}), prev);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatchProperty,
                         ::testing::Values(1u, 7u, 42u, 1000u, 31337u));

TEST(CsrPatch, EveryEdgeRemovedAndReadded)
{
    const auto g = triangleWithTail();
    const auto edges = g.edgeList();
    const Csr empty = Csr::patched(g, {}, edges);
    EXPECT_EQ(empty.numEdges(), 0);
    expectSameCsr(empty, Csr(4));
    expectSameCsr(Csr::patched(empty, edges, {}), g);
}

} // namespace
} // namespace ditile::graph
