/**
 * @file
 * Unit and property tests for CSR graphs, deltas, dynamic graphs and
 * partitions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

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

TEST(Csr, InducedKeepsKeptEdgesRenumbered)
{
    // Keep {1, 2, 3} as local {0, 1, 2}: edges 1-2 and 2-3 survive.
    const auto g = triangleWithTail();
    const std::vector<VertexId> local_of = {kInvalidVertex, 0, 1, 2};
    const auto sub = g.induced(local_of);
    const auto expected = Csr::fromEdges(3, {{0, 1}, {1, 2}});
    EXPECT_EQ(sub.rowPtr(), expected.rowPtr());
    EXPECT_EQ(sub.adjacency(), expected.adjacency());
    // Nothing kept: an empty graph.
    EXPECT_EQ(g.induced(std::vector<VertexId>(4, kInvalidVertex))
                  .numVertices(),
              0);
}

TEST(GraphDelta, InducedEqualsDiffOfInducedSnapshots)
{
    const auto before = Csr::fromEdges(5, {{0, 1}, {1, 3}, {3, 4}});
    const auto after = Csr::fromEdges(5, {{0, 3}, {1, 4}, {3, 4}});
    // Keep {0, 1, 4} as local {0, 1, 2}: 0-1 removed, 1-4 added.
    const std::vector<VertexId> local_of = {0, 1, kInvalidVertex,
                                            kInvalidVertex, 2};
    const auto delta = GraphDelta::diff(before, after).induced(local_of);
    const auto expected = GraphDelta::diff(before.induced(local_of),
                                           after.induced(local_of));
    EXPECT_EQ(delta.addedEdges(), expected.addedEdges());
    EXPECT_EQ(delta.removedEdges(), expected.removedEdges());
    EXPECT_EQ(delta.affectedVertices(), expected.affectedVertices());
    EXPECT_EQ(delta.addedEdges(), (std::vector<Edge>{{1, 2}}));
    EXPECT_EQ(delta.removedEdges(), (std::vector<Edge>{{0, 1}}));
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

// fromEdges and patched sort their edge lists with a counting sort;
// both must build exactly the CSR a std::sort-based builder builds.

/** Reference CSR: canonicalize, std::sort, unique, fill rows. */
void
expectMatchesSortReference(const Csr &got, VertexId n,
                           std::vector<Edge> edges)
{
    std::vector<Edge> canon;
    for (auto [u, v] : edges) {
        if (u == v)
            continue;
        canon.emplace_back(std::min(u, v), std::max(u, v));
    }
    std::sort(canon.begin(), canon.end());
    canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
    std::vector<Edge> directed;
    for (auto [u, v] : canon) {
        directed.emplace_back(u, v);
        directed.emplace_back(v, u);
    }
    std::sort(directed.begin(), directed.end());
    std::vector<EdgeId> row_ptr(static_cast<std::size_t>(n) + 1, 0);
    std::vector<VertexId> adj;
    for (auto [u, v] : directed) {
        ++row_ptr[static_cast<std::size_t>(u) + 1];
        adj.push_back(v);
    }
    for (std::size_t v = 1; v < row_ptr.size(); ++v)
        row_ptr[v] += row_ptr[v - 1];
    EXPECT_EQ(got.numVertices(), n);
    EXPECT_EQ(got.rowPtr(), row_ptr);
    EXPECT_EQ(got.adjacency(), adj);
}

/** Random edges with duplicates, self loops, reversed pairs and ends. */
std::vector<Edge>
messyEdges(VertexId n, int count, Rng &rng)
{
    std::vector<Edge> edges;
    auto vertex = [&] {
        return static_cast<VertexId>(rng.uniformInt(0, n - 1));
    };
    for (int i = 0; i < count; ++i) {
        const VertexId u = vertex();
        const VertexId v = vertex();
        edges.emplace_back(u, v);
        if (i % 7 == 0)
            edges.emplace_back(v, u); // reversed duplicate
        if (i % 11 == 0)
            edges.emplace_back(u, u); // self loop
        if (i % 13 == 0)
            edges.emplace_back(u, v); // exact duplicate
    }
    edges.emplace_back(0, n - 1);
    edges.emplace_back(n - 1, 0);
    edges.emplace_back(0, vertex());
    edges.emplace_back(vertex(), n - 1);
    return edges;
}

TEST(CsrEdgeSort, FromEdgesMatchesStdSortReference)
{
    expectMatchesSortReference(Csr::fromEdges(6, {}), 6, {});
    expectMatchesSortReference(Csr::fromEdges(1, {{0, 0}}), 1, {{0, 0}});
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
        for (const VertexId n : {2, 17, 500}) {
            SCOPED_TRACE(testing::Message() << seed << " " << n);
            Rng rng(seed);
            const auto edges = messyEdges(n, 4 * n, rng);
            expectMatchesSortReference(Csr::fromEdges(n, edges), n,
                                       edges);
        }
    }
}

TEST(CsrEdgeSort, PatchedMatchesStdSortReference)
{
    for (const std::uint64_t seed : {3u, 9u, 1000u}) {
        SCOPED_TRACE(seed);
        const VertexId n = 300;
        Rng rng(seed);
        const Csr prev = Csr::fromEdges(n, messyEdges(n, 1200, rng));
        // Unsorted, mixed-orientation delta lists that touch vertex 0
        // and vertex n-1, so the sort inside patched() does real work.
        const std::vector<Edge> prev_edges = prev.edgeList();
        std::set<Edge> next(prev_edges.begin(), prev_edges.end());
        std::vector<Edge> added;
        std::vector<Edge> removed;
        std::set<Edge> touched;
        auto change = [&](VertexId u, VertexId v) {
            const Edge canon{std::min(u, v), std::max(u, v)};
            if (u == v || !touched.insert(canon).second)
                return;
            if (prev.hasEdge(u, v)) {
                removed.emplace_back(v, u);
                next.erase(canon);
            } else {
                added.emplace_back(v, u);
                next.insert(canon);
            }
        };
        change(0, n - 1);
        for (int i = 0; i < 80; ++i) {
            change(static_cast<VertexId>(rng.uniformInt(0, n - 1)),
                   static_cast<VertexId>(rng.uniformInt(0, n - 1)));
        }
        for (const Edge &e : prev_edges) {
            if (e.first == 0 || e.second == n - 1)
                change(e.first, e.second);
        }
        ASSERT_FALSE(added.empty());
        ASSERT_FALSE(removed.empty());
        expectMatchesSortReference(Csr::patched(prev, added, removed), n,
                                   {next.begin(), next.end()});
    }
}

} // namespace
} // namespace ditile::graph
