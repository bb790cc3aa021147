/**
 * @file
 * Tests for the continuous-time dynamic graph representation and its
 * discretization into snapshot sequences.
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/hash.hh"
#include "graph/ctdg.hh"
#include "graph/window.hh"

namespace ditile::graph {
namespace {

ContinuousDynamicGraph
tinyStream()
{
    // Initial: 0-1. Events: add 1-2 at t=1, remove 0-1 at t=2,
    // add 2-3 at t=3.
    Csr initial = Csr::fromEdges(4, {{0, 1}});
    std::vector<GraphEvent> events = {
        {GraphEvent::Kind::AddEdge, 1, 2, 1.0},
        {GraphEvent::Kind::RemoveEdge, 0, 1, 2.0},
        {GraphEvent::Kind::AddEdge, 2, 3, 3.0},
    };
    return ContinuousDynamicGraph("tiny", std::move(initial),
                                  std::move(events));
}

TEST(Ctdg, BasicAccessors)
{
    const auto ctdg = tinyStream();
    EXPECT_EQ(ctdg.name(), "tiny");
    EXPECT_EQ(ctdg.initial().numEdges(), 1);
    EXPECT_EQ(ctdg.events().size(), 3u);
    EXPECT_DOUBLE_EQ(ctdg.beginTime(), 1.0);
    EXPECT_DOUBLE_EQ(ctdg.endTime(), 3.0);
}

TEST(Ctdg, DiscretizeReplaysEventsInOrder)
{
    const auto ctdg = tinyStream();
    // 3 snapshots at cutoffs 1, 2, 3 (after the initial snapshot).
    const auto dg = ctdg.discretize(4, 8);
    ASSERT_EQ(dg.numSnapshots(), 4);
    EXPECT_EQ(dg.featureDim(), 8);

    // t = 0: initial graph.
    EXPECT_TRUE(dg.snapshot(0).hasEdge(0, 1));
    EXPECT_EQ(dg.snapshot(0).numEdges(), 1);
    // t = 1 (cutoff ~1.67): 0-1 and 1-2.
    EXPECT_TRUE(dg.snapshot(1).hasEdge(1, 2));
    EXPECT_TRUE(dg.snapshot(1).hasEdge(0, 1));
    // t = 2 (cutoff ~2.33): 0-1 removed.
    EXPECT_FALSE(dg.snapshot(2).hasEdge(0, 1));
    EXPECT_TRUE(dg.snapshot(2).hasEdge(1, 2));
    // t = 3 (cutoff 3): 2-3 added.
    EXPECT_TRUE(dg.snapshot(3).hasEdge(2, 3));
    EXPECT_EQ(dg.snapshot(3).numEdges(), 2);
}

TEST(Ctdg, SingleSnapshotIsInitialGraph)
{
    const auto dg = tinyStream().discretize(1, 4);
    EXPECT_EQ(dg.numSnapshots(), 1);
    EXPECT_TRUE(dg.snapshot(0).hasEdge(0, 1));
}

TEST(Ctdg, NoOpEventsTolerated)
{
    Csr initial = Csr::fromEdges(3, {{0, 1}});
    std::vector<GraphEvent> events = {
        {GraphEvent::Kind::AddEdge, 0, 1, 1.0},    // already present.
        {GraphEvent::Kind::RemoveEdge, 1, 2, 2.0}, // missing.
    };
    ContinuousDynamicGraph ctdg("noop", std::move(initial),
                                std::move(events));
    const auto dg = ctdg.discretize(3, 4);
    for (SnapshotId t = 0; t < 3; ++t)
        EXPECT_EQ(dg.snapshot(t).numEdges(), 1) << t;
}

TEST(Ctdg, DiscretizeNoopEvents)
{
    // Initial 0-1, 1-2 on 5 vertices; events span [0, 4], so the
    // four snapshots after the initial one cut at 1, 2, 3 and 4.
    Csr initial = Csr::fromEdges(5, {{0, 1}, {1, 2}});
    std::vector<GraphEvent> events = {
        {GraphEvent::Kind::AddEdge, 3, 3, 0.0},    // self loop.
        {GraphEvent::Kind::AddEdge, 1, 0, 1.5},    // duplicate add.
        {GraphEvent::Kind::AddEdge, 2, 3, 2.0},
        {GraphEvent::Kind::AddEdge, 0, 4, 2.4},    // added, then
        {GraphEvent::Kind::RemoveEdge, 3, 4, 2.5}, // (missing edge)
        {GraphEvent::Kind::RemoveEdge, 4, 0, 2.8}, // removed in (2, 3].
        {GraphEvent::Kind::RemoveEdge, 1, 2, 4.0},
    };
    ContinuousDynamicGraph ctdg("noops", std::move(initial),
                                std::move(events));
    const auto dg = ctdg.discretize(5, 4);
    const std::vector<std::vector<Edge>> expected = {
        {{0, 1}, {1, 2}},
        {{0, 1}, {1, 2}},
        {{0, 1}, {1, 2}, {2, 3}},
        {{0, 1}, {1, 2}, {2, 3}},
        {{0, 1}, {2, 3}},
    };
    ASSERT_EQ(dg.numSnapshots(), 5);
    for (SnapshotId t = 0; t < 5; ++t)
        EXPECT_EQ(dg.snapshot(t).edgeList(),
                  expected[static_cast<std::size_t>(t)])
            << "snapshot " << t;
    // The interval that added and removed 0-4 leaves no trace.
    EXPECT_TRUE(dg.delta(3).addedEdges().empty());
    EXPECT_TRUE(dg.delta(3).removedEdges().empty());
    EXPECT_EQ(dg.delta(4).removedEdges(), (std::vector<Edge>{{1, 2}}));
}

TEST(Ctdg, EmptyEventStream)
{
    Csr initial = Csr::fromEdges(3, {{0, 1}, {1, 2}});
    ContinuousDynamicGraph ctdg("static", std::move(initial), {});
    const auto dg = ctdg.discretize(3, 4);
    EXPECT_EQ(dg.numSnapshots(), 3);
    EXPECT_DOUBLE_EQ(dg.avgDissimilarity(), 0.0);
}

TEST(GenerateEventStream, RespectsConfiguration)
{
    EventStreamConfig config;
    config.numVertices = 256;
    config.initialEdges = 1024;
    config.numEvents = 500;
    config.duration = 50.0;
    config.seed = 7;
    const auto ctdg = generateEventStream(config);
    EXPECT_EQ(ctdg.initial().numVertices(), 256);
    EXPECT_EQ(ctdg.initial().numEdges(), 1024);
    EXPECT_LE(ctdg.events().size(), 500u);
    EXPECT_GE(ctdg.events().size(), 400u); // few degenerate skips.
    double prev = 0.0;
    for (const auto &e : ctdg.events()) {
        EXPECT_GE(e.timestamp, prev);
        EXPECT_LE(e.timestamp, 50.0);
        EXPECT_GE(e.u, 0);
        EXPECT_LT(e.u, 256);
        EXPECT_GE(e.v, 0);
        EXPECT_LT(e.v, 256);
        prev = e.timestamp;
    }
}

TEST(GenerateEventStream, Deterministic)
{
    EventStreamConfig config;
    config.numVertices = 128;
    config.initialEdges = 512;
    config.numEvents = 200;
    config.seed = 11;
    const auto a = generateEventStream(config);
    const auto b = generateEventStream(config);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].u, b.events()[i].u);
        EXPECT_EQ(a.events()[i].v, b.events()[i].v);
        EXPECT_DOUBLE_EQ(a.events()[i].timestamp,
                         b.events()[i].timestamp);
    }
}

TEST(GenerateEventStream, DiscretizedStreamFeedsPipeline)
{
    EventStreamConfig config;
    config.numVertices = 300;
    config.initialEdges = 1500;
    config.numEvents = 600;
    config.removalFraction = 0.5;
    const auto dg = generateEventStream(config).discretize(5, 16);
    EXPECT_EQ(dg.numSnapshots(), 5);
    EXPECT_EQ(dg.numVertices(), 300);
    // The stream produced genuine inter-snapshot change.
    EXPECT_GT(dg.avgDissimilarity(), 0.0);
    // Balanced add/remove keeps the size in a sane band.
    for (SnapshotId t = 0; t < 5; ++t) {
        EXPECT_GT(dg.snapshot(t).numEdges(), 1000);
        EXPECT_LT(dg.snapshot(t).numEdges(), 2000);
    }
}

TEST(GenerateEventStream, RemovalFractionShapesStream)
{
    EventStreamConfig grow;
    grow.numVertices = 200;
    grow.initialEdges = 400;
    grow.numEvents = 400;
    grow.removalFraction = 0.0;
    const auto grown = generateEventStream(grow).discretize(3, 4);
    EXPECT_GT(grown.snapshot(2).numEdges(),
              grown.snapshot(0).numEdges());

    EventStreamConfig shrink = grow;
    shrink.removalFraction = 1.0;
    const auto shrunk = generateEventStream(shrink).discretize(3, 4);
    EXPECT_LT(shrunk.snapshot(2).numEdges(),
              shrunk.snapshot(0).numEdges());
}

struct EventStreamGolden
{
    EventStreamConfig config;
    std::size_t events;
    std::uint64_t hash;
};

/** FNV over the initial graph's edges and every event field. */
std::uint64_t
eventStreamHash(const ContinuousDynamicGraph &ctdg)
{
    WordHasher hasher;
    for (auto [u, v] : ctdg.initial().edgeList()) {
        hasher.mix(static_cast<std::uint64_t>(u));
        hasher.mix(static_cast<std::uint64_t>(v));
    }
    for (const GraphEvent &e : ctdg.events()) {
        hasher.mix(static_cast<std::uint64_t>(e.kind));
        hasher.mix(static_cast<std::uint64_t>(e.u));
        hasher.mix(static_cast<std::uint64_t>(e.v));
        hasher.mix(std::bit_cast<std::uint64_t>(e.timestamp));
    }
    return hasher.h;
}

// Recorded before generateEventStream switched to the shared R-MAT
// sampler; any change to its draw order moves these.
TEST(Ctdg, EventStreamPinned)
{
    EventStreamConfig sparse;
    sparse.numVertices = 100;
    sparse.initialEdges = 300;
    sparse.numEvents = 120;
    sparse.duration = 20.0;
    sparse.removalFraction = 0.4;
    sparse.seed = 9;
    // Near-clique: many additions exhaust their retries and are
    // skipped (24 of 40 events survive).
    EventStreamConfig dense;
    dense.numVertices = 8;
    dense.initialEdges = 24;
    dense.numEvents = 40;
    dense.removalFraction = 0.2;
    dense.seed = 4;
    const EventStreamGolden goldens[] = {
        {sparse, 120, 0xd9c52e2a5edd48afULL},
        {dense, 24, 0x2d9872951f6113faULL},
    };
    for (const auto &golden : goldens) {
        const auto ctdg = generateEventStream(golden.config);
        EXPECT_EQ(ctdg.events().size(), golden.events)
            << golden.config.numVertices << " vertices";
        EXPECT_EQ(eventStreamHash(ctdg), golden.hash)
            << golden.config.numVertices << " vertices";
    }
}

/** The stream Ctdg.DiscretizePinned and BM_Discretize discretize. */
EventStreamConfig
pinnedStreamConfig()
{
    EventStreamConfig config;
    config.numVertices = 4096;
    config.initialEdges = 32768;
    config.numEvents = 20000;
    config.seed = 3;
    return config;
}

// Recorded with discretize rolling one window as wide as its output.
TEST(Ctdg, DiscretizePinned)
{
    const auto ctdg = generateEventStream(pinnedStreamConfig());
    const std::pair<SnapshotId, std::uint64_t> goldens[] = {
        {8, 0xe7d9dc439e79c227ULL},
        {32, 0x9b7542e9268554c8ULL},
        {128, 0x66ffae6c919a6704ULL},
    };
    for (const auto &[snapshots, hash] : goldens)
        EXPECT_EQ(ctdg.discretize(snapshots, 16).structureHashValue(),
                  hash)
            << snapshots << " snapshots";
}

/**
 * Reference sampling: one window as wide as the output, rolled at each
 * cutoff, whose graph is the result.
 */
DynamicGraph
wideWindowDiscretize(const ContinuousDynamicGraph &ctdg,
                     SnapshotId num_snapshots, int feature_dim)
{
    SnapshotWindow window(ctdg.name(), ctdg.initial(), num_snapshots,
                          feature_dim);
    const double begin = ctdg.beginTime();
    const double span = ctdg.endTime() - begin;
    std::size_t cursor = 0;
    for (SnapshotId t = 1; t < num_snapshots; ++t) {
        const double cutoff = begin + span * static_cast<double>(t) /
            static_cast<double>(num_snapshots - 1);
        while (cursor < ctdg.events().size() &&
               ctdg.events()[cursor].timestamp <= cutoff)
            window.apply(ctdg.events()[cursor++]);
        window.roll();
    }
    return window.graph();
}

TEST(Ctdg, DiscretizeMatchesWideWindow)
{
    EventStreamConfig config;
    config.numVertices = 64;
    config.initialEdges = 160;
    config.numEvents = 400;
    config.seed = 5;
    const auto ctdg = generateEventStream(config);
    for (SnapshotId snapshots : {1, 2, 5, 17}) {
        const auto actual = ctdg.discretize(snapshots, 8);
        const auto expected = wideWindowDiscretize(ctdg, snapshots, 8);
        ASSERT_EQ(actual.numSnapshots(), expected.numSnapshots());
        EXPECT_EQ(actual.name(), expected.name());
        EXPECT_EQ(actual.featureDim(), expected.featureDim());
        for (SnapshotId t = 0; t < snapshots; ++t)
            EXPECT_EQ(actual.snapshot(t).edgeList(),
                      expected.snapshot(t).edgeList())
                << snapshots << " snapshots, snapshot " << t;
        for (SnapshotId t = 1; t < snapshots; ++t) {
            EXPECT_EQ(actual.delta(t).addedEdges(),
                      expected.delta(t).addedEdges())
                << snapshots << " snapshots, delta " << t;
            EXPECT_EQ(actual.delta(t).removedEdges(),
                      expected.delta(t).removedEdges())
                << snapshots << " snapshots, delta " << t;
        }
        EXPECT_EQ(actual.structureHashValue(),
                  expected.structureHashValue())
            << snapshots << " snapshots";
    }
}

} // namespace
} // namespace ditile::graph
