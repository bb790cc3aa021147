/**
 * @file
 * Tests for the serving tier: protocol parsing (typed errors, no
 * aborts), snapshot windows, bounded-queue admission control, tenant
 * LRU eviction, load-generator reproducibility, and the end-of-run
 * summary invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bounded_queue.hh"
#include "common/clock.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/shutdown.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "graph/window.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace ditile {
namespace {

sim::AcceleratorFactory
makeFactory()
{
    return [] {
        return std::unique_ptr<sim::Accelerator>(
            std::make_unique<core::DiTileAccelerator>());
    };
}

/** Tiny tenants so inference-backed tests stay fast. */
std::string
tinyTenantLine(const std::string &name)
{
    return "tenant " + name +
        " vertices=48 edges=96 features=4 window=1 roll-every=0";
}

/** A query response's modeled costs, without the plan= prediction. */
std::string
costsOf(const std::string &response)
{
    return response.substr(0, response.find(" plan="));
}

/** Metrics registry on for one test, dropped again on exit. */
struct ScopedMetrics
{
    ScopedMetrics()
    {
        Tracer::global().reset();
        Tracer::global().enable(false, true);
    }
    ~ScopedMetrics() { Tracer::global().reset(); }
};

/** Current value of one metric (0 when never bumped). */
long long
metricValue(const std::string &path)
{
    for (const auto &[name, value] : Tracer::global().metrics())
        if (name == path)
            return value;
    return 0;
}

// --- protocol -------------------------------------------------------

TEST(ServeProtocol, ParsesEveryVerb)
{
    auto req = serve::parseRequest(
        "tenant web vertices=64 edges=128 seed=3 window=2 "
        "features=8 roll-every=16");
    EXPECT_EQ(req.kind, serve::Request::Kind::CreateTenant);
    EXPECT_EQ(req.tenant, "web");
    EXPECT_EQ(req.spec.vertices, 64);
    EXPECT_EQ(req.spec.edges, 128);
    EXPECT_EQ(req.spec.seed, 3u);
    EXPECT_EQ(req.spec.window, 2);
    EXPECT_EQ(req.spec.features, 8);
    EXPECT_EQ(req.spec.rollEvery, 16u);

    req = serve::parseRequest("event web add 3 9");
    EXPECT_EQ(req.kind, serve::Request::Kind::Event);
    EXPECT_EQ(req.event.kind, graph::GraphEvent::Kind::AddEdge);
    EXPECT_EQ(req.event.u, 3);
    EXPECT_EQ(req.event.v, 9);

    req = serve::parseRequest("event web del 9 3");
    EXPECT_EQ(req.event.kind, graph::GraphEvent::Kind::RemoveEdge);

    EXPECT_EQ(serve::parseRequest("roll web").kind,
              serve::Request::Kind::Roll);
    EXPECT_EQ(serve::parseRequest("query web").kind,
              serve::Request::Kind::Query);
    EXPECT_EQ(serve::parseRequest("stats").kind,
              serve::Request::Kind::Stats);
    EXPECT_EQ(serve::parseRequest("quit").kind,
              serve::Request::Kind::Quit);
}

TEST(ServeProtocol, BlankAndCommentLinesAreNops)
{
    EXPECT_EQ(serve::parseRequest("").kind,
              serve::Request::Kind::Nop);
    EXPECT_EQ(serve::parseRequest("   \t").kind,
              serve::Request::Kind::Nop);
    EXPECT_EQ(serve::parseRequest("# a comment").kind,
              serve::Request::Kind::Nop);
    // Every byte the tokenizer splits on is blank, so no line reaches
    // the parser without a verb.
    for (const char *blank : {"\n", "\v", "\f", " \v\f\r\n"}) {
        EXPECT_TRUE(serve::isNopLine(blank));
        EXPECT_EQ(serve::parseRequest(blank).kind,
                  serve::Request::Kind::Nop);
    }
}

TEST(ServeProtocol, MalformedInputThrowsTypedInputError)
{
    // Every failure mode must surface as the recoverable InputError,
    // never an abort or an untyped exception.
    const char *bad[] = {
        "frobnicate",
        "tenant",
        "tenant web vertices=nope",
        "tenant web vertices=-4",
        "tenant web bogus=1",
        "tenant web vertices",
        "tenant web =3",
        "event web add 1",
        "event web sideways 1 2",
        "event web add x y",
        "roll",
        "query",
        "query a b",
        "stats now",
        "quit now",
    };
    for (const char *line : bad)
        EXPECT_THROW(serve::parseRequest(line), InputError) << line;
}

TEST(ServeProtocol, TenantOptionBoundsEnforced)
{
    EXPECT_THROW(serve::parseRequest("tenant w vertices=1"),
                 InputError);
    EXPECT_THROW(serve::parseRequest("tenant w window=0"),
                 InputError);
    EXPECT_THROW(serve::parseRequest("tenant w features=0"),
                 InputError);
}

TEST(ServeProtocol, OversizedLinesAreRejectedBeforeTokenizing)
{
    // Just under the cap: a parse error about the verb, not length.
    std::string line(serve::kMaxLineBytes, 'x');
    EXPECT_THROW(serve::parseRequest(line), InputError);
    line.push_back('x');
    try {
        serve::parseRequest(line);
        FAIL() << "oversized line parsed";
    } catch (const InputError &e) {
        EXPECT_NE(std::string(e.what()).find("exceeds"),
                  std::string::npos);
    }
    // A server turns it into a typed response and keeps serving.
    serve::Server server({}, makeFactory());
    EXPECT_EQ(server.handle(line).substr(0, 10), "err parse:");
    EXPECT_EQ(server.handle("stats").substr(0, 8), "ok stats");
}

TEST(ServeProtocol, FuzzCorpusNeverAbortsTheServer)
{
    // A grab-bag of hostile input: every line must come back as a
    // typed response (or a nop) with the server still serving.
    const char *corpus[] = {
        "",
        " ",
        "\t",
        "# comment",
        "####",
        "tenant \xff\xfe vertices=64",
        "tenant a vertices=99999999999999999999",
        "tenant a vertices=64 edges=18446744073709551616",
        "event a add -1 -2",
        "event a add 1e9 2",
        "query a extra tokens here",
        "fault",
        "fault not-a-spec",
        "fault dram@",
        "fault tile@0:",
        "quit quit",
        "QUERY a",
        "query\ta",
        "=",
        "== == ==",
        "event a add 0x10 3",
        "tenant a vertices=64 vertices=64",
        "roll roll roll",
        "\x01\x02\x03",
    };
    serve::Server server({}, makeFactory());
    for (const char *line : corpus) {
        const auto response = server.handle(line);
        const bool ok = response.empty() ||
            response.rfind("ok ", 0) == 0 ||
            response.rfind("err ", 0) == 0;
        EXPECT_TRUE(ok) << "line: " << line
                        << " response: " << response;
    }
    EXPECT_EQ(server.handle("stats").substr(0, 8), "ok stats");
    EXPECT_FALSE(server.stopped());
}

TEST(ServeProtocol, FaultVerbParsesAndCanonicalizes)
{
    auto req = serve::parseRequest("fault dram@0:ch0 tile@0:r0c0");
    EXPECT_EQ(req.kind, serve::Request::Kind::Fault);
    // Space-separated items join with ';' in canonical spec text.
    EXPECT_FALSE(req.faultSpec.empty());
    EXPECT_NE(req.faultSpec.find(';'), std::string::npos);

    req = serve::parseRequest("fault clear");
    EXPECT_EQ(req.kind, serve::Request::Kind::Fault);
    EXPECT_TRUE(req.faultSpec.empty());

    EXPECT_THROW(serve::parseRequest("fault"), InputError);
    EXPECT_THROW(serve::parseRequest("fault bogus@spec"), InputError);
}

TEST(ServeProtocol, RenderRequestRoundTripsEveryKind)
{
    const char *lines[] = {
        "tenant web vertices=64 edges=128 seed=3 window=2 features=8 "
        "roll-every=16",
        "event web add 3 9",
        "event web del 9 3",
        "roll web",
        "query web",
        "fault dram@0:ch0",
        "fault clear",
        "stats",
        "quit",
    };
    for (const char *line : lines) {
        const auto request = serve::parseRequest(line);
        const auto rendered = serve::renderRequest(request);
        // Render -> parse -> render is a fixed point (the canonical
        // line), even where the input wasn't canonical.
        EXPECT_EQ(serve::renderRequest(serve::parseRequest(rendered)),
                  rendered)
            << line;
        EXPECT_FALSE(serve::isNopLine(rendered)) << line;
    }
    serve::Request malformed;
    malformed.kind = serve::Request::Kind::Malformed;
    malformed.raw = "!!! ###";
    EXPECT_EQ(serve::renderRequest(malformed), "!!! ###");
    EXPECT_EQ(serve::renderRequest(serve::Request{}), "");
}

// --- snapshot windows ----------------------------------------------

TEST(SnapshotWindow, AppliesEventsAndCountsNoops)
{
    const auto initial = graph::Csr::fromEdges(6, {{0, 1}, {1, 2}});
    graph::SnapshotWindow window("w", initial, 2, 4);
    EXPECT_EQ(window.liveEdges(), 2);

    window.apply({graph::GraphEvent::Kind::AddEdge, 2, 3, 0});
    EXPECT_EQ(window.liveEdges(), 3);
    EXPECT_EQ(window.appliedEvents(), 1u);

    // Duplicate add, missing remove, and self loop are all no-ops.
    window.apply({graph::GraphEvent::Kind::AddEdge, 1, 0, 0});
    window.apply({graph::GraphEvent::Kind::RemoveEdge, 4, 5, 0});
    window.apply({graph::GraphEvent::Kind::AddEdge, 3, 3, 0});
    EXPECT_EQ(window.liveEdges(), 3);
    EXPECT_EQ(window.noopEvents(), 3u);

    window.apply({graph::GraphEvent::Kind::RemoveEdge, 0, 1, 0});
    EXPECT_EQ(window.liveEdges(), 2);
}

TEST(SnapshotWindow, OutOfUniverseEndpointThrows)
{
    const auto initial = graph::Csr::fromEdges(4, {{0, 1}});
    graph::SnapshotWindow window("w", initial, 1, 4);
    EXPECT_THROW(
        window.apply({graph::GraphEvent::Kind::AddEdge, 0, 4, 0}),
        InputError);
    EXPECT_THROW(
        window.apply({graph::GraphEvent::Kind::AddEdge, 9, 1, 0}),
        InputError);
    // The failed event must not perturb the window.
    EXPECT_EQ(window.liveEdges(), 1);
    EXPECT_EQ(window.appliedEvents(), 0u);
}

TEST(SnapshotWindow, RollBoundsTheRing)
{
    const auto initial = graph::Csr::fromEdges(6, {{0, 1}});
    graph::SnapshotWindow window("w", initial, 2, 4);
    EXPECT_EQ(window.windowSize(), 1);

    window.apply({graph::GraphEvent::Kind::AddEdge, 1, 2, 0});
    window.roll();
    EXPECT_EQ(window.windowSize(), 2);
    window.apply({graph::GraphEvent::Kind::AddEdge, 2, 3, 0});
    window.roll();
    EXPECT_EQ(window.windowSize(), 2) << "capacity must cap the ring";
    EXPECT_EQ(window.rolls(), 2u);
    EXPECT_EQ(window.eventsSinceRoll(), 0u);

    // Newest snapshot reflects the live set; the window graph spans
    // the retained ring.
    const auto &dg = window.graph();
    EXPECT_EQ(dg.numSnapshots(), 2);
    EXPECT_EQ(dg.snapshot(1).numEdges(), 3);
}

TEST(SnapshotWindow, GraphIsCachedBetweenRolls)
{
    const auto initial = graph::Csr::fromEdges(6, {{0, 1}});
    graph::SnapshotWindow window("w", initial, 2, 4);
    const auto *first = &window.graph();
    EXPECT_EQ(first, &window.graph())
        << "repeat queries between rolls must reuse the cached graph";
    window.roll();
    // Rolling invalidates; the rebuilt graph differs in content.
    EXPECT_EQ(window.graph().numSnapshots(), 2);
}

/** Field-by-field equality of two window graphs. */
void
expectSameWindow(const graph::DynamicGraph &actual,
                 const graph::DynamicGraph &expected, int roll)
{
    ASSERT_EQ(actual.numSnapshots(), expected.numSnapshots()) << roll;
    EXPECT_EQ(actual.name(), expected.name()) << roll;
    EXPECT_EQ(actual.featureDim(), expected.featureDim()) << roll;
    for (SnapshotId t = 0; t < expected.numSnapshots(); ++t) {
        EXPECT_EQ(actual.snapshot(t).rowPtr(),
                  expected.snapshot(t).rowPtr())
            << "roll " << roll << " snapshot " << t;
        EXPECT_EQ(actual.snapshot(t).adjacency(),
                  expected.snapshot(t).adjacency())
            << "roll " << roll << " snapshot " << t;
    }
    for (SnapshotId t = 1; t < expected.numSnapshots(); ++t) {
        EXPECT_EQ(actual.delta(t).addedEdges(),
                  expected.delta(t).addedEdges())
            << "roll " << roll << " delta " << t;
        EXPECT_EQ(actual.delta(t).removedEdges(),
                  expected.delta(t).removedEdges())
            << "roll " << roll << " delta " << t;
        EXPECT_EQ(actual.delta(t).affectedVertices(),
                  expected.delta(t).affectedVertices())
            << "roll " << roll << " delta " << t;
    }
    EXPECT_EQ(graph::structureHash(actual),
              graph::structureHash(expected))
        << roll;
}

/** The window rebuilt the way a checkpoint restore rebuilds it. */
graph::SnapshotWindow
restoredWindow(const graph::SnapshotWindow &window)
{
    const graph::DynamicGraph &dg = window.graph();
    std::vector<graph::GraphDelta> deltas;
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t)
        deltas.push_back(dg.delta(t));
    graph::SnapshotWindow::Counters counters;
    counters.appliedEvents = window.appliedEvents();
    counters.noopEvents = window.noopEvents();
    counters.rolls = window.rolls();
    counters.sinceRoll = window.eventsSinceRoll();
    return graph::SnapshotWindow::restore(
        window.name(), window.capacity(), window.featureDim(),
        graph::Csr::fromEdges(dg.numVertices(), dg.snapshot(0).edgeList()),
        std::move(deltas), window.pendingDelta(), counters);
}

TEST(SnapshotWindow, RolledGraphEqualsRebuiltWindow)
{
    // A 12-vertex universe makes duplicate adds, missing removes and
    // self loops common; some rolls apply no event at all.
    constexpr VertexId kVertices = 12;
    constexpr SnapshotId kCapacity = 4;
    const auto initial =
        graph::Csr::fromEdges(kVertices, {{0, 1}, {1, 2}, {3, 4}});
    graph::SnapshotWindow window("w", initial, kCapacity, 4);
    std::set<graph::Edge> live = {{0, 1}, {1, 2}, {3, 4}};
    std::deque<graph::Csr> ring = {initial};
    Rng rng(0x5eed);

    for (int roll = 1; roll <= 24; ++roll) {
        const auto events = rng.uniformInt(0, 6);
        for (std::int64_t i = 0; i < events; ++i) {
            const auto u =
                static_cast<VertexId>(rng.uniformInt(0, kVertices - 1));
            const auto v =
                static_cast<VertexId>(rng.uniformInt(0, kVertices - 1));
            const graph::Edge edge{std::min(u, v), std::max(u, v)};
            if (rng.bernoulli(0.4)) {
                window.apply({graph::GraphEvent::Kind::RemoveEdge, u, v,
                              0});
                live.erase(edge);
            } else {
                window.apply({graph::GraphEvent::Kind::AddEdge, u, v, 0});
                if (u != v)
                    live.insert(edge);
            }
        }
        window.roll();
        ring.push_back(graph::Csr::fromEdges(
            kVertices, std::vector<graph::Edge>(live.begin(), live.end())));
        if (static_cast<SnapshotId>(ring.size()) > kCapacity)
            ring.pop_front();
        const graph::DynamicGraph expected(
            "w", std::vector<graph::Csr>(ring.begin(), ring.end()), 4);
        expectSameWindow(window.graph(), expected, roll);

        if (roll % 5 == 0) {
            // Checkpoint -> restore, then both windows roll on alike.
            graph::SnapshotWindow restored = restoredWindow(window);
            expectSameWindow(restored.graph(), expected, roll);
            EXPECT_EQ(restored.pendingDelta().addedEdges(),
                      window.pendingDelta().addedEdges());
            EXPECT_EQ(restored.pendingDelta().removedEdges(),
                      window.pendingDelta().removedEdges());
            EXPECT_EQ(restored.liveEdges(), window.liveEdges());
            const graph::GraphEvent add{graph::GraphEvent::Kind::AddEdge,
                                        5, 11, 0};
            graph::SnapshotWindow original = window;
            original.apply(add);
            original.roll();
            restored.apply(add);
            restored.roll();
            expectSameWindow(restored.graph(), original.graph(), roll);
            EXPECT_EQ(restored.rolls(), original.rolls());
            EXPECT_EQ(restored.appliedEvents(), original.appliedEvents());
            EXPECT_EQ(restored.noopEvents(), original.noopEvents());
        }
    }
    EXPECT_GT(window.noopEvents(), 0u);
    EXPECT_EQ(window.windowSize(), kCapacity);
}

/** Restoring a window from its own checkpoint pieces changes nothing. */
void
expectRestoresItself(const graph::SnapshotWindow &window, int step)
{
    const graph::SnapshotWindow restored = restoredWindow(window);
    EXPECT_EQ(restored.graph().structureHashValue(),
              window.graph().structureHashValue())
        << step;
    EXPECT_EQ(restored.pendingDelta().addedEdges(),
              window.pendingDelta().addedEdges())
        << step;
    EXPECT_EQ(restored.pendingDelta().removedEdges(),
              window.pendingDelta().removedEdges())
        << step;
    EXPECT_EQ(restored.liveEdges(), window.liveEdges()) << step;
    EXPECT_EQ(restored.appliedEvents(), window.appliedEvents()) << step;
    EXPECT_EQ(restored.noopEvents(), window.noopEvents()) << step;
    EXPECT_EQ(restored.rolls(), window.rolls()) << step;
    EXPECT_EQ(restored.eventsSinceRoll(), window.eventsSinceRoll())
        << step;
}

TEST(SnapshotWindow, MatchesEdgeSetOracle)
{
    // Random streams on a small universe, checked against a plain
    // edge set after every event and every roll. Events favour the
    // edge touched last, so remove-after-add and add-after-remove
    // between two rolls (pending changes that cancel) are common.
    constexpr VertexId kVertices = 24;
    for (SnapshotId capacity = 1; capacity <= 3; ++capacity) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE("capacity " + std::to_string(capacity) +
                         " seed " + std::to_string(seed));
            Rng rng(seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(
                                               capacity));
            auto vertex = [&] {
                return static_cast<VertexId>(
                    rng.uniformInt(0, kVertices - 1));
            };
            std::vector<graph::Edge> seed_edges;
            for (int i = 0; i < 40; ++i)
                seed_edges.emplace_back(vertex(), vertex());
            const auto initial =
                graph::Csr::fromEdges(kVertices, seed_edges);
            const std::vector<graph::Edge> initial_edges =
                initial.edgeList();
            std::set<graph::Edge> model(initial_edges.begin(),
                                        initial_edges.end());
            graph::SnapshotWindow window("w", initial, capacity, 4);
            std::uint64_t applied = 0;
            std::uint64_t noops = 0;
            VertexId last_u = 0;
            VertexId last_v = 1;

            for (int step = 0; step < 600; ++step) {
                VertexId u = last_u;
                VertexId v = last_v;
                if (rng.bernoulli(0.05)) {
                    v = u; // self loop.
                } else if (!rng.bernoulli(0.4)) {
                    u = vertex();
                    v = vertex();
                }
                const bool add = rng.bernoulli(0.55);
                const graph::Edge edge{std::min(u, v), std::max(u, v)};
                const bool changes =
                    u != v && (add ? !model.count(edge)
                                   : model.count(edge) != 0);
                window.apply({add ? graph::GraphEvent::Kind::AddEdge
                                  : graph::GraphEvent::Kind::RemoveEdge,
                              u, v, 0});
                if (changes) {
                    ++applied;
                    if (add)
                        model.insert(edge);
                    else
                        model.erase(edge);
                } else {
                    ++noops;
                }
                last_u = u;
                last_v = v;
                ASSERT_EQ(window.liveEdges(),
                          static_cast<EdgeId>(model.size()))
                    << step;
                ASSERT_EQ(window.appliedEvents(), applied) << step;
                ASSERT_EQ(window.noopEvents(), noops) << step;

                if (!rng.bernoulli(0.06))
                    continue;
                // Restore with changes pending; now and then carry on
                // from the restored copy, so later events (cancels
                // included) also run against restored state.
                expectRestoresItself(window, step);
                if (rng.bernoulli(0.5))
                    window = restoredWindow(window);
                window.roll();
                const graph::DynamicGraph &dg = window.graph();
                EXPECT_EQ(dg.numSnapshots(),
                          std::min<SnapshotId>(
                              static_cast<SnapshotId>(window.rolls()) + 1,
                              capacity));
                EXPECT_EQ(dg.snapshot(dg.numSnapshots() - 1).edgeList(),
                          std::vector<graph::Edge>(model.begin(),
                                                   model.end()))
                    << step;
                for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
                    const auto diff = graph::GraphDelta::diff(
                        dg.snapshot(t - 1), dg.snapshot(t));
                    EXPECT_EQ(dg.delta(t).addedEdges(), diff.addedEdges())
                        << step << " delta " << t;
                    EXPECT_EQ(dg.delta(t).removedEdges(),
                              diff.removedEdges())
                        << step << " delta " << t;
                    EXPECT_EQ(dg.delta(t).affectedVertices(),
                              diff.affectedVertices())
                        << step << " delta " << t;
                }
                expectRestoresItself(window, step);
            }
            EXPECT_GT(window.rolls(), 10u);
            EXPECT_GT(noops, 0u);
        }
    }
}

// --- common primitives ----------------------------------------------

TEST(BoundedQueueTest, RejectsWhenFullAndPreservesFifo)
{
    BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_FALSE(queue.tryPush(3)) << "over-capacity push must fail";
    EXPECT_EQ(queue.size(), 2u);
    int out = 0;
    EXPECT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(queue.tryPush(3));
    EXPECT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, 3);
    EXPECT_FALSE(queue.tryPop(out));
}

TEST(VirtualClockTest, AdvancesMonotonically)
{
    VirtualClock clock;
    EXPECT_EQ(clock.nowMicros(), 0u);
    clock.advance(5);
    clock.advanceTo(3); // Never moves backwards.
    EXPECT_EQ(clock.nowMicros(), 5u);
    clock.advanceTo(9);
    EXPECT_EQ(clock.nowMicros(), 9u);
}

TEST(ShutdownFlag, RequestAndResetRoundTrip)
{
    resetShutdownForTest();
    EXPECT_FALSE(shutdownRequested());
    requestShutdown();
    EXPECT_TRUE(shutdownRequested());
    resetShutdownForTest();
    EXPECT_FALSE(shutdownRequested());
}

// --- server ---------------------------------------------------------

TEST(ServeServer, HandleAnswersProtocolErrorsWithoutAborting)
{
    serve::Server server({}, makeFactory());
    EXPECT_EQ(server.handle("# comment"), "");
    EXPECT_EQ(server.handle("frobnicate").substr(0, 10), "err parse:");
    EXPECT_EQ(server.handle("query ghost").substr(0, 19),
              "err unknown-tenant:");
    EXPECT_EQ(server.handle("roll ghost").substr(0, 19),
              "err unknown-tenant:");
    const auto created = server.handle(tinyTenantLine("a"));
    EXPECT_EQ(created.substr(0, 11), "ok tenant a");
    EXPECT_EQ(server.handle(tinyTenantLine("a")).substr(0, 18),
              "err tenant-exists:");
    EXPECT_EQ(server.handle("event a add 999 1").substr(0, 14),
              "err bad-event:");
    EXPECT_FALSE(server.stopped());
    EXPECT_EQ(server.handle("quit"), "ok quit");
    EXPECT_TRUE(server.stopped());
    EXPECT_GE(server.summary().errors, 5u);
}

TEST(ServeServer, QueryIsDeterministicAndHitsPlanCacheOnRepeat)
{
    ScopedMetrics metrics;
    serve::Server server({}, makeFactory());
    server.handle(tinyTenantLine("a"));
    const auto first = server.handle("query a");
    EXPECT_EQ(metricValue("engine.runs"), 1);
    const auto second = server.handle("query a");
    const auto third = server.handle("query a");
    EXPECT_NE(first.find("plan=miss"), std::string::npos) << first;
    EXPECT_NE(second.find("plan=hit"), std::string::npos) << second;
    // Identical modeled costs, only the plan= field differs.
    EXPECT_EQ(costsOf(first), costsOf(second));
    EXPECT_EQ(second, third);
    // A quiet tenant's repeats are outcome-memo hits: the engine ran
    // once for all three queries.
    EXPECT_EQ(metricValue("engine.runs"), 1);
    EXPECT_EQ(metricValue("cache.result.misses"), 1);
    EXPECT_EQ(metricValue("cache.result.hits"), 2);
}

TEST(ServeMemo, FaultVerbBetweenQueriesForcesReexecution)
{
    const std::string fault = "fault tile@0:r0c*";
    ScopedMetrics metrics;
    serve::Server server({}, makeFactory());
    server.handle(tinyTenantLine("a"));
    const auto clean = server.handle("query a");
    ASSERT_EQ(server.handle(fault), "ok fault events=1");
    const long long runs = metricValue("engine.runs");
    const auto faulted = server.handle("query a");
    EXPECT_EQ(metricValue("engine.runs"), runs + 1)
        << "a new fault spec must not reuse the clean outcome";
    EXPECT_NE(costsOf(faulted), costsOf(clean));
    // Same structure, same spec: answered from the memo.
    EXPECT_EQ(server.handle("query a"), faulted);
    // Clearing returns to the clean entry, still without a run.
    EXPECT_EQ(server.handle("fault clear"), "ok fault cleared");
    EXPECT_EQ(costsOf(server.handle("query a")), costsOf(clean));
    EXPECT_EQ(metricValue("engine.runs"), runs + 1);
    EXPECT_EQ(server.runner().memoizedKeys(), 1u);

    serve::Server fresh({}, makeFactory());
    fresh.handle(tinyTenantLine("a"));
    fresh.handle(fault);
    EXPECT_EQ(costsOf(fresh.handle("query a")), costsOf(faulted));
}

TEST(ServeServer, LruTenantEvictionIsDeterministic)
{
    serve::ServerOptions options;
    options.maxTenants = 2;
    serve::Server server(options, makeFactory());
    server.handle(tinyTenantLine("a"));
    server.handle(tinyTenantLine("b"));
    // Touch a so b becomes the LRU victim.
    server.handle("event a add 0 1");
    const auto created = server.handle(tinyTenantLine("c"));
    EXPECT_EQ(created.substr(0, 11), "ok tenant c");
    EXPECT_NE(created.find("evicted=1"), std::string::npos);
    EXPECT_EQ(server.numTenants(), 2u);
    EXPECT_EQ(server.handle("query b").substr(0, 19),
              "err unknown-tenant:");
    EXPECT_EQ(server.summary().evictions, 1u);
}

TEST(ServeServer, ReplayRejectsOnQueueFullWithTypedResponse)
{
    serve::ServerOptions options;
    options.queueCapacity = 1;
    options.batchMax = 1;
    serve::Server server(options, makeFactory());

    std::vector<serve::Request> schedule;
    auto tenant = serve::parseRequest(tinyTenantLine("a"));
    tenant.arrivalUs = 0;
    schedule.push_back(tenant);
    // Five simultaneous queries against a queue of one: the first is
    // admitted, the rest must be rejected with a typed response.
    for (int i = 0; i < 5; ++i) {
        auto query = serve::parseRequest("query a");
        query.id = static_cast<std::uint64_t>(i + 1);
        query.arrivalUs = 1;
        schedule.push_back(query);
    }
    std::vector<std::string> responses;
    server.replay(schedule, &responses);

    const auto summary = server.summary();
    EXPECT_EQ(summary.queries, 5u);
    EXPECT_EQ(summary.completed, 1u);
    EXPECT_EQ(summary.rejected, 4u);
    EXPECT_EQ(responses[1].substr(0, 8), "ok query");
    for (std::size_t i = 2; i < responses.size(); ++i)
        EXPECT_EQ(responses[i].substr(0, 15), "err queue-full:")
            << responses[i];
}

TEST(ServeServer, ReplayStopsEarlyOnShutdownButKeepsSummary)
{
    resetShutdownForTest();
    serve::Server server({}, makeFactory());
    std::vector<serve::Request> schedule;
    auto tenant = serve::parseRequest(tinyTenantLine("a"));
    schedule.push_back(tenant);
    for (int i = 0; i < 3; ++i) {
        auto query = serve::parseRequest("query a");
        query.arrivalUs = static_cast<std::uint64_t>(i + 1);
        schedule.push_back(query);
    }
    requestShutdown();
    server.replay(schedule);
    resetShutdownForTest();
    // Nothing executed, but the server state is intact and usable.
    EXPECT_EQ(server.summary().completed, 0u);
    EXPECT_EQ(server.handle(tinyTenantLine("b")).substr(0, 11),
              "ok tenant b");
}

// --- load generator -------------------------------------------------

TEST(LoadGen, SameSeedReproducesTheSchedule)
{
    serve::LoadGenConfig config;
    config.tenants = 4;
    config.requests = 500;
    config.seed = 77;
    const auto a = serve::LoadGen(config).schedule();
    const auto b = serve::LoadGen(config).schedule();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), config.tenants + config.requests);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
        EXPECT_EQ(a[i].arrivalUs, b[i].arrivalUs) << i;
        EXPECT_EQ(a[i].event.u, b[i].event.u) << i;
        EXPECT_EQ(a[i].event.v, b[i].event.v) << i;
    }
}

TEST(LoadGen, DifferentSeedsDiverge)
{
    serve::LoadGenConfig config;
    config.tenants = 4;
    config.requests = 200;
    config.seed = 1;
    const auto a = serve::LoadGen(config).schedule();
    config.seed = 2;
    const auto b = serve::LoadGen(config).schedule();
    ASSERT_EQ(a.size(), b.size());
    bool diverged = false;
    for (std::size_t i = 0; i < a.size() && !diverged; ++i)
        diverged = a[i].arrivalUs != b[i].arrivalUs ||
            a[i].tenant != b[i].tenant || a[i].kind != b[i].kind;
    EXPECT_TRUE(diverged);
}

TEST(LoadGen, SchedulePropertiesHold)
{
    serve::LoadGenConfig config;
    config.tenants = 3;
    config.requests = 400;
    config.seed = 5;
    const auto schedule = serve::LoadGen(config).schedule();

    // Prologue provisions every tenant at t=0.
    for (std::size_t i = 0; i < config.tenants; ++i) {
        EXPECT_EQ(schedule[i].kind,
                  serve::Request::Kind::CreateTenant);
        EXPECT_EQ(schedule[i].arrivalUs, 0u);
    }
    // Arrivals are strictly increasing and target known tenants.
    std::uint64_t last = 0;
    for (std::size_t i = config.tenants; i < schedule.size(); ++i) {
        EXPECT_GT(schedule[i].arrivalUs, last) << i;
        last = schedule[i].arrivalUs;
        EXPECT_TRUE(schedule[i].tenant == "t0" ||
                    schedule[i].tenant == "t1" ||
                    schedule[i].tenant == "t2")
            << schedule[i].tenant;
        EXPECT_EQ(schedule[i].id, i);
    }
}

TEST(LoadGen, InvalidFractionConfigThrows)
{
    serve::LoadGenConfig config;
    config.eventFraction = 0.9;
    config.rollFraction = 0.2;
    EXPECT_THROW(serve::LoadGen{config}, InputError);
}

// --- replayed end-to-end summary ------------------------------------

TEST(ServeServer, ReplaySummaryAccountsForEveryRequest)
{
    serve::LoadGenConfig config;
    config.tenants = 3;
    config.requests = 120;
    config.vertices = 48;
    config.edges = 96;
    config.features = 4;
    config.window = 1;
    config.seed = 11;
    serve::ServerOptions options;
    options.queueCapacity = 8;
    options.batchMax = 4;
    serve::Server server(options, makeFactory());
    const auto schedule = serve::LoadGen(config).schedule();
    server.replay(schedule);

    const auto summary = server.summary();
    EXPECT_EQ(summary.requests,
              config.tenants + config.requests);
    EXPECT_EQ(summary.queries,
              summary.completed + summary.rejected);
    EXPECT_EQ(summary.tenants, config.tenants);
    EXPECT_GT(summary.completed, 0u);
    EXPECT_GT(summary.planHits, 0u);
    EXPECT_GE(summary.p99Us, summary.p50Us);
    EXPECT_GE(summary.maxUs, summary.p99Us);
    EXPECT_GT(summary.qps, 0.0);
    // The rendered table is part of the CI contract.
    const auto table = summary.toTable();
    EXPECT_NE(table.find("serve summary"), std::string::npos);
    EXPECT_NE(table.find("sustained QPS"), std::string::npos);
}

TEST(Percentile, NearestRankOnSmallSamples)
{
    // Nearest-rank: rank = ceil(N * p / 100), 1-based. A single
    // sample IS every percentile of itself.
    EXPECT_EQ(serve::percentileNearestRank({42}, 50), 42u);
    EXPECT_EQ(serve::percentileNearestRank({42}, 99), 42u);
    EXPECT_EQ(serve::percentileNearestRank({42}, 100), 42u);
    // Two samples: p50 is the first, p99 the second (the old
    // truncating interpolation picked the minimum for p99).
    EXPECT_EQ(serve::percentileNearestRank({10, 20}, 50), 10u);
    EXPECT_EQ(serve::percentileNearestRank({10, 20}, 99), 20u);
}

TEST(Percentile, NearestRankOnHundredAndHundredOne)
{
    std::vector<std::uint64_t> hundred(100);
    for (std::size_t i = 0; i < hundred.size(); ++i)
        hundred[i] = 1000 + i;  // sorted[k] = 1000 + k
    // N=100: rank(p) = p exactly, so p50 -> sorted[49].
    EXPECT_EQ(serve::percentileNearestRank(hundred, 50), 1049u);
    EXPECT_EQ(serve::percentileNearestRank(hundred, 99), 1098u);
    EXPECT_EQ(serve::percentileNearestRank(hundred, 100), 1099u);

    std::vector<std::uint64_t> hundred_one(101);
    for (std::size_t i = 0; i < hundred_one.size(); ++i)
        hundred_one[i] = 2000 + i;
    // N=101: rank = ceil(101 * p / 100) = p + 1 for p in (0, 100).
    EXPECT_EQ(serve::percentileNearestRank(hundred_one, 50), 2050u);
    EXPECT_EQ(serve::percentileNearestRank(hundred_one, 99), 2099u);
    EXPECT_EQ(serve::percentileNearestRank(hundred_one, 100), 2100u);
}

} // namespace
} // namespace ditile
