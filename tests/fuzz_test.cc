/**
 * @file
 * Seeded mutation fuzzing of the six input parsers: protocol lines
 * through Server::handle, checkpoint documents (parseCheckpoint, then
 * restoreState), WAL files (recoverWal, then recover), plan documents
 * (ExecutionPlan::fromJson, then executePlan on the graph the plan was
 * made for), event streams (readEventStream, then discretize) and edge
 * lists (readEdgeList).
 * Every mutant must end in success or a typed
 * InputError; any other exception fails the test, and a crash fails the
 * whole binary. Fixed seeds make every run see the same mutants, so a
 * failure reproduces from the test name alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/ditile_accelerator.hh"
#include "graph/ctdg.hh"
#include "graph/generator.hh"
#include "graph/io.hh"
#include "serve/checkpoint.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/wal.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/scaleout.hh"

namespace ditile {
namespace {

/**
 * Byte-level and number-aware edits of a seed input: overwrite, insert
 * or erase bytes, duplicate a span, or swap a number for a boundary
 * value. One to three edits per mutant.
 */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::string
    mutate(std::string s)
    {
        const auto edits = rng_.uniformInt(1, 3);
        for (std::int64_t i = 0; i < edits; ++i)
            edit(s);
        return s;
    }

  private:
    char
    byte()
    {
        static const std::string kAlphabet =
            "0123456789-+.eE\"{}[],: \t\n#=xaz\\";
        if (rng_.bernoulli(0.1))
            return static_cast<char>(rng_.uniformInt(0, 255));
        return kAlphabet[static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
    }

    std::size_t
    at(const std::string &s)
    {
        return static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(s.size())));
    }

    void
    edit(std::string &s)
    {
        static const char *kNumbers[] = {
            "0",          "-1",         "1",
            "2",          "3",          "255",
            "65536",      "-2147483649", "2147483648",
            "4294967296", "9223372036854775807",
            "18446744073709551616", "1e308", "0.5", "-0"};
        const std::size_t pos = at(s);
        switch (rng_.uniformInt(0, 4)) {
        case 0:
            if (pos < s.size())
                s[pos] = byte();
            break;
        case 1:
            s.insert(pos, 1, byte());
            break;
        case 2:
            s.erase(pos, static_cast<std::size_t>(rng_.uniformInt(1, 8)));
            break;
        case 3: {
            const std::size_t len =
                static_cast<std::size_t>(rng_.uniformInt(1, 16));
            s.insert(at(s), s.substr(pos, len));
            break;
        }
        default: {
            // The first number at or after pos becomes a boundary value.
            const std::size_t begin = s.find_first_of("0123456789", pos);
            if (begin == std::string::npos)
                break;
            const std::size_t end =
                s.find_first_not_of("0123456789", begin);
            s.replace(begin,
                      (end == std::string::npos ? s.size() : end) - begin,
                      kNumbers[rng_.uniformInt(
                          0, static_cast<std::int64_t>(
                                 std::size(kNumbers)) - 1)]);
            break;
        }
        }
    }

    Rng rng_;
};

sim::AcceleratorFactory
makeFactory()
{
    return [] {
        return std::unique_ptr<sim::Accelerator>(
            std::make_unique<core::DiTileAccelerator>());
    };
}

/** Small server options so mutated tenants stay cheap to serve. */
serve::ServerOptions
fuzzOptions()
{
    serve::ServerOptions options;
    options.maxTenants = 4;
    options.planCacheCapacity = 8;
    return options;
}

/** Non-nop lines of a protocol script. */
std::vector<std::string>
scriptLines(const std::string &script)
{
    std::vector<std::string> lines;
    std::string line;
    for (char c : script) {
        if (c != '\n') {
            line += c;
            continue;
        }
        if (!serve::isNopLine(line))
            lines.push_back(line);
        line.clear();
    }
    return lines;
}

/** The seed corpus: a chaos loadgen session over tiny tenants. */
std::vector<std::string>
seedLines()
{
    serve::LoadGenConfig config;
    config.tenants = 2;
    config.requests = 40;
    config.vertices = 32;
    config.edges = 64;
    config.features = 4;
    config.window = 2;
    config.chaos = true;
    config.chaosFault = 0.05;
    return scriptLines(serve::LoadGen::renderLines(
        serve::LoadGen(config).schedule()));
}

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** A handled line answers ok/err (or nothing, for a nop). */
void
expectTypedResponse(const std::string &line, const std::string &response)
{
    EXPECT_TRUE(response.empty() || response.rfind("ok ", 0) == 0 ||
                response.rfind("err ", 0) == 0)
        << "line: " << line << "\nresponse: " << response;
}

/** Queries and control verbs against a (restored) server's tenants. */
void
probe(serve::Server &server, const serve::ServerCheckpoint &checkpoint)
{
    for (const serve::TenantCheckpoint &tenant : checkpoint.tenants) {
        for (const std::string verb : {"query ", "roll ", "query "}) {
            const std::string line = verb + tenant.spec.name;
            expectTypedResponse(line, server.handle(line));
        }
        const std::string event = "event " + tenant.spec.name + " add 1 2";
        expectTypedResponse(event, server.handle(event));
    }
    expectTypedResponse("stats", server.handle("stats"));
}

TEST(Fuzz, ProtocolLinesThroughHandle)
{
    const auto seeds = seedLines();
    ASSERT_GT(seeds.size(), 40u);
    Mutator mutator(0x5eed0001);
    serve::Server server(fuzzOptions(), makeFactory());
    for (int i = 0; i < 3000; ++i) {
        // Every seed line first, so mutants meet live tenants.
        const std::string &seed = seeds[static_cast<std::size_t>(i) %
                                        seeds.size()];
        const std::string line = i < static_cast<int>(seeds.size())
            ? seed : mutator.mutate(seed);
        expectTypedResponse(line, server.handle(line));
    }
}

/**
 * A checkpoint with its crc recomputed over the (mutated) state, so
 * mutants reach restoreState instead of stopping at the crc check.
 * The state is the last member; "crc" precedes it.
 */
std::string
withFreshCrc(const std::string &doc)
{
    const std::string key = "\"state\":";
    const auto state = doc.find(key);
    const auto crc = doc.find("\"crc\":\"");
    if (state == std::string::npos || crc == std::string::npos ||
        doc.size() < state + key.size() + 1 || crc + 23 > doc.size())
        return doc;
    const std::string payload =
        doc.substr(state + key.size(), doc.size() - state - key.size() - 1);
    std::string out = doc;
    out.replace(crc + 7, 16, hex64(fnv1a(payload)));
    return out;
}

/** True when parseCheckpoint or restoreState rejects `doc` (typed). */
bool
rejectedCheckpoint(const std::string &doc)
{
    try {
        const serve::ServerCheckpoint checkpoint =
            serve::parseCheckpoint(doc);
        serve::Server server(fuzzOptions(), makeFactory());
        server.restoreState(checkpoint);
    } catch (const InputError &) {
        return true;
    }
    return false;
}

/**
 * A checkpoint whose one tenant has two deltas and a pending delta,
 * each with an added and a removed edge.
 */
serve::ServerCheckpoint
deltaSeed()
{
    serve::Server server(fuzzOptions(), makeFactory());
    server.handle("tenant d vertices=32 edges=64 features=4 window=3 "
                  "roll-every=0");
    const std::vector<graph::Edge> initial =
        server.checkpointState().tenants[0].oldest;
    auto edgeText = [](VertexId u, VertexId v) {
        return std::to_string(u) + " " + std::to_string(v);
    };
    VertexId fresh = 1;
    for (int step = 0; step < 3; ++step) {
        server.handle("event d del " + edgeText(initial[step].first,
                                                initial[step].second));
        while (std::binary_search(initial.begin(), initial.end(),
                                  graph::Edge{0, fresh}))
            ++fresh;
        server.handle("event d add " + edgeText(0, fresh++));
        if (step < 2)
            server.handle("roll d");
    }
    return server.checkpointState();
}

/**
 * Delta-shaped hostile checkpoints, each with a valid crc: every one
 * must be a typed error of parse or restore.
 */
std::vector<std::pair<std::string, std::string>>
deltaMutants(const serve::ServerCheckpoint &seed)
{
    const serve::TenantCheckpoint &tenant = seed.tenants[0];
    const VertexId n = tenant.spec.vertices;
    graph::Csr newest = graph::Csr::fromEdges(n, tenant.oldest);
    for (const graph::GraphDelta &delta : tenant.deltas)
        newest = graph::Csr::patched(newest, delta.addedEdges(),
                                     delta.removedEdges());
    // Canonical edges absent from / present in a snapshot.
    auto absent = [n](const graph::Csr &g) {
        for (VertexId u = 0; u < n; ++u)
            for (VertexId v = u + 1; v < n; ++v)
                if (!g.hasEdge(u, v))
                    return graph::Edge{u, v};
        return graph::Edge{0, 0};
    };
    const graph::Csr oldest = graph::Csr::fromEdges(n, tenant.oldest);

    std::vector<std::pair<std::string, std::string>> out;
    // `edit` changes one list of the first delta (or of the pending
    // delta) of a copy of the seed.
    auto mutant = [&](const std::string &what, bool pending, auto edit) {
        serve::ServerCheckpoint m = seed;
        graph::GraphDelta &delta = pending ? m.tenants[0].pending
                                           : m.tenants[0].deltas[0];
        std::vector<graph::Edge> added = delta.addedEdges();
        std::vector<graph::Edge> removed = delta.removedEdges();
        edit(added, removed);
        delta = graph::GraphDelta::fromChanges(added, removed);
        out.emplace_back(what, serve::renderCheckpoint(m));
    };
    using Edges = std::vector<graph::Edge>;
    mutant("removed edge missing from the previous snapshot", false,
           [&](Edges &, Edges &r) { r.push_back(absent(oldest)); });
    mutant("added edge already present", false,
           [&](Edges &a, Edges &) { a.push_back(tenant.oldest.back()); });
    mutant("pending removes an edge missing from the newest", true,
           [&](Edges &, Edges &r) { r.push_back(absent(newest)); });
    mutant("pending adds an edge already in the newest", true,
           [&](Edges &a, Edges &) {
               a.push_back(newest.edgeList().back());
           });
    mutant("duplicate added entry", false,
           [](Edges &a, Edges &) { a.push_back(a.front()); });
    mutant("duplicate removed entry", true,
           [](Edges &, Edges &r) { r.push_back(r.front()); });
    mutant("reversed (non-canonical) edge", false, [](Edges &a, Edges &) {
        a.front() = {a.front().second, a.front().first};
    });
    mutant("self loop", true,
           [](Edges &a, Edges &) { a.push_back({3, 3}); });
    mutant("out-of-range id", false,
           [n](Edges &a, Edges &) { a.push_back({0, n}); });
    mutant("negative id", true,
           [](Edges &a, Edges &) { a.push_back({-1, 2}); });

    serve::ServerCheckpoint fewer = seed;
    fewer.tenants[0].deltas.pop_back();
    out.emplace_back("one delta too few", serve::renderCheckpoint(fewer));
    serve::ServerCheckpoint more = seed;
    more.tenants[0].deltas.emplace_back();
    out.emplace_back("one delta too many", serve::renderCheckpoint(more));
    serve::ServerCheckpoint rolls = seed;
    rolls.tenants[0].window.rolls = 0;
    out.emplace_back("rolls disagree with the delta count",
                     serve::renderCheckpoint(rolls));

    return out;
}

TEST(Fuzz, CheckpointParseAndRestore)
{
    serve::Server source(fuzzOptions(), makeFactory());
    for (const auto &line : seedLines())
        source.handle(line);
    const std::string seed =
        serve::renderCheckpoint(source.checkpointState());
    ASSERT_EQ(withFreshCrc(seed), seed);

    Mutator mutator(0x5eed0002);
    int restored = 0;
    for (int i = 0; i < 1000; ++i) {
        std::string doc = mutator.mutate(seed);
        if (i % 2 == 0)
            doc = withFreshCrc(doc);
        serve::ServerCheckpoint checkpoint;
        try {
            checkpoint = serve::parseCheckpoint(doc);
        } catch (const InputError &) {
            continue;
        }
        serve::Server server(fuzzOptions(), makeFactory());
        try {
            server.restoreState(checkpoint);
        } catch (const InputError &) {
            continue;
        }
        ++restored;
        probe(server, checkpoint);
    }
    // The crc fix-up lets a good share of mutants reach restore.
    EXPECT_GT(restored, 25);

    // Delta-shaped mutants of a format-2 window, each with a valid crc.
    const serve::ServerCheckpoint window = deltaSeed();
    const serve::TenantCheckpoint &tenant = window.tenants[0];
    ASSERT_EQ(tenant.deltas.size(), 2u);
    for (const graph::GraphDelta *delta :
         {&tenant.deltas[0], &tenant.deltas[1], &tenant.pending}) {
        ASSERT_FALSE(delta->addedEdges().empty());
        ASSERT_FALSE(delta->removedEdges().empty());
    }
    ASSERT_FALSE(rejectedCheckpoint(serve::renderCheckpoint(window)));
    for (const auto &[what, doc] : deltaMutants(window))
        EXPECT_TRUE(rejectedCheckpoint(doc)) << what;

    // Unsorted entries cannot be held by a GraphDelta: give the first
    // delta two added edges, swap them in the text, refresh the crc.
    serve::ServerCheckpoint two = window;
    graph::GraphDelta &first = two.tenants[0].deltas[0];
    std::vector<graph::Edge> added = first.addedEdges();
    for (VertexId v = 2; added.size() < 2; ++v)
        if (!std::binary_search(tenant.oldest.begin(), tenant.oldest.end(),
                                graph::Edge{1, v}))
            added.push_back({1, v});
    first = graph::GraphDelta::fromChanges(added, first.removedEdges());
    auto pairText = [](const graph::Edge &e) {
        return std::to_string(e.first) + "," + std::to_string(e.second);
    };
    const std::string sorted = "\"deltas\":[[[" +
        pairText(first.addedEdges()[0]) + "," +
        pairText(first.addedEdges()[1]) + "]";
    const std::string swapped = "\"deltas\":[[[" +
        pairText(first.addedEdges()[1]) + "," +
        pairText(first.addedEdges()[0]) + "]";
    std::string doc = serve::renderCheckpoint(two);
    ASSERT_FALSE(rejectedCheckpoint(doc));
    const auto at = doc.find(sorted);
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, sorted.size(), swapped);
    EXPECT_TRUE(rejectedCheckpoint(withFreshCrc(doc)));
}

TEST(Fuzz, WalRecoverAndReplay)
{
    const std::string seed_path = tempPath("fuzz_seed.wal");
    {
        serve::Server source(fuzzOptions(), makeFactory());
        source.attachWal(serve::WalWriter::openFresh(
            seed_path, serve::WalSync::Off));
        for (const auto &line : seedLines())
            source.handle(line);
        source.wal()->close();
    }
    const std::string seed = readFile(seed_path);
    ASSERT_FALSE(seed.empty());

    Mutator mutator(0x5eed0003);
    const std::string path = tempPath("fuzz_mutant.wal");
    for (int i = 0; i < 300; ++i) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << mutator.mutate(seed);
        }
        const serve::WalRecovery recovery = serve::recoverWal(path);
        serve::Server server(fuzzOptions(), makeFactory());
        server.recover(recovery.records);
        expectTypedResponse("stats", server.handle("stats"));
    }
}

/** Plans of the accelerator styles (and a scale-out plan) for `dg`. */
std::vector<std::string>
seedPlans(const graph::DynamicGraph &dg)
{
    const model::DgnnConfig model;
    std::vector<std::string> docs;
    core::DiTileAccelerator ditile;
    auto plan = ditile.plan(dg, model);
    docs.push_back(plan.toJson());
    plan.faults = sim::FaultSpec::parse("tile@1:r1c*;seed=5");
    docs.push_back(plan.toJson());
    plan.faults = {};
    sim::applyScaleOut(plan, dg, 2, {});
    docs.push_back(plan.toJson());
    docs.push_back(sim::makeMega()->plan(dg, model).toJson());
    docs.push_back(sim::makeRace()->plan(dg, model).toJson());
    return docs;
}

TEST(Fuzz, PlanParseAndExecute)
{
    graph::EvolutionConfig config;
    config.numVertices = 64;
    config.numEdges = 256;
    config.numSnapshots = 3;
    config.featureDim = 8;
    config.seed = 3;
    const auto dg = graph::generateDynamicGraph(config);
    const auto seeds = seedPlans(dg);
    for (const auto &doc : seeds)
        ASSERT_NO_THROW(sim::executePlan(dg,
                                         sim::ExecutionPlan::fromJson(doc)));

    // Vertex lists must be strictly ascending, so a mutated id inside
    // one is mostly a typed error: 2400 mutations keep more than 200
    // documents reaching executePlan.
    Mutator mutator(0x5eed0004);
    int accepted = 0;
    for (int i = 0; i < 2400; ++i) {
        const std::string doc =
            mutator.mutate(seeds[static_cast<std::size_t>(i) % seeds.size()]);
        sim::ExecutionPlan plan;
        try {
            plan = sim::ExecutionPlan::fromJson(doc);
        } catch (const InputError &) {
            continue;
        }
        ++accepted;
        try {
            sim::executePlan(dg, plan);
        } catch (const InputError &) {
        }
    }
    EXPECT_GT(accepted, 200);
}

TEST(Fuzz, EventStreamParseAndDiscretize)
{
    graph::EventStreamConfig config;
    config.numVertices = 16;
    config.initialEdges = 40;
    config.numEvents = 60;
    config.duration = 10.0;
    config.seed = 5;
    const auto source = graph::generateEventStream(config);
    std::ostringstream text;
    text << "# op u v timestamp\n";
    for (const graph::GraphEvent &e : source.events())
        text << (e.kind == graph::GraphEvent::Kind::AddEdge ? '+' : '-')
             << ' ' << e.u << ' ' << e.v << ' ' << e.timestamp << '\n';
    const std::string seed = text.str();
    {
        std::istringstream in(seed);
        ASSERT_EQ(graph::readEventStream("seed", source.initial(), in)
                      .events()
                      .size(),
                  source.events().size());
    }

    Mutator mutator(0x5eed0005);
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
        std::istringstream in(mutator.mutate(seed));
        try {
            const auto ctdg =
                graph::readEventStream("mutant", source.initial(), in);
            ++accepted;
            const auto dg = ctdg.discretize(4, 8);
            EXPECT_EQ(dg.numSnapshots(), 4);
        } catch (const InputError &) {
        }
    }
    EXPECT_GT(accepted, 200);
}

TEST(Fuzz, EdgeListParse)
{
    constexpr VertexId kUniverse = 32;
    graph::EvolutionConfig config;
    config.numVertices = kUniverse;
    config.numEdges = 64;
    config.numSnapshots = 1;
    config.seed = 6;
    std::ostringstream text;
    graph::writeEdgeList(text, graph::generateDynamicGraph(config).snapshot(0));
    // The second seed's largest id is valid but leaves no room for a
    // derived universe.
    const std::string seeds[] = {text.str(), "0 1\n2 2147483647\n"};
    {
        std::istringstream in(seeds[1]);
        EXPECT_THROW(graph::readEdgeList(in), InputError);
    }

    Mutator mutator(0x5eed0006);
    int accepted = 0;
    for (const std::string &seed : seeds) {
        for (int i = 0; i < 2000; ++i) {
            const std::string mutant = mutator.mutate(seed);
            try {
                // The declared universe bounds what a mutant can
                // allocate; one it accepts is small enough to read
                // undeclared too.
                std::istringstream in(mutant);
                EXPECT_EQ(graph::readEdgeList(in, kUniverse).numVertices(),
                          kUniverse);
                ++accepted;
                std::istringstream again(mutant);
                EXPECT_LE(graph::readEdgeList(again).numVertices(),
                          kUniverse);
            } catch (const InputError &) {
            }
        }
    }
    EXPECT_GT(accepted, 200);
}

} // namespace
} // namespace ditile
