/**
 * @file
 * Seeded mutation fuzzing of the four input parsers: protocol lines
 * through Server::handle, checkpoint documents (parseCheckpoint, then
 * restoreState), WAL files (recoverWal, then recover) and plan
 * documents (ExecutionPlan::fromJson, then executePlan on the graph the
 * plan was made for). Every mutant must end in success or a typed
 * InputError; any other exception fails the test, and a crash fails the
 * whole binary. Fixed seeds make every run see the same mutants, so a
 * failure reproduces from the test name alone.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
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

    Mutator mutator(0x5eed0004);
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
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

} // namespace
} // namespace ditile
