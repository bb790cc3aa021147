/**
 * @file
 * Accelerators are stateless plan builders: one `const` instance plans
 * for many threads at once, and the serve tier builds exactly one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/catalog.hh"
#include "graph/generator.hh"
#include "serve/server.hh"

namespace ditile {
namespace {

std::vector<graph::DynamicGraph>
distinctGraphs()
{
    std::vector<graph::DynamicGraph> graphs;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        graph::EvolutionConfig config;
        config.numVertices = 200 + 25 * static_cast<VertexId>(seed);
        config.numEdges = 1200;
        config.numSnapshots = 3 + static_cast<SnapshotId>(seed % 3);
        config.featureDim = 16;
        config.seed = seed;
        graphs.push_back(graph::generateDynamicGraph(config));
    }
    return graphs;
}

struct PoolWidth
{
    explicit PoolWidth(int n) { ThreadPool::setGlobalThreads(n); }
    ~PoolWidth() { ThreadPool::setGlobalThreads(1); }
};

/** Each graph's plan from one shared accelerator, on 4 threads,
 *  equals the plan a fresh instance builds serially. */
void
expectSharedPlansEqualFresh(const std::string &name)
{
    const auto graphs = distinctGraphs();
    const model::DgnnConfig mconfig;
    std::vector<std::string> fresh;
    for (const auto &dg : graphs)
        fresh.push_back(core::makeAccelerator(name)->plan(dg, mconfig)
                            .toJson());

    const std::unique_ptr<const sim::Accelerator> shared =
        core::makeAccelerator(name);
    std::vector<std::string> concurrent(graphs.size());
    {
        PoolWidth width(4);
        parallelFor(graphs.size(), [&](std::size_t i) {
            concurrent[i] = shared->plan(graphs[i], mconfig).toJson();
        });
    }
    for (std::size_t i = 0; i < graphs.size(); ++i)
        EXPECT_EQ(concurrent[i], fresh[i]) << name << " graph " << i;
}

TEST(StatelessAccelerator, DiTileSharedAcrossThreadsPlansAsFresh)
{
    expectSharedPlansEqualFresh("ditile");
}

TEST(StatelessAccelerator, BaselineSharedAcrossThreadsPlansAsFresh)
{
    expectSharedPlansEqualFresh("race");
}

TEST(StatelessAccelerator, ServerCallsItsFactoryOnce)
{
    std::atomic<int> calls{0};
    const sim::AcceleratorFactory factory = [&calls] {
        ++calls;
        return core::makeAccelerator("ditile");
    };
    serve::Server server(serve::ServerOptions{}, factory);
    EXPECT_EQ(calls.load(), 1);
    for (const char *tenant : {"a", "b", "c"}) {
        server.handle(std::string("tenant ") + tenant +
                      " vertices=48 edges=96 features=4 window=1 "
                      "roll-every=0");
    }
    for (const char *tenant : {"a", "b", "c"}) {
        const std::string response =
            server.handle(std::string("query ") + tenant);
        EXPECT_EQ(response.rfind("ok", 0), 0u) << response;
    }
    // Another graph is another plan miss.
    server.handle("event a add 1 7");
    server.handle("roll a");
    EXPECT_EQ(server.handle("query a").rfind("ok", 0), 0u);
    EXPECT_EQ(calls.load(), 1);
}

} // namespace
} // namespace ditile
