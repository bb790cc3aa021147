/**
 * @file
 * Contract-violation (failure-injection) tests: misusing the public
 * API must fail loudly at the violated precondition (an assertion, or
 * an InputError where the input may come from a file), not corrupt
 * the simulation downstream. Every check here pins an assertion message
 * so refactors keep the diagnostics useful.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "graph/ctdg.hh"
#include "graph/dynamic_graph.hh"
#include "graph/generator.hh"
#include "sim/engine.hh"
#include "sim/execution_plan.hh"
#include "tiling/optimizer.hh"

namespace ditile {
namespace {

/** `fn` must throw InputError whose message contains `needle`. */
template <typename Fn>
void
expectInputError(Fn fn, const std::string &needle)
{
    try {
        fn();
        ADD_FAILURE() << "expected InputError containing '" << needle
                      << "'";
    } catch (const InputError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(ContractCsr, OutOfRangeEdgeDies)
{
    EXPECT_DEATH(graph::Csr::fromEdges(3, {{0, 7}}), "out of range");
}

TEST(ContractCsr, PatchRemovingANonEdgeDies)
{
    const auto g = graph::Csr::fromEdges(4, {{0, 1}, {1, 2}});
    EXPECT_DEATH(graph::Csr::patched(g, {}, {{0, 2}}),
                 "removed edge \\(0,2\\) is not in the graph");
    EXPECT_DEATH(graph::Csr::patched(g, {}, {{0, 1}, {0, 1}}),
                 "is not in the graph");
}

TEST(ContractCsr, PatchAddingAnExistingEdgeDies)
{
    const auto g = graph::Csr::fromEdges(4, {{0, 1}, {1, 2}});
    EXPECT_DEATH(graph::Csr::patched(g, {{1, 2}}, {}),
                 "added edge \\(1,2\\) is already in the graph");
    EXPECT_DEATH(graph::Csr::patched(g, {{2, 3}, {2, 3}}, {}),
                 "added twice");
    EXPECT_DEATH(graph::Csr::patched(g, {{3, 3}}, {}), "self loop");
}

TEST(ContractDynamicGraph, EmptySnapshotListDies)
{
    EXPECT_DEATH(graph::DynamicGraph("x", std::vector<graph::Csr>{},
                                     4),
                 "at least one snapshot");
}

TEST(ContractDynamicGraph, MismatchedUniversesDie)
{
    std::vector<graph::Csr> snaps;
    snaps.emplace_back(4);
    snaps.emplace_back(5);
    EXPECT_DEATH(graph::DynamicGraph("x", snaps, 4),
                 "share a vertex universe");
}

TEST(ContractDynamicGraph, NonPositiveFeatureDimDies)
{
    std::vector<graph::Csr> snaps;
    snaps.emplace_back(4);
    EXPECT_DEATH(graph::DynamicGraph("x", snaps, 0),
                 "feature dim");
}

TEST(ContractDynamicGraph, SnapshotIndexOutOfRangeDies)
{
    std::vector<graph::Csr> snaps;
    snaps.emplace_back(4);
    graph::DynamicGraph dg("x", snaps, 4);
    EXPECT_DEATH(dg.snapshot(5), "out of range");
    EXPECT_DEATH(dg.delta(0), "out of range");
}

TEST(ContractDelta, DifferentUniversesDie)
{
    const graph::Csr a(3);
    const graph::Csr b(4);
    EXPECT_DEATH(graph::GraphDelta::diff(a, b),
                 "share a vertex universe");
}

TEST(ContractCtdg, UnorderedEventsDie)
{
    std::vector<graph::GraphEvent> events = {
        {graph::GraphEvent::Kind::AddEdge, 0, 1, 5.0},
        {graph::GraphEvent::Kind::AddEdge, 1, 2, 1.0},
    };
    EXPECT_DEATH(graph::ContinuousDynamicGraph("x", graph::Csr(4),
                                               events),
                 "time-ordered");
}

TEST(ContractCtdg, OutOfUniverseEventDies)
{
    std::vector<graph::GraphEvent> events = {
        {graph::GraphEvent::Kind::AddEdge, 0, 9, 1.0},
    };
    EXPECT_DEATH(graph::ContinuousDynamicGraph("x", graph::Csr(4),
                                               events),
                 "vertex universe");
}

TEST(ContractTiling, NonSquareGridDies)
{
    tiling::HardwareFeatures hw;
    hw.totalTiles = 12;
    EXPECT_DEATH(tiling::gridDim(hw), "not a square grid");
}

TEST(ContractEngine, WrongPartitionSizeThrows)
{
    graph::EvolutionConfig config;
    config.numVertices = 100;
    config.numEdges = 300;
    config.numSnapshots = 2;
    const auto dg = graph::generateDynamicGraph(config);
    const auto hw = sim::AcceleratorConfig::defaults();
    model::DgnnConfig mconfig;
    mconfig.gcnDims = {8};
    mconfig.lstmHidden = 8;

    sim::MappingSpec mapping;
    mapping.rowPartition =
        graph::VertexPartition::contiguous(50, hw.tileRows); // wrong V
    mapping.snapshotColumn = {0, 1};
    // A mapping made for another workload is rejected input (a plan
    // file may carry it), not a process abort.
    expectInputError([&] {
        sim::executePlan(dg, sim::buildEnginePlan(dg, mconfig, hw,
                                                  mapping, {}, "x"));
    },
                     "cover the graph");
}

TEST(ContractEngine, MissingColumnMapThrows)
{
    graph::EvolutionConfig config;
    config.numVertices = 100;
    config.numEdges = 300;
    config.numSnapshots = 3;
    const auto dg = graph::generateDynamicGraph(config);
    const auto hw = sim::AcceleratorConfig::defaults();
    model::DgnnConfig mconfig;
    mconfig.gcnDims = {8};
    mconfig.lstmHidden = 8;

    sim::MappingSpec mapping;
    mapping.rowPartition = graph::VertexPartition::contiguous(
        dg.numVertices(), hw.tileRows);
    mapping.snapshotColumn = {0}; // T = 3 but one entry.
    expectInputError([&] {
        sim::executePlan(dg, sim::buildEnginePlan(dg, mconfig, hw,
                                                  mapping, {}, "x"));
    },
                     "cover every snapshot");
}

TEST(ContractGenerator, InvalidDissimilarityDies)
{
    graph::EvolutionConfig config;
    config.numVertices = 64;
    config.numEdges = 128;
    config.dissimilarity = 1.5;
    EXPECT_DEATH(graph::generateDynamicGraph(config),
                 "dissimilarity");
}

} // namespace
} // namespace ditile
