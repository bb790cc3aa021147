/**
 * @file
 * Tests for the Re-Link reconfiguration controller and its engine
 * integration.
 */

#include <gtest/gtest.h>

#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "noc/relink_controller.hh"
#include "noc/topology.hh"

namespace ditile::noc {
namespace {

TEST(RelinkController, StopsFormulaMatchesRingTopology)
{
    // Cross-check against the actual ring route's stop placement.
    NocConfig config;
    config.rows = 16;
    config.cols = 16;
    config.topology = TopologyKind::Reconfigurable;
    for (int span : {1, 2, 4, 8}) {
        config.reLinkSpan = span;
        const Topology topo(config);
        for (int d = 1; d <= 8; ++d) {
            const auto hops = topo.route(
                0, static_cast<TileId>(d * 16),
                TrafficClass::Spatial);
            int stops = 0;
            for (const auto &h : hops)
                stops += h.routerStop;
            EXPECT_EQ(stops,
                      RelinkController::stopsForDistance(d, span))
                << "d=" << d << " span=" << span;
        }
    }
}

TEST(RelinkController, LongTrafficPrefersLongSpans)
{
    RelinkController controller(16);
    // All messages travel 8 vertical hops.
    const std::vector<int> lengths(32, 8);
    const auto decision = controller.decide(lengths, 2);
    EXPECT_EQ(decision.span, 8);
}

TEST(RelinkController, ShortTrafficPrefersNoBypass)
{
    RelinkController controller(16);
    // Single-hop traffic: every span gives one stop, tie broken to
    // the smallest span.
    const std::vector<int> lengths(32, 1);
    const auto decision = controller.decide(lengths, 2);
    EXPECT_EQ(decision.span, 1);
}

TEST(RelinkController, MixedTrafficPicksIntermediate)
{
    RelinkController controller(16);
    std::vector<int> lengths;
    for (int i = 0; i < 16; ++i) {
        lengths.push_back(2);
        lengths.push_back(5);
    }
    const auto decision = controller.decide(lengths, 4);
    EXPECT_GT(decision.span, 1);
    EXPECT_LE(decision.span, 8);
}

TEST(RelinkController, ChargesTogglesOnlyOnChange)
{
    RelinkController controller(16);
    const std::vector<int> long_traffic(8, 8);
    const auto first = controller.decide(long_traffic, 2);
    EXPECT_GT(first.reconfigEvents, 0u);
    const auto again = controller.decide(long_traffic, 2);
    EXPECT_EQ(again.reconfigEvents, 0u);
    EXPECT_EQ(controller.totalReconfigEvents(), first.reconfigEvents);
    // Switching back costs again.
    const std::vector<int> short_traffic(8, 1);
    const auto back = controller.decide(short_traffic, 2);
    EXPECT_GT(back.reconfigEvents, 0u);
}

TEST(RelinkController, EmptyPhaseKeepsConfiguration)
{
    RelinkController controller(16);
    controller.decide(std::vector<int>(4, 8), 2);
    const int span = controller.currentSpan();
    const auto decision = controller.decide({}, 2);
    EXPECT_EQ(decision.span, span);
    EXPECT_EQ(decision.reconfigEvents, 0u);
}

TEST(RelinkController, DecisionNeverWorseThanStaticSpanOne)
{
    // Property: the chosen span's expected latency is minimal among
    // candidates, hence <= the no-bypass score.
    RelinkController controller(16);
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<int> lengths;
        for (int i = 0; i < 64; ++i)
            lengths.push_back(static_cast<int>(
                rng.uniformInt(0, 8)));
        const auto decision = controller.decide(lengths, 2);
        double span1 = 0.0;
        std::size_t counted = 0;
        for (int d : lengths) {
            if (d <= 0)
                continue;
            ++counted;
            span1 += d + 2.0 *
                RelinkController::stopsForDistance(d, 1);
        }
        if (counted)
            span1 /= static_cast<double>(counted);
        EXPECT_LE(decision.expectedLatency, span1 + 1e-9);
    }
}

TEST(RelinkIntegration, AdaptiveDiTileNoSlowerThanStatic)
{
    graph::EvolutionConfig config;
    config.numVertices = 1500;
    config.numEdges = 12000;
    config.numSnapshots = 6;
    config.featureDim = 64;
    const auto dg = graph::generateDynamicGraph(config);
    model::DgnnConfig mconfig;
    mconfig.gcnDims = {32, 16};
    mconfig.lstmHidden = 16;

    core::DiTileAccelerator adaptive; // adaptiveRelink follows Ra.
    const auto r = adaptive.run(dg, mconfig);
    EXPECT_GT(r.totalCycles, 0u);
    // The controller charged at least the initial configuration.
    EXPECT_GT(r.energyEvents.reconfigEvents, 0u);
}

} // namespace
} // namespace ditile::noc
