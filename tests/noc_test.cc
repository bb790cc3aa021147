/**
 * @file
 * Tests for the NoC topologies and the contention-aware network
 * simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hh"
#include "noc/network.hh"
#include "noc/traffic_patterns.hh"

namespace ditile::noc {
namespace {

NocConfig
config4x4(TopologyKind kind, int relink_span = 4)
{
    NocConfig c;
    c.rows = 4;
    c.cols = 4;
    c.topology = kind;
    c.reLinkSpan = relink_span;
    c.linkBytesPerCycle = 32;
    c.routerLatencyCycles = 2;
    return c;
}

/** Walk a route and return the vertex sequence it traverses. */
int
routeStops(const NocConfig &config, TileId src, TileId dst)
{
    const Topology topo(config);
    int stops = 0;
    for (const auto &hop : topo.route(src, dst,
                                       TrafficClass::Spatial))
        stops += hop.routerStop;
    return stops;
}

TEST(TrafficClassName, AllNamed)
{
    EXPECT_STREQ(trafficClassName(TrafficClass::Temporal), "temporal");
    EXPECT_STREQ(trafficClassName(TrafficClass::Spatial), "spatial");
    EXPECT_STREQ(trafficClassName(TrafficClass::Reuse), "reuse");
    EXPECT_STREQ(trafficClassName(TrafficClass::Control), "control");
}

TEST(TopologyKindName, AllNamed)
{
    EXPECT_STREQ(topologyKindName(TopologyKind::Mesh), "mesh");
    EXPECT_STREQ(topologyKindName(TopologyKind::Ring), "ring");
    EXPECT_STREQ(topologyKindName(TopologyKind::Crossbar), "crossbar");
    EXPECT_STREQ(topologyKindName(TopologyKind::Reconfigurable),
                 "reconfigurable");
}

TEST(MeshTopology, XyRouteLengths)
{
    const auto config = config4x4(TopologyKind::Mesh);
    const Topology topo(config);
    // (0,0) -> (3,3): 3 horizontal + 3 vertical hops.
    EXPECT_EQ(topo.route(0, 15, TrafficClass::Spatial).size(), 6u);
    // Same tile: empty route.
    EXPECT_TRUE(topo.route(5, 5, TrafficClass::Spatial).empty());
    // Neighbors: one hop.
    EXPECT_EQ(topo.route(0, 1, TrafficClass::Spatial).size(), 1u);
    // Mesh has no wraparound: (row 0, col 0) -> (row 0, col 3) is 3.
    EXPECT_EQ(topo.route(0, 3, TrafficClass::Spatial).size(), 3u);
}

TEST(RingTopology, WrapsAroundMinimalDirection)
{
    const auto config = config4x4(TopologyKind::Ring);
    const Topology topo(config);
    // Column 0 -> column 3 wraps West: 1 hop.
    EXPECT_EQ(topo.route(0, 3, TrafficClass::Temporal).size(), 1u);
    // Row 0 -> row 3 wraps North: 1 hop.
    EXPECT_EQ(topo.route(0, 12, TrafficClass::Spatial).size(), 1u);
}

TEST(CrossbarTopology, SingleHop)
{
    const auto config = config4x4(TopologyKind::Crossbar);
    const Topology topo(config);
    EXPECT_EQ(topo.route(0, 15, TrafficClass::Spatial).size(), 1u);
    EXPECT_TRUE(topo.route(7, 7, TrafficClass::Spatial).empty());
}

TEST(ReconfigurableTopology, BypassReducesRouterStops)
{
    NocConfig ring = config4x4(TopologyKind::Ring);
    ring.rows = 16;
    ring.cols = 16;
    NocConfig re = ring;
    re.topology = TopologyKind::Reconfigurable;
    re.reLinkSpan = 4;
    // Vertical distance 7 within one column: ring stops 7 times,
    // Re-Link stops every 4 hops plus the final stop.
    const TileId src = 0;
    const TileId dst = 7 * 16;
    EXPECT_EQ(routeStops(ring, src, dst), 7);
    EXPECT_EQ(routeStops(re, src, dst), 2);
}

TEST(ReconfigurableTopology, ZeroLoadLatencyBeatsPlainRing)
{
    NocConfig ring = config4x4(TopologyKind::Ring);
    ring.rows = 16;
    ring.cols = 16;
    NocConfig re = ring;
    re.topology = TopologyKind::Reconfigurable;
    Message m;
    m.src = 0;
    m.dst = 6 * 16; // six vertical hops.
    m.bytes = 512;
    EXPECT_LT(zeroLoadLatency(re, m), zeroLoadLatency(ring, m));
}

TEST(ZeroLoadLatency, SerializationPlusRouterLatency)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message m;
    m.src = 0;
    m.dst = 1;
    m.bytes = 64; // two cycles at 32 B/cycle.
    EXPECT_EQ(zeroLoadLatency(config, m),
              2u + config.routerLatencyCycles);
}

TEST(SimulateTraffic, EmptyBatch)
{
    const auto res = simulateTraffic(config4x4(TopologyKind::Mesh), {});
    EXPECT_EQ(res.makespan, 0u);
    EXPECT_EQ(res.numMessages, 0u);
    EXPECT_DOUBLE_EQ(res.avgLatency, 0.0);
}

TEST(SimulateTraffic, SingleMessageMatchesZeroLoad)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message m;
    m.src = 0;
    m.dst = 10;
    m.bytes = 96;
    const auto res = simulateTraffic(config, {m});
    EXPECT_EQ(res.makespan, zeroLoadLatency(config, m));
    EXPECT_EQ(res.numMessages, 1u);
    EXPECT_EQ(res.totalBytes, 96u);
}

TEST(SimulateTraffic, ContentionSerializesSharedLink)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message a;
    a.src = 0;
    a.dst = 1;
    a.bytes = 320; // 10 cycles serialization.
    Message b = a;
    const auto one = simulateTraffic(config, {a});
    const auto two = simulateTraffic(config, {a, b});
    // The second message waits for the link: makespan roughly doubles
    // the serialization component.
    EXPECT_GE(two.makespan, one.makespan + 10);
}

TEST(SimulateTraffic, DisjointPathsOverlap)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message a;
    a.src = 0;
    a.dst = 1;
    a.bytes = 320;
    Message b;
    b.src = 14;
    b.dst = 15;
    b.bytes = 320;
    const auto both = simulateTraffic(config, {a, b});
    const auto alone = simulateTraffic(config, {a});
    EXPECT_EQ(both.makespan, alone.makespan);
}

TEST(SimulateTraffic, InjectCycleDelaysService)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message m;
    m.src = 0;
    m.dst = 1;
    m.bytes = 32;
    m.injectCycle = 1000;
    const auto res = simulateTraffic(config, {m});
    EXPECT_GE(res.makespan, 1000u);
}

TEST(SimulateTraffic, ByteAccountingConserved)
{
    Rng rng(5);
    std::vector<Message> msgs;
    ByteCount total = 0;
    for (int i = 0; i < 200; ++i) {
        Message m;
        m.src = static_cast<TileId>(rng.uniformInt(0, 15));
        m.dst = static_cast<TileId>(rng.uniformInt(0, 15));
        m.bytes = static_cast<ByteCount>(rng.uniformInt(1, 2048));
        m.cls = static_cast<TrafficClass>(rng.uniformInt(0, 3));
        total += m.bytes;
        msgs.push_back(m);
    }
    const auto res = simulateTraffic(config4x4(TopologyKind::Mesh),
                                     msgs);
    EXPECT_EQ(res.totalBytes, total);
    ByteCount by_class = 0;
    for (int c = 0; c < 4; ++c)
        by_class += res.bytesByClass[c];
    EXPECT_EQ(by_class, total);
    // Every hop of every message carries its bytes.
    EXPECT_GE(res.hopBytes, res.routerBytes);
}

/**
 * Property: for random batches, the reconfigurable topology's vertical
 * traffic never loses to the plain ring (same paths, fewer stops).
 */
class TopologyComparison : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TopologyComparison, ReLinkNoWorseThanRingForColumnTraffic)
{
    Rng rng(GetParam());
    std::vector<Message> msgs;
    for (int i = 0; i < 64; ++i) {
        Message m;
        const int col = static_cast<int>(rng.uniformInt(0, 15));
        m.src = static_cast<TileId>(rng.uniformInt(0, 15) * 16 + col);
        m.dst = static_cast<TileId>(rng.uniformInt(0, 15) * 16 + col);
        m.bytes = static_cast<ByteCount>(rng.uniformInt(64, 4096));
        msgs.push_back(m);
    }
    NocConfig ring;
    ring.topology = TopologyKind::Ring;
    NocConfig re = ring;
    re.topology = TopologyKind::Reconfigurable;
    const auto ring_res = simulateTraffic(ring, msgs);
    const auto re_res = simulateTraffic(re, std::move(msgs));
    EXPECT_LE(re_res.makespan, ring_res.makespan);
    EXPECT_LE(re_res.routerStops, ring_res.routerStops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyComparison,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(TrafficPatterns, EndpointsInRangeForEveryPattern)
{
    Rng rng(5);
    for (auto pattern : allTrafficPatterns()) {
        const auto msgs = generateTraffic(pattern, 4, 4, 128, 64,
                                          rng);
        ASSERT_EQ(msgs.size(), 128u) << trafficPatternName(pattern);
        for (const auto &m : msgs) {
            EXPECT_GE(m.src, 0);
            EXPECT_LT(m.src, 16);
            EXPECT_GE(m.dst, 0);
            EXPECT_LT(m.dst, 16);
            EXPECT_EQ(m.bytes, 64u);
        }
    }
}

TEST(TrafficPatterns, HotspotTargetsOneTile)
{
    Rng rng(9);
    const auto msgs = generateTraffic(TrafficPattern::Hotspot, 4, 4,
                                      64, 32, rng);
    for (const auto &m : msgs)
        EXPECT_EQ(m.dst, 8);
}

TEST(TrafficPatterns, ColumnGatherStaysInColumn)
{
    Rng rng(11);
    const auto msgs = generateTraffic(TrafficPattern::ColumnGather,
                                      4, 4, 256, 32, rng);
    for (const auto &m : msgs) {
        EXPECT_EQ(m.src % 4, m.dst % 4);
        EXPECT_EQ(m.cls, TrafficClass::Spatial);
    }
}

TEST(TrafficPatterns, RowShiftMovesOneColumnEast)
{
    Rng rng(13);
    const auto msgs = generateTraffic(TrafficPattern::RowShift, 4, 4,
                                      16, 32, rng);
    for (const auto &m : msgs) {
        EXPECT_EQ(m.src / 4, m.dst / 4); // same row.
        EXPECT_EQ((m.src % 4 + 1) % 4, m.dst % 4);
        EXPECT_EQ(m.cls, TrafficClass::Temporal);
    }
}

TEST(TrafficPatterns, RelinkBeatsPlainRingOnColumnGather)
{
    // The design claim behind the dual-layer interconnect.
    Rng rng(17);
    auto msgs = generateTraffic(TrafficPattern::ColumnGather, 16, 16,
                                1024, 512, rng);
    NocConfig ring;
    ring.topology = TopologyKind::Ring;
    NocConfig re = ring;
    re.topology = TopologyKind::Reconfigurable;
    const auto ring_res = simulateTraffic(ring, msgs);
    const auto re_res = simulateTraffic(re, std::move(msgs));
    EXPECT_LT(re_res.makespan, ring_res.makespan);
}

/** Routes must terminate at the destination for every topology. */
class RouteValidity : public ::testing::TestWithParam<TopologyKind>
{
};

TEST_P(RouteValidity, EveryPairRoutesWithFinalStop)
{
    NocConfig config = config4x4(GetParam());
    const Topology topo(config);
    for (TileId src = 0; src < 16; ++src) {
        for (TileId dst = 0; dst < 16; ++dst) {
            const auto hops = topo.route(src, dst,
                                          TrafficClass::Spatial);
            if (src == dst) {
                EXPECT_TRUE(hops.empty());
                continue;
            }
            ASSERT_FALSE(hops.empty());
            // The final hop always stops at a router (the receiver).
            EXPECT_TRUE(hops.back().routerStop);
            for (const auto &hop : hops) {
                EXPECT_GE(hop.link, 0);
                EXPECT_LT(hop.link, topo.numLinks());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RouteValidity,
                         ::testing::Values(TopologyKind::Mesh,
                                           TopologyKind::Ring,
                                           TopologyKind::Crossbar,
                                           TopologyKind::Reconfigurable));

/**
 * routeInto() must fully overwrite a reused Route: replaying a batch
 * through one stale Route (leftover hops, both flags set) has to give
 * exactly what a fresh routeResilient() gives, faults or not.
 */
TEST(RouteReuse, StaleRouteMatchesFreshRouteEveryTopology)
{
    Rng rng(14);
    for (TopologyKind kind :
         {TopologyKind::Mesh, TopologyKind::Ring, TopologyKind::Crossbar,
          TopologyKind::Reconfigurable}) {
        const NocConfig config = config4x4(kind);
        const Topology topo(config);
        int rerouted = 0;
        int degraded = 0;
        for (int variant = 0; variant < 4; ++variant) {
            NocFaults faults;
            if (variant & 1) {
                for (int k = 0; k < 10; ++k) {
                    faults.deadLinks.push_back(static_cast<LinkId>(
                        rng.uniformInt(0, topo.numLinks() - 1)));
                }
                std::sort(faults.deadLinks.begin(),
                          faults.deadLinks.end());
            }
            if (variant & 2)
                faults.columnSpanOverride = {1, 3, 0, 2};
            SCOPED_TRACE(testing::Message()
                         << topologyKindName(kind) << " variant "
                         << variant);
            Route stale;
            stale.hops = {{5, false}, {7, true}, {9, false}};
            for (TileId src = 0; src < config.numTiles(); ++src) {
                for (TileId dst = 0; dst < config.numTiles(); ++dst) {
                    stale.rerouted = true;
                    stale.degraded = true;
                    topo.routeInto(src, dst, TrafficClass::Spatial,
                                    faults, stale);
                    const Route fresh = topo.routeResilient(
                        src, dst, TrafficClass::Spatial, faults);
                    ASSERT_EQ(stale.hops.size(), fresh.hops.size())
                        << src << "->" << dst;
                    for (std::size_t h = 0; h < fresh.hops.size(); ++h) {
                        EXPECT_EQ(stale.hops[h].link, fresh.hops[h].link);
                        EXPECT_EQ(stale.hops[h].routerStop,
                                  fresh.hops[h].routerStop);
                    }
                    EXPECT_EQ(stale.rerouted, fresh.rerouted);
                    EXPECT_EQ(stale.degraded, fresh.degraded);
                    if (faults.empty()) {
                        EXPECT_FALSE(fresh.rerouted || fresh.degraded);
                        EXPECT_EQ(fresh.hops.size(),
                                  topo.route(src, dst,
                                              TrafficClass::Spatial)
                                      .size());
                    }
                    rerouted += fresh.rerouted;
                    degraded += fresh.degraded;
                }
            }
        }
        // The dead-link variants exercise the fault paths.
        SCOPED_TRACE(topologyKindName(kind));
        EXPECT_GT(degraded, 0);
        if (kind != TopologyKind::Crossbar) {
            EXPECT_GT(rerouted, 0);
        }
    }
}

/*
 * The hop-list routes and replay loop that the route walkers and the
 * route-free replay replaced, kept verbatim in behaviour as the oracle:
 * routes are materialized as Hop lists and each message is timed by a
 * second pass over its list.
 */
namespace hop_list {

bool
crossesDead(const std::vector<Hop> &hops, const NocFaults &faults)
{
    for (const Hop &h : hops) {
        if (faults.linkDead(h.link))
            return true;
    }
    return false;
}

void
meshBuild(const NocConfig &config, TileId src, TileId dst, bool x_first,
          std::vector<Hop> &hops)
{
    hops.clear();
    const int cols = config.cols;
    int r = src / cols;
    int c = src % cols;
    const int rd = dst / cols;
    const int cd = dst % cols;
    for (int phase = 0; phase < 2; ++phase) {
        if ((phase == 0) == x_first) {
            while (c != cd) {
                const GridDir d = cd > c ? GridDir::East : GridDir::West;
                hops.push_back({gridLinkId(r * cols + c, d), true});
                c += cd > c ? 1 : -1;
            }
        } else {
            while (r != rd) {
                const GridDir d = rd > r ? GridDir::South : GridDir::North;
                hops.push_back({gridLinkId(r * cols + c, d), true});
                r += rd > r ? 1 : -1;
            }
        }
    }
}

void
ringStep(const NocConfig &config, int &r, int &c, GridDir dir)
{
    switch (dir) {
      case GridDir::East: c = (c + 1) % config.cols; break;
      case GridDir::West: c = (c + config.cols - 1) % config.cols; break;
      case GridDir::South: r = (r + 1) % config.rows; break;
      case GridDir::North: r = (r + config.rows - 1) % config.rows; break;
    }
}

bool
ringPathDead(const NocConfig &config, int r, int c, GridDir dir,
             int steps, const NocFaults &faults)
{
    while (steps-- > 0) {
        if (faults.linkDead(gridLinkId(r * config.cols + c, dir)))
            return true;
        ringStep(config, r, c, dir);
    }
    return false;
}

void
ringAppend(const NocConfig &config, std::vector<Hop> &hops, int &r,
           int &c, GridDir dir, int steps, int span)
{
    int until_stop = span;
    while (steps-- > 0) {
        const bool stop = steps == 0 || --until_stop == 0;
        if (stop)
            until_stop = span;
        hops.push_back({gridLinkId(r * config.cols + c, dir), stop});
        ringStep(config, r, c, dir);
    }
}

/** One ring leg: minimal arc unless it is dead and the other is not. */
void
ringLeg(const NocConfig &config, Route &out, int &r, int &c, int n,
        int fwd, bool vertical, int span, const NocFaults &faults)
{
    const bool min_pos = fwd <= n / 2;
    const int min_steps = min_pos ? fwd : n - fwd;
    const GridDir pos = vertical ? GridDir::South : GridDir::East;
    const GridDir neg = vertical ? GridDir::North : GridDir::West;
    GridDir dir = min_pos ? pos : neg;
    int steps = min_steps;
    if (ringPathDead(config, r, c, dir, steps, faults)) {
        const GridDir alt = min_pos ? neg : pos;
        if (!ringPathDead(config, r, c, alt, n - min_steps, faults)) {
            dir = alt;
            steps = n - min_steps;
            out.rerouted = true;
        } else {
            out.degraded = true;
        }
    }
    ringAppend(config, out.hops, r, c, dir, steps, span);
}

Route
route(const NocConfig &config, TileId src, TileId dst,
      const NocFaults &faults)
{
    Route out;
    switch (config.topology) {
      case TopologyKind::Mesh:
        meshBuild(config, src, dst, true, out.hops);
        if (!crossesDead(out.hops, faults))
            break;
        meshBuild(config, src, dst, false, out.hops);
        if (!crossesDead(out.hops, faults)) {
            out.rerouted = true;
            break;
        }
        meshBuild(config, src, dst, true, out.hops);
        out.degraded = true;
        break;
      case TopologyKind::Ring:
      case TopologyKind::Reconfigurable: {
        const int rows = config.rows;
        const int cols = config.cols;
        int r = src / cols;
        int c = src % cols;
        const int rd = dst / cols;
        const int cd = dst % cols;
        if (c != cd)
            ringLeg(config, out, r, c, cols, (cd - c + cols) % cols,
                    false, 1, faults);
        if (r != rd) {
            int span = config.topology == TopologyKind::Ring
                ? 1 : config.reLinkSpan;
            if (const int ov = faults.spanOverride(c))
                span = ov;
            ringLeg(config, out, r, c, rows, (rd - r + rows) % rows,
                    true, span, faults);
        }
        break;
      }
      case TopologyKind::Crossbar:
        if (src != dst) {
            out.hops.push_back({static_cast<LinkId>(dst), true});
            out.degraded = faults.linkDead(dst);
        }
        break;
    }
    return out;
}

NocResult
replay(const NocConfig &config, std::vector<Message> messages,
       const NocFaults &faults)
{
    NocResult result;
    std::stable_sort(messages.begin(), messages.end(),
                     [](const Message &a, const Message &b) {
                         return a.injectCycle < b.injectCycle;
                     });
    const LinkId links = config.topology == TopologyKind::Crossbar
        ? config.numTiles() : config.numTiles() * 4;
    std::vector<Cycle> link_free(static_cast<std::size_t>(links), 0);
    double latency_sum = 0.0;
    for (const Message &m : messages) {
        ++result.numMessages;
        result.totalBytes += m.bytes;
        result.bytesByClass[static_cast<int>(m.cls)] += m.bytes;
        const Route rt = route(config, m.src, m.dst, faults);
        const auto &hops = rt.hops;
        Cycle t = m.injectCycle;
        if (rt.rerouted)
            ++result.reroutedMessages;
        if (rt.degraded) {
            ++result.retriedMessages;
            Cycle backoff = 0;
            Cycle step = faults.retryBackoffCycles;
            for (int attempt = 0; attempt < faults.maxRetries; ++attempt) {
                backoff += step;
                step *= 2;
            }
            result.retryBackoffCycles += backoff;
            t += backoff;
        }
        const Cycle ser =
            (m.bytes + static_cast<Cycle>(config.linkBytesPerCycle) - 1) /
            static_cast<Cycle>(config.linkBytesPerCycle);
        std::size_t seg_begin = 0;
        for (std::size_t h = 0; h < hops.size(); ++h) {
            result.hopBytes += m.bytes;
            ++result.totalHops;
            if (!hops[h].routerStop)
                continue;
            Cycle start = t;
            for (std::size_t k = seg_begin; k <= h; ++k)
                start = std::max(start, link_free[static_cast<std::size_t>(
                                            hops[k].link)]);
            t = start + ser;
            for (std::size_t k = seg_begin; k <= h; ++k)
                link_free[static_cast<std::size_t>(hops[k].link)] = t;
            t += config.routerLatencyCycles;
            result.routerBytes += m.bytes;
            ++result.routerStops;
            seg_begin = h + 1;
        }
        latency_sum += static_cast<double>(t - m.injectCycle);
        result.makespan = std::max(result.makespan, t);
    }
    result.avgLatency = result.numMessages
        ? latency_sum / static_cast<double>(result.numMessages) : 0.0;
    return result;
}

} // namespace hop_list

void
expectSameResult(const NocResult &got, const NocResult &want)
{
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.avgLatency, want.avgLatency);
    EXPECT_EQ(got.numMessages, want.numMessages);
    EXPECT_EQ(got.totalBytes, want.totalBytes);
    EXPECT_EQ(got.hopBytes, want.hopBytes);
    EXPECT_EQ(got.routerBytes, want.routerBytes);
    EXPECT_EQ(got.totalHops, want.totalHops);
    EXPECT_EQ(got.routerStops, want.routerStops);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(got.bytesByClass[c], want.bytesByClass[c]) << c;
    EXPECT_EQ(got.reroutedMessages, want.reroutedMessages);
    EXPECT_EQ(got.retriedMessages, want.retriedMessages);
    EXPECT_EQ(got.retryBackoffCycles, want.retryBackoffCycles);
}

/**
 * The route-free replay equals the hop-list oracle field for field on
 * every topology and grid shape: random messages with mixed classes,
 * mixed inject cycles and src == dst, with no faults, with dead links
 * (some forcing rerouted and degraded routes) and with stuck bypass
 * spans; each route's hops also equal the oracle's hop list.
 */
TEST(NocReplay, MatchesHopListReference)
{
    Rng rng(24);
    for (const auto &[rows, cols] : {std::pair{4, 4}, std::pair{16, 16},
                                    std::pair{3, 5}}) {
        for (TopologyKind kind :
             {TopologyKind::Mesh, TopologyKind::Ring,
              TopologyKind::Crossbar, TopologyKind::Reconfigurable}) {
            NocConfig config = config4x4(kind, 3);
            config.rows = rows;
            config.cols = cols;
            const int tiles = config.numTiles();
            const Topology topo(config);
            std::uint64_t rerouted = 0;
            std::uint64_t retried = 0;
            for (int variant = 0; variant < 4; ++variant) {
                SCOPED_TRACE(testing::Message()
                             << topologyKindName(kind) << " " << rows
                             << "x" << cols << " variant " << variant);
                NocFaults faults;
                if (variant & 1) {
                    const int dead = std::max(2, topo.numLinks() / 12);
                    for (int k = 0; k < dead; ++k)
                        faults.deadLinks.push_back(static_cast<LinkId>(
                            rng.uniformInt(0, topo.numLinks() - 1)));
                    std::sort(faults.deadLinks.begin(),
                              faults.deadLinks.end());
                }
                if (variant & 2) {
                    faults.columnSpanOverride.resize(
                        static_cast<std::size_t>(cols));
                    for (int &span : faults.columnSpanOverride)
                        span = static_cast<int>(rng.uniformInt(0, 5));
                }
                std::vector<Message> msgs;
                for (int i = 0; i < 400; ++i) {
                    Message m;
                    m.src = static_cast<TileId>(
                        rng.uniformInt(0, tiles - 1));
                    m.dst = i % 16 == 0
                        ? m.src
                        : static_cast<TileId>(rng.uniformInt(0, tiles - 1));
                    m.bytes = static_cast<ByteCount>(
                        rng.uniformInt(1, 4096));
                    m.injectCycle = static_cast<Cycle>(
                        rng.uniformInt(0, 3) * 500);
                    m.cls = static_cast<TrafficClass>(
                        rng.uniformInt(0, 3));
                    msgs.push_back(m);
                }
                for (const Message &m : msgs) {
                    const Route want =
                        hop_list::route(config, m.src, m.dst, faults);
                    const Route got =
                        topo.routeResilient(m.src, m.dst, m.cls, faults);
                    ASSERT_EQ(got.hops.size(), want.hops.size())
                        << m.src << "->" << m.dst;
                    for (std::size_t h = 0; h < want.hops.size(); ++h) {
                        EXPECT_EQ(got.hops[h].link, want.hops[h].link);
                        EXPECT_EQ(got.hops[h].routerStop,
                                  want.hops[h].routerStop);
                    }
                    EXPECT_EQ(got.rerouted, want.rerouted);
                    EXPECT_EQ(got.degraded, want.degraded);
                }
                const NocResult want =
                    hop_list::replay(config, msgs, faults);
                expectSameResult(simulateTraffic(config, msgs, &faults),
                                 want);
                if (faults.empty())
                    expectSameResult(simulateTraffic(config, msgs), want);
                rerouted += want.reroutedMessages;
                retried += want.retriedMessages;
            }
            // The dead-link variants reach the fallback paths.
            EXPECT_GT(retried, 0u) << topologyKindName(kind);
            if (kind != TopologyKind::Crossbar) {
                EXPECT_GT(rerouted, 0u) << topologyKindName(kind);
            }
        }
    }
}

} // namespace
} // namespace ditile::noc
