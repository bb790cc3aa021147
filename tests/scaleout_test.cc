/**
 * @file
 * Tests for the multi-chip scale-out layer: chips=1 byte-identity of
 * plan JSON and execution, cross-thread bit-identity of M-chip
 * cluster schedules, chunk-partitioner balance invariants, format-3
 * plan round trips (with format-2 back-compat), InterChipLink cycle
 * math, the cluster overlap-vs-staged makespan bound, cluster stats
 * that mirror the cluster's fields, and cluster trace spans and track
 * groups.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "noc/interchip.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/fault_model.hh"
#include "sim/plan_cache.hh"
#include "sim/scaleout.hh"
#include "sim/scaleout_internal.hh"
#include "sim/task_graph.hh"
#include "workload/chunk_partition.hh"

namespace ditile {
namespace {

graph::DynamicGraph
scaleoutWorkload(VertexId vertices = 1400, EdgeId edges = 11200)
{
    graph::EvolutionConfig config;
    config.name = "scaleout-test";
    config.numVertices = vertices;
    config.numEdges = edges;
    config.numSnapshots = 5;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 7;
    return graph::generateDynamicGraph(config);
}

sim::ExecutionPlan
planFor(const graph::DynamicGraph &dg, int chips,
        sim::PlanCache *cache = nullptr)
{
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, model::DgnnConfig{}, cache);
    if (chips > 1)
        sim::applyScaleOut(plan, dg, chips,
                           noc::InterChipLinkConfig{});
    return plan;
}

/** The fields the CSV/report surfaces, for whole-result equality. */
void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.onChipCommCycles, b.onChipCommCycles);
    EXPECT_EQ(a.offChipCycles, b.offChipCycles);
    EXPECT_EQ(a.configCycles, b.configCycles);
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_EQ(a.nocBytesTemporal, b.nocBytesTemporal);
    EXPECT_EQ(a.nocBytesSpatial, b.nocBytesSpatial);
    EXPECT_EQ(a.nocBytesReuse, b.nocBytesReuse);
    EXPECT_DOUBLE_EQ(a.peUtilization, b.peUtilization);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t t = 0; t < a.trace.size(); ++t)
        EXPECT_EQ(a.trace[t].rnnDone, b.trace[t].rnnDone)
            << "snapshot " << t;
}

TEST(ScaleOut, ChipsOneIsByteIdenticalAndNeverEntersTheLayer)
{
    const auto dg = scaleoutWorkload();
    auto plan = planFor(dg, 1);
    const auto before = plan.toJson();
    EXPECT_NE(before.find("\"plan_format\":2"), std::string::npos);
    EXPECT_EQ(before.find("\"scaleout\""), std::string::npos);

    // chips=1 through applyScaleOut must leave the plan untouched.
    sim::applyScaleOut(plan, dg, 1, noc::InterChipLinkConfig{});
    EXPECT_FALSE(plan.scaleout.enabled());
    EXPECT_EQ(plan.toJson(), before);

    const auto base = sim::executePlan(dg, planFor(dg, 1));
    const auto after = sim::executePlan(dg, plan);
    expectSameResult(base, after);
}

TEST(ScaleOut, MultiChipScheduleBitIdenticalAcrossThreadWidths)
{
    const auto dg = scaleoutWorkload();
    ThreadPool::setGlobalThreads(1);
    const auto plan = planFor(dg, 3);
    const auto reference = sim::executePlan(dg, plan);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        const auto plan_t = planFor(dg, 3);
        EXPECT_EQ(plan_t.toJson(), plan.toJson());
        expectSameResult(sim::executePlan(dg, plan_t), reference);
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(ScaleOut, PartitionerBalanceInvariants)
{
    const auto dg = scaleoutWorkload();
    const auto part = workload::buildChunkPartition(dg, 4);

    ASSERT_EQ(part.chips, 4);
    ASSERT_GT(part.chunks, 0);
    ASSERT_EQ(part.chipOfChunk.size(),
              static_cast<std::size_t>(part.chunks));
    ASSERT_EQ(part.chunkLoad.size(),
              static_cast<std::size_t>(part.chunks));
    ASSERT_EQ(part.chipLoad.size(), 4u);

    // Every chunk lands on a valid chip and every chip gets work.
    std::vector<int> chunks_on_chip(4, 0);
    for (int chip : part.chipOfChunk) {
        ASSERT_GE(chip, 0);
        ASSERT_LT(chip, 4);
        ++chunks_on_chip[static_cast<std::size_t>(chip)];
    }
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(chunks_on_chip[static_cast<std::size_t>(c)], 0)
            << "chip " << c << " got no chunks";

    // chipLoad is exactly the chunk loads folded by assignment.
    std::vector<std::uint64_t> folded(4, 0);
    for (int k = 0; k < part.chunks; ++k)
        folded[static_cast<std::size_t>(part.chipOfChunk
                                            [static_cast<std::size_t>(
                                                k)])] +=
            part.chunkLoad[static_cast<std::size_t>(k)];
    EXPECT_EQ(folded, part.chipLoad);

    // LPT + slack-bounded refinement keeps the imbalance tame: the
    // bound is mean + max single chunk load, stated relative to mean.
    const double mean =
        static_cast<double>(std::accumulate(part.chipLoad.begin(),
                                            part.chipLoad.end(),
                                            std::uint64_t{0})) /
        4.0;
    const auto max_chunk =
        *std::max_element(part.chunkLoad.begin(),
                          part.chunkLoad.end());
    EXPECT_GE(part.imbalance(), 1.0);
    EXPECT_LE(part.imbalance(),
              (mean + static_cast<double>(max_chunk)) / mean);

    // A 4-chip run records this assignment, and its cross-adjacency
    // stat is the census under it: every adjacency entry of every
    // snapshot whose endpoints sit on different chips.
    const auto plan = planFor(dg, 4);
    EXPECT_EQ(plan.scaleout.chipOfChunk, part.chipOfChunk);
    std::uint64_t cross = 0;
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const graph::Csr &g = dg.snapshot(t);
        for (VertexId v = 0; v < g.numVertices(); ++v)
            for (const VertexId u : g.neighbors(v))
                cross += part.chipOfVertex(u) != part.chipOfVertex(v);
    }
    EXPECT_GT(cross, 0u);
    EXPECT_EQ(sim::executePlan(dg, plan).stats.get(
                  "scaleout.cross_adjacencies"),
              static_cast<double>(cross));

    // chipOfVertex is the contiguous-chunk lookup.
    for (VertexId v : {VertexId{0}, dg.numVertices() / 2,
                       dg.numVertices() - 1})
        EXPECT_EQ(part.chipOfVertex(v),
                  part.chipOfChunk[static_cast<std::size_t>(
                      v / part.chunkSpan)]);
}

TEST(ScaleOut, PartitionerRejectsMoreChipsThanVertices)
{
    const auto dg = scaleoutWorkload(16, 64);
    EXPECT_THROW(workload::buildChunkPartition(dg, 32), InputError);
}

TEST(ScaleOut, FormatThreePlanRoundTrips)
{
    const auto dg = scaleoutWorkload();
    const auto plan = planFor(dg, 2);
    const auto text = plan.toJson();
    EXPECT_NE(text.find("\"plan_format\":3"), std::string::npos);
    EXPECT_NE(text.find("\"scaleout\":{\"chips\":2"),
              std::string::npos);

    const auto loaded = sim::ExecutionPlan::fromJson(text);
    EXPECT_TRUE(loaded.scaleout.enabled());
    EXPECT_EQ(loaded.scaleout.chips, plan.scaleout.chips);
    EXPECT_EQ(loaded.scaleout.chunkSpan, plan.scaleout.chunkSpan);
    EXPECT_EQ(loaded.scaleout.chipOfChunk, plan.scaleout.chipOfChunk);
    EXPECT_DOUBLE_EQ(loaded.scaleout.link.bandwidthGbps,
                     plan.scaleout.link.bandwidthGbps);
    EXPECT_DOUBLE_EQ(loaded.scaleout.link.latencyNs,
                     plan.scaleout.link.latencyNs);
    EXPECT_EQ(loaded.scaleout.link.packetBytes,
              plan.scaleout.link.packetBytes);
    EXPECT_EQ(loaded.scaleout.link.packetHeaderBytes,
              plan.scaleout.link.packetHeaderBytes);

    // The round trip is lossless down to the serialized bytes, and a
    // replayed plan reproduces the direct run.
    EXPECT_EQ(loaded.toJson(), text);
    EXPECT_EQ(loaded.contentHash(), plan.contentHash());
    expectSameResult(sim::executePlan(dg, loaded),
                     sim::executePlan(dg, plan));
}

TEST(ScaleOut, FormatTwoPlansStillLoad)
{
    const auto dg = scaleoutWorkload();
    const auto plan = planFor(dg, 1);
    const auto text = plan.toJson();
    ASSERT_NE(text.find("\"plan_format\":2"), std::string::npos);
    const auto loaded = sim::ExecutionPlan::fromJson(text);
    EXPECT_FALSE(loaded.scaleout.enabled());
    EXPECT_EQ(loaded.scaleout.chips, 1);
    EXPECT_EQ(loaded.toJson(), text);
}

TEST(ScaleOut, InterChipLinkCycleMath)
{
    noc::InterChipLinkConfig config;  // 100 Gb/s, 350 ns, 256B+16B
    const noc::InterChipLink link(config, 1.0);
    // 100 Gb/s at 1 GHz = 12.5 bytes per cycle.
    EXPECT_DOUBLE_EQ(link.bytesPerCycle(), 12.5);
    EXPECT_EQ(link.latencyCycles(), 350u);
    // One full packet pays one header; a packet plus one byte pays
    // two.
    EXPECT_EQ(link.wireBytes(256), 256u + 16u);
    EXPECT_EQ(link.wireBytes(257), 257u + 32u);
    // 272 wire bytes at 12.5 B/cyc serialize in ceil(21.76) = 22.
    EXPECT_EQ(link.transferCycles(256), 350u + 22u);
    // Nothing to send costs nothing (no latency charge either).
    EXPECT_EQ(link.wireBytes(0), 0u);
    EXPECT_EQ(link.transferCycles(0), 0u);

    // Fractional clocks ceil the latency: 350 ns at 0.7 GHz = 245.
    const noc::InterChipLink slow(config, 0.7);
    EXPECT_EQ(slow.latencyCycles(), 245u);
}

/** A link value the scale-out flags must reject, by its flag. */
struct BadLink
{
    const char *flag;
    double gbps;
    double ns;
};

const BadLink kBadLinks[] = {
    {"--interchip-gbps=0", 0.0, 350.0},
    {"--interchip-gbps=-5", -5.0, 350.0},
    {"--interchip-ns=-1", 100.0, -1.0},
    {"--interchip-ns=nan", 100.0, std::nan("")},
    // 7e19 cycles at 0.7 GHz: wrapped to fewer cycles than 350 ns.
    {"--interchip-ns=1e20", 100.0, 1e20},
    // Cycles per byte overflow: priced like infinite bandwidth.
    {"--interchip-gbps=1e-300", 1e-300, 350.0},
    {"--interchip-gbps=inf", HUGE_VAL, 350.0},
};

TEST(ScaleOut, InvalidLinksAreInputErrors)
{
    const auto dg = scaleoutWorkload();
    for (const BadLink &bad : kBadLinks) {
        SCOPED_TRACE(bad.flag);
        noc::InterChipLinkConfig link;
        link.bandwidthGbps = bad.gbps;
        link.latencyNs = bad.ns;
        EXPECT_THROW(noc::checkInterChipLink(link, 0.7), InputError);
        EXPECT_THROW(noc::InterChipLink(link, 0.7), InputError);
        auto plan = planFor(dg, 1);
        EXPECT_THROW(sim::applyScaleOut(plan, dg, 2, link), InputError);
        EXPECT_FALSE(plan.scaleout.enabled());
    }
    // chips <= 1 never uses the link, so it is not checked.
    noc::InterChipLinkConfig unused;
    unused.bandwidthGbps = 0.0;
    auto plan = planFor(dg, 1);
    EXPECT_NO_THROW(sim::applyScaleOut(plan, dg, 1, unused));
}

TEST(ScaleOut, PlanDocumentsWithInvalidLinksAreRejected)
{
    const auto dg = scaleoutWorkload();
    const std::string doc = planFor(dg, 2).toJson();
    const std::pair<const char *, const char *> cases[] = {
        {"\"bandwidth_gbps\":100", "\"bandwidth_gbps\":0"},
        {"\"bandwidth_gbps\":100", "\"bandwidth_gbps\":-5"},
        {"\"bandwidth_gbps\":100", "\"bandwidth_gbps\":1e-300"},
        {"\"latency_ns\":350", "\"latency_ns\":-1"},
        {"\"latency_ns\":350", "\"latency_ns\":1e20"},
    };
    for (const auto &[from, to] : cases) {
        SCOPED_TRACE(to);
        std::string hostile = doc;
        const auto at = hostile.find(from);
        ASSERT_NE(at, std::string::npos);
        hostile.replace(at, std::string(from).size(), to);
        EXPECT_THROW(sim::ExecutionPlan::fromJson(hostile), InputError);
    }
}

TEST(ScaleOut, TransferCyclesThatOverflowAreInputErrors)
{
    noc::InterChipLinkConfig config;
    config.bandwidthGbps = 1e-12; // 8e12 cycles per byte at 1 GHz.
    const noc::InterChipLink link(config, 1.0);
    EXPECT_GT(link.transferCycles(1), 8'000'000'000'000u);
    EXPECT_THROW(link.transferCycles(ByteCount{1} << 40), InputError);
}

TEST(ScaleOut, ClusterGraphShapeAndOverlapBound)
{
    const auto dg = scaleoutWorkload();
    auto plan = planFor(dg, 2);
    const auto T = static_cast<std::size_t>(dg.numSnapshots());

    const auto graph = sim::buildTaskGraph(plan);
    // Per snapshot: one ChipCompute per chip, one InterChipComm per
    // chip except after the last snapshot; 2 chip lanes + 2 link
    // lanes.
    EXPECT_EQ(graph.nodes.size(), 2 * T + 2 * (T - 1));
    EXPECT_EQ(graph.lanes.size(), 4u);

    const auto overlap = sim::executePlan(dg, plan);
    auto staged_plan = plan;
    staged_plan.options.overlap = false;
    const auto staged = sim::executePlan(dg, staged_plan);
    EXPECT_LE(overlap.totalCycles, staged.totalCycles);
    EXPECT_GT(overlap.totalCycles, 0u);
}

TEST(ScaleOut, SnapshotCountMismatchIsInputError)
{
    // A plan made for one snapshot count (as --plan-in loads it) and
    // executed over a workload with another is bad input, in both
    // directions, before a cluster is sized from either count.
    graph::EvolutionConfig config;
    config.numVertices = 1200;
    config.numEdges = 9600;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 7;
    config.numSnapshots = 4;
    const auto short_dg = graph::generateDynamicGraph(config);
    config.numSnapshots = 8;
    const auto long_dg = graph::generateDynamicGraph(config);
    const std::pair<const graph::DynamicGraph *,
                    const graph::DynamicGraph *>
        directions[] = {{&short_dg, &long_dg}, {&long_dg, &short_dg}};
    for (const bool mega : {true, false}) {
        for (const auto &[planned, executed] : directions) {
            SCOPED_TRACE(testing::Message()
                         << (mega ? "MEGA" : "DiTile") << " plan T="
                         << planned->numSnapshots() << " workload T="
                         << executed->numSnapshots());
            auto plan = mega
                ? sim::makeMega()->plan(*planned, model::DgnnConfig{})
                : planFor(*planned, 1);
            sim::applyScaleOut(plan, *planned, 2,
                               noc::InterChipLinkConfig{});
            try {
                sim::executePlan(*executed, plan);
                ADD_FAILURE() << "mismatched plan executed";
            } catch (const InputError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "plan has " +
                              std::to_string(planned->numSnapshots()) +
                              " snapshots, the workload " +
                              std::to_string(executed->numSnapshots())),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(ScaleOut, SharedPlanCacheHitsAcrossRepeatRuns)
{
    const auto dg = scaleoutWorkload();
    sim::PlanCache cache;
    auto plan = planFor(dg, 2, &cache);
    const auto first = sim::executePlan(dg, plan, &cache);
    // Without its memoized evaluation, the second run plans its shards
    // again, and the plan sets the first run left serve them.
    cache.clearEvaluations();
    const auto second = sim::executePlan(dg, plan, &cache);
    expectSameResult(first, second);
    EXPECT_GT(cache.hits(), 0u);
}

TEST(ScaleOut, StatsThatMirrorFieldsEqualThem)
{
    // A cluster merges its chips' stats; the mirrors of the cluster's
    // own fields must still read the cluster's values.
    const auto dg = scaleoutWorkload();
    for (const int chips : {1, 2, 4}) {
        for (const bool faulted : {false, true}) {
            SCOPED_TRACE(testing::Message() << "chips=" << chips
                                            << " faulted=" << faulted);
            auto plan = planFor(dg, chips);
            if (faulted)
                plan.faults = sim::FaultSpec::parse("tile@1:r3c*;dram@2:ch*");
            const auto r = sim::executePlan(dg, plan);
            auto d = [](auto v) { return static_cast<double>(v); };
            const std::pair<const char *, double> mirrors[] = {
                {"cycles.total", d(r.totalCycles)},
                {"cycles.compute", d(r.computeCycles)},
                {"cycles.onchip_comm", d(r.onChipCommCycles)},
                {"cycles.offchip", d(r.offChipCycles)},
                {"cycles.config", d(r.configCycles)},
                {"pe.utilization", r.peUtilization},
                {"ops.total", d(r.ops.totalArithmetic())},
                {"dram.bytes", d(r.dramTraffic.total())},
                {"noc.bytes", d(r.nocBytes)},
            };
            for (const auto &[key, field] : mirrors)
                EXPECT_DOUBLE_EQ(r.stats.get(key), field) << key;
            const StatSet energy = r.energy.toStats();
            for (const std::string &key : energy.names())
                EXPECT_DOUBLE_EQ(r.stats.get(key), energy.get(key)) << key;
            EXPECT_EQ(r.resilience.enabled, faulted);
            const StatSet res = r.resilience.toStats();
            for (const std::string &key : res.names())
                EXPECT_EQ(r.stats.has(key), faulted) << key;
            if (faulted) {
                EXPECT_GT(r.resilience.degradedCapacityFraction, 0.0);
                for (const std::string &key : res.names())
                    EXPECT_DOUBLE_EQ(r.stats.get(key), res.get(key)) << key;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Patched shards: each chip's shard is built from snapshot 0 plus the
// global deltas restricted to the chip. The reference rebuilds every
// shard snapshot from the global edge list and diffs the shard back
// into deltas, as the shard build did before it was patched.
// ---------------------------------------------------------------------

/** Shard of `chip` rebuilt per snapshot with fromEdges, diffed back. */
graph::DynamicGraph
rebuiltShard(const graph::DynamicGraph &dg, const sim::ShardLayout &layout,
             int chip)
{
    const auto &ids = layout.globalIds[static_cast<std::size_t>(chip)];
    std::vector<VertexId> local_of(layout.chipOf.size(), kInvalidVertex);
    for (std::size_t i = 0; i < ids.size(); ++i)
        local_of[static_cast<std::size_t>(ids[i])] =
            static_cast<VertexId>(i);
    std::vector<graph::Csr> snaps;
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        std::vector<graph::Edge> edges;
        for (const auto &[u, v] : dg.snapshot(t).edgeList()) {
            const VertexId lu = local_of[static_cast<std::size_t>(u)];
            const VertexId lv = local_of[static_cast<std::size_t>(v)];
            if (lu != kInvalidVertex && lv != kInvalidVertex)
                edges.emplace_back(lu, lv);
        }
        snaps.push_back(graph::Csr::fromEdges(
            static_cast<VertexId>(ids.size()), edges));
    }
    return graph::DynamicGraph(dg.name(), std::move(snaps),
                               dg.featureDim());
}

void
expectPatchedShardsEqualRebuilt(const graph::DynamicGraph &dg,
                                const sim::ScaleOutSpec &spec)
{
    const auto layout = sim::shardLayout(spec, dg.numVertices());
    for (int c = 0; c < spec.chips; ++c) {
        SCOPED_TRACE(testing::Message() << "chip " << c);
        const auto patched = sim::buildShard(dg, layout, c);
        const auto rebuilt = rebuiltShard(dg, layout, c);
        ASSERT_EQ(patched.numSnapshots(), rebuilt.numSnapshots());
        ASSERT_EQ(patched.numVertices(), rebuilt.numVertices());
        for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
            SCOPED_TRACE(testing::Message() << "snapshot " << t);
            EXPECT_EQ(patched.snapshot(t).rowPtr(),
                      rebuilt.snapshot(t).rowPtr());
            EXPECT_EQ(patched.snapshot(t).adjacency(),
                      rebuilt.snapshot(t).adjacency());
            if (t == 0)
                continue;
            const auto &pd = patched.delta(t);
            const auto &rd = rebuilt.delta(t);
            EXPECT_EQ(pd.addedEdges(), rd.addedEdges());
            EXPECT_EQ(pd.removedEdges(), rd.removedEdges());
            EXPECT_EQ(pd.affectedVertices(), rd.affectedVertices());
        }
        // The hash walks the snapshots, not the name, so the plan
        // cache keys both builds alike.
        EXPECT_EQ(patched.structureHashValue(),
                  rebuilt.structureHashValue());
    }

    // Egress carried by deltas == a full scan of every snapshot.
    const auto egress = sim::crossEgress(dg, layout);
    const auto chips = static_cast<std::size_t>(spec.chips);
    ASSERT_EQ(egress.size(),
              static_cast<std::size_t>(dg.numSnapshots()) * chips);
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        std::vector<std::uint64_t> scan(chips, 0);
        for (const auto &[u, v] : dg.snapshot(t).edgeList()) {
            const int cu = layout.chipOf[static_cast<std::size_t>(u)];
            const int cv = layout.chipOf[static_cast<std::size_t>(v)];
            if (cu != cv) {
                ++scan[static_cast<std::size_t>(cu)];
                ++scan[static_cast<std::size_t>(cv)];
            }
        }
        const auto row =
            egress.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(t) * chips);
        EXPECT_EQ(std::vector<std::uint64_t>(
                      row, row + static_cast<std::ptrdiff_t>(chips)),
                  scan)
            << "snapshot " << t;
    }
}

/**
 * A hand-made 3-chip assignment: chips 0 and 1 interleave vertices,
 * and chip 2 holds only the last vertex, so its shard never has an
 * intra-chip edge.
 */
sim::ScaleOutSpec
interleavedSpec(VertexId num_vertices)
{
    sim::ScaleOutSpec spec;
    spec.chips = 3;
    spec.chunkSpan = 1;
    for (VertexId v = 0; v < num_vertices; ++v)
        spec.chipOfChunk.push_back(v + 1 == num_vertices ? 2 : v % 2);
    return spec;
}

TEST(ScaleOut, PatchedShardsEqualRebuiltShards)
{
    // Generator graph: deltas recorded by the generator.
    const auto generated = scaleoutWorkload();
    // 3-argument constructor: deltas diffed from the snapshots. Two
    // steps skip a generator snapshot and the last is a fresh R-MAT
    // draw, so the deltas span small and whole-graph changes.
    Rng rng(11);
    std::vector<graph::Csr> snaps{generated.snapshot(0),
                                  generated.snapshot(2),
                                  generated.snapshot(4),
                                  graph::generateRmat(
                                      generated.numVertices(), 6000,
                                      graph::RmatParams{}, rng)};
    const graph::DynamicGraph diffed("diffed", std::move(snaps), 64);

    for (const graph::DynamicGraph *dg : {&generated, &diffed}) {
        SCOPED_TRACE(dg->name());
        const auto spec = interleavedSpec(dg->numVertices());
        {
            SCOPED_TRACE("interleaved");
            const auto layout = sim::shardLayout(spec, dg->numVertices());
            ASSERT_EQ(layout.globalIds[2].size(), 1u);
            EXPECT_EQ(sim::buildShard(*dg, layout, 2).maxEdges(), 0);
            expectPatchedShardsEqualRebuilt(*dg, spec);
        }
        for (const int chips : {2, 4}) {
            SCOPED_TRACE(testing::Message() << chips << " partitioned");
            expectPatchedShardsEqualRebuilt(
                *dg, planFor(*dg, chips).scaleout);
        }
    }
}

// ---------------------------------------------------------------------
// Golden scale-out results: the modeled numbers of every chip count and
// timeline mode, pinned across commits, so a shard-build change that
// claims byte identity is checked against the numbers recorded before
// it, and a deliberate change shows as a diff of this file.
// ---------------------------------------------------------------------

constexpr const char *kScaleoutGoldenHeader =
    "chips,overlap,cycles,ops,dram_bytes,noc_bytes,energy_pj,"
    "interchip_payload_bytes,cross_adjacencies,chip_of_chunk";

/** One CSV row per (chips, overlap) run of scaleoutWorkload(). */
std::vector<std::string>
goldenScaleoutRows()
{
    const auto dg = scaleoutWorkload();
    std::vector<std::string> rows{kScaleoutGoldenHeader};
    for (const int chips : {2, 3, 4}) {
        for (const bool overlap : {true, false}) {
            auto plan = planFor(dg, chips);
            plan.options.overlap = overlap;
            const auto r = sim::executePlan(dg, plan);
            std::string assignment;
            for (const int chip : plan.scaleout.chipOfChunk) {
                if (!assignment.empty())
                    assignment += ';';
                assignment += std::to_string(chip);
            }
            std::ostringstream row;
            row << chips << ',' << (overlap ? 1 : 0) << ','
                << r.totalCycles << ',' << r.ops.totalArithmetic() << ','
                << r.dramTraffic.total() << ',' << r.nocBytes << ','
                << jsonNumber(r.energy.totalPj()) << ','
                << jsonNumber(r.stats.get("interchip.payload_bytes"))
                << ','
                << jsonNumber(r.stats.get("scaleout.cross_adjacencies"))
                << ',' << assignment;
            rows.push_back(row.str());
        }
    }
    return rows;
}

TEST(ScaleOutGolden, MatchesGoldenFile)
{
    const std::string golden_path =
        std::string(DITILE_GOLDEN_DIR) + "/scaleout_small.csv";
    const std::vector<std::string> rows = goldenScaleoutRows();
    if (std::getenv("DITILE_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        for (const std::string &row : rows)
            out << row << '\n';
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (run with DITILE_REGEN_GOLDEN=1 to create it)";
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);)
        golden.push_back(line);
    // Row by row, so a failure names the configuration that moved.
    ASSERT_EQ(golden.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], golden[i]) << "row " << i;
}

/** RAII guard: always leave the process-wide tracer disabled. */
struct TracerGuard
{
    TracerGuard() { Tracer::global().reset(); }
    ~TracerGuard() { Tracer::global().reset(); }
};

TEST(ScaleOut, InterchipSpansSumToTheLinkBusyCycles)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(true, false);
    Tracer::setTrackBase(0);
    const auto dg = scaleoutWorkload();
    const auto r = sim::executePlan(dg, planFor(dg, 2));
    Cycle interchip = 0;
    std::size_t chip_spans = 0;
    for (const TraceEvent &e :
         Tracer::parseChromeJson(tracer.toChromeJson())) {
        if (e.cat != "cluster")
            continue;
        // The cluster group follows its two chips' groups.
        EXPECT_GE(e.track, 2 * Tracer::kTracksPerRun);
        EXPECT_LT(e.track, 3 * Tracer::kTracksPerRun);
        if (e.name == "interchip-comm")
            interchip += e.dur;
        chip_spans += e.name == "chip-compute" ? 1 : 0;
    }
    EXPECT_GT(interchip, 0u);
    EXPECT_EQ(static_cast<double>(interchip),
              r.stats.get("interchip.busy_cycles"));
    EXPECT_EQ(chip_spans, 2 * static_cast<std::size_t>(dg.numSnapshots()));
}

TEST(ScaleOut, RunsSteppedByTrackGroupsNeverShareATrack)
{
    // Two scale-out runs in one trace, each at its own track base as
    // the tools step it: no track may carry two DRAM streams of one
    // snapshot (which happens when runs overlap track groups).
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(true, false);
    EXPECT_EQ(sim::traceTrackGroups(1), 1);
    EXPECT_EQ(sim::traceTrackGroups(2), 3);
    const auto dg = scaleoutWorkload();
    core::DiTileAccelerator ditile;
    const auto booster = sim::makeDgnnBooster();
    std::uint64_t base = 0;
    for (sim::Accelerator *accel :
         {static_cast<sim::Accelerator *>(&ditile), booster.get()}) {
        Tracer::setTrackBase(base);
        auto plan = accel->plan(dg, model::DgnnConfig{});
        sim::applyScaleOut(plan, dg, 2, noc::InterChipLinkConfig{});
        sim::executePlan(dg, plan);
        base += static_cast<std::uint64_t>(sim::traceTrackGroups(2)) *
            Tracer::kTracksPerRun;
    }
    const JsonValue doc = JsonValue::parse(tracer.toChromeJson());
    std::set<std::pair<std::uint64_t, std::uint64_t>> streams;
    std::size_t count = 0;
    for (const JsonValue &e : doc.at("traceEvents").items()) {
        if (e.at("name").asString() != "dram-stream")
            continue;
        ++count;
        const auto key = std::make_pair(
            e.at("tid").asUint(), e.at("args").at("snapshot").asUint());
        EXPECT_TRUE(streams.insert(key).second)
            << "track " << key.first << " snapshot " << key.second;
    }
    // Two runs x two chips x every snapshot.
    EXPECT_EQ(count, 4 * static_cast<std::size_t>(dg.numSnapshots()));
}

} // namespace
} // namespace ditile
