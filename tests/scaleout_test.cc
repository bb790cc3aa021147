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
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
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
    workload::ChunkPartitionOptions options;
    options.chips = 4;
    const auto part = workload::buildChunkPartition(dg, options);

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

    // The egress census is self-consistent: per-snapshot totals sum
    // to the overall cross-adjacency count, and the per-chip egress
    // rows count every cross adjacency from both endpoints.
    const auto T = dg.numSnapshots();
    ASSERT_EQ(part.crossAdjPerSnapshot.size(),
              static_cast<std::size_t>(T));
    ASSERT_EQ(part.egressAdj.size(), static_cast<std::size_t>(T) * 4);
    EXPECT_EQ(std::accumulate(part.crossAdjPerSnapshot.begin(),
                              part.crossAdjPerSnapshot.end(),
                              std::uint64_t{0}),
              part.crossAdjTotal);
    EXPECT_GT(part.crossAdjTotal, 0u);

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
    workload::ChunkPartitionOptions options;
    options.chips = 32;
    EXPECT_THROW(workload::buildChunkPartition(dg, options),
                 InputError);
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

TEST(ScaleOut, SharedPlanCacheHitsAcrossRepeatRuns)
{
    const auto dg = scaleoutWorkload();
    sim::PlanCache cache;
    auto plan = planFor(dg, 2, &cache);
    const auto first = sim::executePlan(dg, plan, &cache);
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
