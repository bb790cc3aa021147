/**
 * @file
 * Tests for the structured tracing and metrics subsystem: disabled
 * overhead contract, Chrome trace_event schema, rollups, round-trip
 * parsing, the metrics registry, and the golden-file layout lock.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"
#include "sim/run_trace.hh"
#include "workload/digest.hh"

namespace ditile {
namespace {

/** RAII guard: always leave the process-wide tracer disabled. */
struct TracerGuard
{
    TracerGuard() { Tracer::global().reset(); }
    ~TracerGuard() { Tracer::global().reset(); }
};

graph::DynamicGraph
tinyWorkload()
{
    graph::EvolutionConfig config;
    config.name = "trace-tiny";
    config.numVertices = 80;
    config.numEdges = 320;
    config.numSnapshots = 2;
    config.dissimilarity = 0.10;
    config.featureDim = 16;
    config.seed = 7;
    return graph::generateDynamicGraph(config);
}

/** Run the DiTile accelerator with the tracer on and export JSON. */
std::string
captureTinyTrace()
{
    workload::setDigestEnabled(true);
    workload::DigestCache::global().clear();
    Tracer &tracer = Tracer::global();
    tracer.reset();
    tracer.enable(true, true);
    Tracer::setTrackBase(0);
    const auto dg = tinyWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    accel.run(dg, mconfig);
    std::string json = tracer.toChromeJson();
    tracer.reset();
    return json;
}

TEST(CacheMetrics, EachCacheCounterIsCountedOnce)
{
    // The registry's cache.* totals and the caches' own counters come
    // from one bump per lookup, so over a fleet that both hits and
    // misses they agree.
    TracerGuard guard;
    workload::setDigestEnabled(true);
    auto &digests = workload::DigestCache::global();
    digests.clear();
    Tracer::global().enable(false, true);
    const auto dg = tinyWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache plans;
    for (int round = 0; round < 2; ++round) {
        core::DiTileAccelerator ditile;
        core::DiTileAccelerator nora(
            sim::AcceleratorConfig::defaults(),
            core::DiTileOptions::fromVariant("NoRa"));
        const auto ready = sim::makeReady();
        for (sim::Accelerator *accel :
             {static_cast<sim::Accelerator *>(&ditile),
              static_cast<sim::Accelerator *>(&nora), ready.get()})
            accel->execute(dg, accel->plan(dg, mconfig, &plans));
    }
    const auto metrics = Tracer::global().metrics();
    std::map<std::string, std::uint64_t> registry;
    for (const auto &[path, value] : metrics)
        registry[path] = static_cast<std::uint64_t>(value);
    EXPECT_GT(plans.hits(), 0u);
    EXPECT_GT(plans.misses(), 0u);
    EXPECT_EQ(registry["cache.plan.hits"], plans.hits());
    EXPECT_EQ(registry["cache.plan.misses"], plans.misses());
    EXPECT_GT(digests.hits(), 0u);
    EXPECT_GT(digests.misses(), 0u);
    EXPECT_EQ(registry["cache.digest_loads.hits"] +
                  registry["cache.digest_partition.hits"],
              digests.hits());
    EXPECT_EQ(registry["cache.digest_loads.misses"] +
                  registry["cache.digest_partition.misses"],
              digests.misses());
}

TEST(Tracer, DisabledByDefaultAndRecordIsNoOp)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    EXPECT_FALSE(tracer.enabled());
    EXPECT_FALSE(tracer.traceEnabled());
    EXPECT_FALSE(tracer.metricsEnabled());
    TraceEvent ev;
    ev.cat = "engine";
    ev.name = "ignored";
    tracer.record(std::move(ev));
    tracer.addMetric("ignored.path", 7);
    EXPECT_TRUE(tracer.metrics().empty());
    EXPECT_TRUE(tracer.rollup().empty());
}

TEST(Tracer, DisabledLeavesRunStatsUntouched)
{
    TracerGuard guard;
    const auto dg = tinyWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto r = accel.run(dg, mconfig);
    // The extended observability stats must not leak into default
    // output: with the tracer off every output byte stays identical.
    for (const char *name :
         {"noc.spatial_bytes", "noc.temporal_bytes", "noc.reuse_bytes",
          "noc.messages", "dram.requests", "dram.row_hits",
          "dram.row_misses", "dram.row_conflicts", "dram.read_bytes",
          "dram.write_bytes", "engine.digest_full_fastpath",
          "engine.digest_rnn_fastpath", "engine.scratch_snapshots",
          "relink.engaged_snapshots"}) {
        EXPECT_FALSE(r.stats.has(name)) << name;
    }
}

TEST(Tracer, MetricsOnlyModeAddsExtendedStatsButNoEvents)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(false, true);
    Tracer::setTrackBase(0);
    const auto dg = tinyWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto r = accel.run(dg, mconfig);
    EXPECT_TRUE(r.stats.has("noc.spatial_bytes"));
    EXPECT_TRUE(r.stats.has("dram.requests"));
    EXPECT_TRUE(r.stats.has("engine.scratch_snapshots"));
    EXPECT_TRUE(r.stats.has("relink.engaged_snapshots"));
    EXPECT_TRUE(tracer.rollup().empty());
    const auto metrics = tracer.metrics();
    EXPECT_FALSE(metrics.empty());
    bool saw_runs = false;
    for (const auto &[name, value] : metrics) {
        if (name == "engine.runs") {
            saw_runs = true;
            EXPECT_EQ(value, 1);
        }
    }
    EXPECT_TRUE(saw_runs);
}

TEST(Tracer, MetricsRegistryAccumulatesAndSorts)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(false, true);
    tracer.addMetric("b.second", 2);
    tracer.addMetric("a.first", 1);
    tracer.addMetric("b.second", 3);
    const auto metrics = tracer.metrics();
    ASSERT_EQ(metrics.size(), 2u);
    EXPECT_EQ(metrics[0].first, "a.first");
    EXPECT_EQ(metrics[0].second, 1);
    EXPECT_EQ(metrics[1].first, "b.second");
    EXPECT_EQ(metrics[1].second, 5);
}

TEST(Tracer, StepCursorAdvancesPerTrack)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(true, false);
    EXPECT_EQ(tracer.nextStep(10), 0u);
    EXPECT_EQ(tracer.nextStep(10), 1u);
    EXPECT_EQ(tracer.nextStep(11), 0u);
    tracer.instant("cache", "probe", 10);
    const auto rows = tracer.rollup();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].cat, "cache");
    EXPECT_EQ(rows[0].name, "probe");
    EXPECT_EQ(rows[0].firstTs, 2u);
}

TEST(ChromeTrace, SchemaIsValidAndCoversAllStages)
{
    TracerGuard guard;
    const std::string json = captureTinyTrace();
    const JsonValue doc = JsonValue::parse(json);
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ns");
    EXPECT_EQ(doc.at("otherData").at("clock").asString(),
              "virtual-cycles");
    const auto &events = doc.at("traceEvents").items();
    ASSERT_FALSE(events.empty());
    std::set<std::string> cats;
    for (const auto &e : events) {
        const std::string ph = e.at("ph").asString();
        EXPECT_NE(e.find("pid"), nullptr);
        EXPECT_NE(e.find("tid"), nullptr);
        if (ph == "M")
            continue;
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_NE(e.find("name"), nullptr);
        cats.insert(e.at("cat").asString());
        if (ph == "X") {
            EXPECT_NE(e.find("dur"), nullptr);
        }
        if (ph == "i") {
            EXPECT_EQ(e.at("s").asString(), "t");
        }
    }
    // Every instrumented stage shows up even on a tiny run.
    for (const char *cat : {"plan", "engine", "noc", "dram", "cache"})
        EXPECT_TRUE(cats.count(cat)) << "missing category " << cat;
}

TEST(ChromeTrace, ParseRoundTripAndRollup)
{
    TracerGuard guard;
    const std::string json = captureTinyTrace();
    const auto events = Tracer::parseChromeJson(json);
    ASSERT_FALSE(events.empty());
    const auto rows = Tracer::rollupEvents(events);
    ASSERT_FALSE(rows.empty());
    bool saw_plan = false;
    for (const auto &row : rows) {
        EXPECT_GT(row.count, 0u);
        EXPECT_GE(row.lastEnd, row.firstTs);
        if (row.cat == "plan" && row.name == "alg1-tiling") {
            saw_plan = true;
            EXPECT_EQ(row.count, 1u);
            EXPECT_EQ(row.totalDur, 1u);
        }
    }
    EXPECT_TRUE(saw_plan);
}

TEST(ChromeTrace, IdenticalAcrossCaptures)
{
    TracerGuard guard;
    const std::string a = captureTinyTrace();
    const std::string b = captureTinyTrace();
    EXPECT_EQ(a, b);
}

TEST(ChromeTrace, MatchesGoldenFile)
{
    TracerGuard guard;
    const std::string golden_path =
        std::string(DITILE_GOLDEN_DIR) + "/trace_small.json";
    const std::string json = captureTinyTrace() + "\n";
    if (std::getenv("DITILE_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << json;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (run with DITILE_REGEN_GOLDEN=1 to create it)";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    // Byte-for-byte: the exported trace layout is part of the tool
    // contract (CI diffs traces across thread widths).
    EXPECT_EQ(json, buffer.str());
}

/** WD at scale 0.1 over enough snapshots to use several columns. */
graph::DynamicGraph
wdWorkload()
{
    graph::DatasetOptions options;
    options.scale = 0.1;
    options.numSnapshots = 8;
    return graph::makeDataset("WD", options);
}

/** Trace one DiTile run in the given timeline and check that every
 *  phase span sits at its task's scheduled [start, finish). */
void
expectSpansAtScheduledTasks(const graph::DynamicGraph &dg, bool overlap)
{
    SCOPED_TRACE(dg.name() + (overlap ? " overlap" : " staged"));
    Tracer &tracer = Tracer::global();
    tracer.reset();
    tracer.enable(true, false);
    Tracer::setTrackBase(0);
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, model::DgnnConfig{});
    plan.options.overlap = overlap;
    const auto r = sim::executePlan(dg, plan);
    const std::map<std::string, std::string> span_of = {
        {"gnn", "gnn-compute"}, {"spatial", "spatial-comm"},
        {"temporal", "temporal-comm"}, {"rnn", "rnn-compute"},
        {"dram", "dram-stream"}};

    // (name, track, ts, dur) of every drawn span and every task.
    using Key = std::tuple<std::string, std::uint64_t, std::uint64_t,
                           std::uint64_t>;
    std::multiset<Key> spans;
    for (const TraceEvent &e :
         Tracer::parseChromeJson(tracer.toChromeJson())) {
        for (const auto &[kind, name] : span_of) {
            if (e.phase == 'X' && e.name == name)
                spans.insert({e.name, e.track, e.ts, e.dur});
        }
    }
    std::multiset<Key> tasks;
    std::multiset<Key> busy;
    std::set<int> columns;
    for (const auto &task : r.taskGraph.tasks) {
        const auto it = span_of.find(task.kind);
        if (it == span_of.end())
            continue;
        const int column =
            r.trace[static_cast<std::size_t>(task.snapshot)].column;
        columns.insert(column);
        const Key key{it->second,
                      task.kind == "dram"
                          ? Tracer::kDramTrack
                          : Tracer::kColumnTrackBase +
                              static_cast<std::uint64_t>(column),
                      task.start, task.finish - task.start};
        tasks.insert(key);
        if (task.finish > task.start)
            busy.insert(key);
    }
    tracer.reset();
    EXPECT_GT(columns.size(), 1u) << "run should cross columns";
    EXPECT_FALSE(busy.empty());
    EXPECT_TRUE(std::includes(tasks.begin(), tasks.end(), spans.begin(),
                              spans.end()))
        << "a span is not at its task's scheduled interval";
    EXPECT_TRUE(std::includes(spans.begin(), spans.end(), busy.begin(),
                              busy.end()))
        << "a busy task drew no span";
}

TEST(RunTrace, SpansSitAtScheduledTasksInBothTimelines)
{
    TracerGuard guard;
    workload::setDigestEnabled(true);
    for (const auto &dg : {tinyWorkload(), wdWorkload()}) {
        for (const bool overlap : {true, false})
            expectSpansAtScheduledTasks(dg, overlap);
    }
}

TEST(RunTrace, RegistryIsTheSumOfEachRunsStats)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(false, true);
    Tracer::setTrackBase(0);
    const auto dg = tinyWorkload();
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, model::DgnnConfig{});
    std::vector<sim::RunResult> runs;
    for (const bool overlap : {true, false}) {
        plan.options.overlap = overlap;
        runs.push_back(sim::executePlan(dg, plan));
    }
    std::map<std::string, long long> registry;
    for (const auto &[path, value] : tracer.metrics())
        registry[path] = value;
    for (const auto &[path, key] : sim::kRegistryFromStats) {
        EXPECT_TRUE(runs[0].stats.has(key)) << key;
        EXPECT_EQ(registry[path],
                  static_cast<long long>(runs[0].stats.get(key) +
                                         runs[1].stats.get(key)))
            << path << " <- " << key;
    }
    EXPECT_EQ(registry["engine.runs"], 2);
    EXPECT_EQ(registry["engine.snapshots"], 2 * dg.numSnapshots());
}

TEST(ChromeTrace, WriteChromeJsonThrowsOnBadPath)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(true, false);
    EXPECT_THROW(
        tracer.writeChromeJson("/nonexistent-dir-xyz/trace.json"),
        InputError);
}

} // namespace
} // namespace ditile
