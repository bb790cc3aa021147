/**
 * @file
 * Tests for one evaluation, many schedules: executePlan is evaluate()
 * then schedule(), and a PlanCache memoizes the evaluation under the
 * graph and the plan with its overlap option and inter-chip link
 * cleared. A memo hit must equal a cold run in every RunResult field
 * (trace rows, task-graph stats and stats included) for every
 * accelerator, faulted, detailed-tile and adaptive Re-Link plans, on
 * one to three chips and at any thread width; an overlap/staged pair
 * and a link sweep evaluate once; any other plan field misses.
 *
 * Below the evaluation memo, a PlanCache memoizes each snapshot's
 * Stage-1 placement. Sweep-shaped sequences (three dissimilarities x
 * T=8,16, in both orders) through one cache must equal cache-free runs
 * field for field for all five accelerators, faulted, detailed-tile
 * and static or adaptive Re-Link plans, at one and four threads; the
 * hits a sweep relies on are pinned; and a plan or graph that differs
 * only in one part of the placement key (the column pair, a snapshot's
 * vertex set, the previous snapshot, the partition) misses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/catalog.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"
#include "sim/scaleout.hh"

namespace ditile {
namespace {

graph::DynamicGraph
memoWorkload()
{
    graph::EvolutionConfig config;
    config.name = "memo-test";
    config.numVertices = 900;
    config.numEdges = 7200;
    config.numSnapshots = 5;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 11;
    return graph::generateDynamicGraph(config);
}

/** Every field of a run, rendered so two runs compare as strings. */
std::string
render(const sim::RunResult &r)
{
    std::string out;
    auto put = [&out](const char *key, auto value) {
        char buf[64];
        if constexpr (std::is_floating_point_v<decltype(value)>)
            std::snprintf(buf, sizeof buf, "%.17g", value);
        else
            std::snprintf(buf, sizeof buf, "%lld",
                          static_cast<long long>(value));
        out += key;
        out += '=';
        out += buf;
        out += '\n';
    };
    out += r.acceleratorName + "|" + r.workloadName + "\n";
    put("total", r.totalCycles);
    put("compute", r.computeCycles);
    put("onchip", r.onChipCommCycles);
    put("offchip", r.offChipCycles);
    put("config", r.configCycles);
    put("agg_macs", r.ops.aggregationMacs);
    put("comb_macs", r.ops.combinationMacs);
    put("rnn_macs", r.ops.rnnMacs);
    put("act_ops", r.ops.activationOps);
    put("elem_ops", r.ops.elementwiseOps);
    put("weight_b", r.dramTraffic.weightBytes);
    put("adj_b", r.dramTraffic.adjacencyBytes);
    put("in_b", r.dramTraffic.inputFeatureBytes);
    put("mid_b", r.dramTraffic.intermediateBytes);
    put("out_b", r.dramTraffic.outputBytes);
    const auto &ev = r.energyEvents;
    put("e.macs", ev.macs);
    put("e.alu", ev.aluOps);
    put("e.act", ev.activations);
    put("e.local", ev.localBufferBytes);
    put("e.fifo", ev.reuseFifoBytes);
    put("e.dist", ev.distBufferBytes);
    put("e.link", ev.nocLinkBytes);
    put("e.router", ev.nocRouterBytes);
    put("e.dram", ev.dramBytes);
    put("e.activates", ev.dramActivates);
    put("e.reconfig", ev.reconfigEvents);
    put("pj.compute", r.energy.computePj);
    put("pj.onchip", r.energy.onChipCommPj);
    put("pj.offchip", r.energy.offChipCommPj);
    put("pj.control", r.energy.controlPj);
    put("util", r.peUtilization);
    put("noc", r.nocBytes);
    put("noc.t", r.nocBytesTemporal);
    put("noc.s", r.nocBytesSpatial);
    put("noc.r", r.nocBytesReuse);
    for (const std::string &name : r.stats.names())
        put(("stat." + name).c_str(), r.stats.get(name));
    for (const sim::SnapshotTrace &row : r.trace) {
        put("row", row.snapshot);
        put("column", row.column);
        put("dram_done", row.dramDone);
        put("gnn_comp", row.gnnComputeCycles);
        put("rnn_comp", row.rnnComputeCycles);
        put("spatial", row.spatialCommCycles);
        put("temporal", row.temporalCommCycles);
        put("gnn_done", row.gnnDone);
        put("rnn_done", row.rnnDone);
        put("spatial_b", row.spatialBytes);
        put("spatial_m", row.spatialMessages);
        put("temporal_b", row.temporalBytes);
        put("reuse_b", row.reuseBytes);
        put("dram.done", row.dram.completionCycle);
        put("dram.requests", row.dram.requests);
        put("dram.hits", row.dram.rowHits);
        put("dram.misses", row.dram.rowMisses);
        put("dram.conflicts", row.dram.rowConflicts);
        put("dram.read", row.dram.readBytes);
        put("dram.write", row.dram.writeBytes);
        put("retry.requests", row.dramRetryRequests);
        put("retry.bytes", row.dramRetryBytes);
        put("retry.cycles", row.dramRetryCycles);
        put("relink", row.relinkSpan);
        put("interchip.payload", row.interchipPayloadBytes);
        put("interchip.wire", row.interchipWireBytes);
    }
    const sim::ResilienceReport &rr = r.resilience;
    put("res.enabled", rr.enabled);
    const StatSet resilience = rr.toStats();
    for (const std::string &name : resilience.names())
        put(("res." + name).c_str(), resilience.get(name));
    for (const sim::RecoveryEvent &e : rr.events)
        out += std::to_string(e.snapshot) + " " + e.kind + " " +
            e.detail + "\n";
    const sim::TaskGraphStats &tg = r.taskGraph;
    put("tg.tasks", tg.numTasks);
    put("tg.edges", tg.numEdges);
    put("tg.makespan", tg.makespan);
    for (const auto &lane : tg.lanes) {
        out += lane.name;
        put(" lane", lane.tasks);
        put("busy", lane.busyCycles);
    }
    for (const auto &task : tg.tasks) {
        out += task.kind + "@" + task.lane;
        put(" task", task.id);
        put("snapshot", task.snapshot);
        put("start", task.start);
        put("finish", task.finish);
        put("critical", task.critical);
    }
    return out;
}

/** One accelerator's plan for the memo workload, `adjust`ed. */
struct MemoCase
{
    std::string name;
    std::function<std::unique_ptr<sim::Accelerator>()> make;
    std::function<void(sim::ExecutionPlan &)> adjust;
};

void
PrintTo(const MemoCase &c, std::ostream *os)
{
    *os << c.name;
}

std::unique_ptr<sim::Accelerator>
makeDiTile()
{
    return std::make_unique<core::DiTileAccelerator>();
}

std::vector<MemoCase>
memoCases()
{
    const auto none = [](sim::ExecutionPlan &) {};
    return {
        {"DiTile", makeDiTile, none},
        {"ReaDy", [] { return sim::makeReady(); }, none},
        {"DGNN-Booster", [] { return sim::makeDgnnBooster(); }, none},
        {"RACE", [] { return sim::makeRace(); }, none},
        {"MEGA", [] { return sim::makeMega(); }, none},
        {"DiTile-faulted", makeDiTile,
         [](sim::ExecutionPlan &plan) {
             plan.faults = sim::FaultSpec::parse(
                 "tile@1:r3c*;dram@2:ch*;hlink@3:r1c2");
         }},
        {"DiTile-detailed-tiles", makeDiTile,
         [](sim::ExecutionPlan &plan) {
             plan.options.detailedTileTiming = true;
         }},
        {"DiTile-adaptive-relink", makeDiTile,
         [](sim::ExecutionPlan &plan) {
             plan.options.adaptiveRelink = true;
         }},
        {"DiTile-static-relink", makeDiTile,
         [](sim::ExecutionPlan &plan) {
             plan.options.adaptiveRelink = false;
         }},
    };
}

class EvaluationMemo : public testing::TestWithParam<MemoCase>
{
  protected:
    void
    SetUp() override
    {
        // Metrics on, so the stats carry the extended counters too.
        Tracer::global().reset();
        Tracer::global().enable(false, true);
    }

    void
    TearDown() override
    {
        Tracer::global().reset();
        ThreadPool::setGlobalThreads(1);
    }
};

TEST_P(EvaluationMemo, HitEqualsColdRun)
{
    const MemoCase &c = GetParam();
    const auto dg = memoWorkload();
    noc::InterChipLinkConfig slow_link;
    slow_link.bandwidthGbps = 25.0;
    slow_link.latencyNs = 2000.0;
    for (const int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        for (const int chips : {1, 2, 3}) {
            SCOPED_TRACE(testing::Message() << "threads=" << threads
                                            << " chips=" << chips);
            sim::PlanCache cache;
            auto plan = c.make()->plan(dg, model::DgnnConfig{}, &cache);
            c.adjust(plan);
            plan.options.overlap = true;
            if (chips > 1)
                sim::applyScaleOut(plan, dg, chips, {});
            auto staged = plan;
            staged.options.overlap = false;
            auto relinked = staged;
            if (chips > 1)
                relinked.scaleout.link = slow_link;

            // Overlap evaluates; staged and the other link re-schedule.
            const auto overlap_run = sim::executePlan(dg, plan, &cache);
            const auto staged_run = sim::executePlan(dg, staged, &cache);
            const auto relinked_run =
                sim::executePlan(dg, relinked, &cache);
            EXPECT_EQ(cache.evaluationMisses(), 1u);
            EXPECT_EQ(cache.evaluationHits(), 2u);

            EXPECT_EQ(render(overlap_run),
                      render(sim::executePlan(dg, plan)));
            EXPECT_EQ(render(staged_run),
                      render(sim::executePlan(dg, staged)));
            EXPECT_EQ(render(relinked_run),
                      render(sim::executePlan(dg, relinked)));
            if (chips > 1) {
                EXPECT_GT(relinked_run.totalCycles,
                          staged_run.totalCycles);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Accelerators, EvaluationMemo, testing::ValuesIn(memoCases()),
    [](const testing::TestParamInfo<MemoCase> &info) {
        std::string name = info.param.name;
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(EvaluationMemoCount, OverlapStagedPairEvaluatesOnce)
{
    const auto dg = memoWorkload();
    for (const int chips : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message() << "chips=" << chips);
        sim::PlanCache cache;
        core::DiTileAccelerator ditile;
        auto plan = ditile.plan(dg, model::DgnnConfig{}, &cache);
        for (const bool overlap : {true, false}) {
            plan.options.overlap = overlap;
            if (chips > 1)
                sim::applyScaleOut(plan, dg, chips, {});
            sim::executePlan(dg, plan, &cache);
        }
        EXPECT_EQ(cache.evaluationMisses(), 1u);
        EXPECT_EQ(cache.evaluationHits(), 1u);
    }
}

TEST(EvaluationMemoCount, FourChipLinkSweepEvaluatesOnce)
{
    // bench_scaleout's interconnect rows: one 4-chip plan under four
    // bandwidths and three latencies, its plan made anew per row.
    const auto dg = memoWorkload();
    sim::PlanCache cache;
    core::DiTileAccelerator ditile;
    std::vector<noc::InterChipLinkConfig> links;
    for (const double gbps : {25.0, 100.0, 400.0, 1600.0}) {
        links.emplace_back();
        links.back().bandwidthGbps = gbps;
    }
    for (const double ns : {50.0, 350.0, 2000.0}) {
        links.emplace_back();
        links.back().latencyNs = ns;
    }
    std::vector<Cycle> cycles;
    for (const auto &link : links) {
        auto plan = ditile.plan(dg, model::DgnnConfig{}, &cache);
        sim::applyScaleOut(plan, dg, 4, link);
        const auto run = sim::executePlan(dg, plan, &cache);
        EXPECT_EQ(render(run), render(sim::executePlan(dg, plan)));
        cycles.push_back(run.totalCycles);
    }
    EXPECT_EQ(cache.evaluationMisses(), 1u);
    EXPECT_EQ(cache.evaluationHits(), links.size() - 1);
    // Bandwidth rows are strictly faster, latency rows strictly
    // slower: each hit was scheduled under its own link.
    EXPECT_GT(cycles[0], cycles[1]);
    EXPECT_GT(cycles[1], cycles[2]);
    EXPECT_GT(cycles[2], cycles[3]);
    EXPECT_LT(cycles[4], cycles[5]);
    EXPECT_LT(cycles[5], cycles[6]);
}

TEST(EvaluationMemoCount, EvaluationSideChangesMiss)
{
    const auto dg = memoWorkload();
    sim::PlanCache cache;
    core::DiTileAccelerator ditile;
    auto base = ditile.plan(dg, model::DgnnConfig{}, &cache);
    sim::applyScaleOut(base, dg, 2, {});
    ASSERT_GE(base.scaleout.chipOfChunk.size(), 2u);

    const std::vector<
        std::pair<const char *, std::function<void(sim::ExecutionPlan &)>>>
        changes = {
            {"dramTrafficScale",
             [](sim::ExecutionPlan &p) { p.options.dramTrafficScale = 1.5; }},
            {"fault",
             [](sim::ExecutionPlan &p) {
                 p.faults = sim::FaultSpec::parse("dram@1:ch*");
             }},
            {"detailedTileTiming",
             [](sim::ExecutionPlan &p) {
                 p.options.detailedTileTiming = true;
             }},
            {"topology",
             [](sim::ExecutionPlan &p) {
                 p.hw.noc.topology = noc::TopologyKind::Mesh;
             }},
            {"rowPartition",
             [](sim::ExecutionPlan &p) {
                 auto &rows = p.mapping.rowPartition;
                 rows.assign(0, (rows.owner(0) + 1) % rows.numParts());
             }},
            {"chipOfChunk",
             [](sim::ExecutionPlan &p) {
                 auto &owners = p.scaleout.chipOfChunk;
                 for (std::size_t i = 1; i < owners.size(); ++i) {
                     if (owners[i] != owners[0]) {
                         std::swap(owners[0], owners[i]);
                         return;
                     }
                 }
             }},
            {"computeEnergyScale",
             [](sim::ExecutionPlan &p) {
                 p.options.computeEnergyScale = 2.0;
             }},
            {"acceleratorName",
             [](sim::ExecutionPlan &p) { p.acceleratorName = "other"; }},
        };
    sim::executePlan(dg, base, &cache);
    std::uint64_t misses = 1;
    for (const auto &[what, change] : changes) {
        SCOPED_TRACE(what);
        auto plan = base;
        change(plan);
        const auto run = sim::executePlan(dg, plan, &cache);
        EXPECT_EQ(cache.evaluationMisses(), ++misses);
        EXPECT_EQ(render(run), render(sim::executePlan(dg, plan)));
        // The bound holds one evaluation: the base evaluates again.
        sim::executePlan(dg, base, &cache);
        EXPECT_EQ(cache.evaluationMisses(), ++misses);
    }
    EXPECT_EQ(cache.evaluationHits(), 0u);

    // Another graph with the same snapshot count and universe misses.
    graph::EvolutionConfig config;
    config.name = "memo-test";
    config.numVertices = 900;
    config.numEdges = 7200;
    config.numSnapshots = 5;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 12;
    const auto other = graph::generateDynamicGraph(config);
    sim::executePlan(other, base, &cache);
    EXPECT_EQ(cache.evaluationMisses(), ++misses);
}


// ---- Per-snapshot placement memo. ----

/** A sweep grid point's graph: snapshot 0 is shared by every
 *  dissimilarity, and the T=8 graph is the T=16 graph's prefix. */
graph::DynamicGraph
sweepWorkload(double dissimilarity, SnapshotId snapshots)
{
    graph::EvolutionConfig config;
    config.name = "sweep-memo";
    config.numVertices = 600;
    config.numEdges = 4800;
    config.numSnapshots = snapshots;
    config.dissimilarity = dissimilarity;
    config.featureDim = 64;
    config.seed = 5;
    return graph::generateDynamicGraph(config);
}

constexpr double kSweepDis[] = {0.02, 0.06, 0.10};

/** A plan adjustment applied to every accelerator of the fleet. */
struct PlacementCase
{
    std::string name;
    std::function<void(sim::ExecutionPlan &)> adjust;
};

void
PrintTo(const PlacementCase &c, std::ostream *os)
{
    *os << c.name;
}

/** Placement hits of one fleet member's run at one grid point. */
struct PointHits
{
    double dis;
    SnapshotId snapshots;
    std::string accelerator;
    std::uint64_t hits;
};

/**
 * Runs the fleet over the sweep grid through one PlanCache, snapshot
 * list in `order`, expecting each run to equal a cache-free run of the
 * same plan; returns each run's placement hits.
 */
std::vector<PointHits>
runSweep(const std::vector<SnapshotId> &order,
         const std::function<void(sim::ExecutionPlan &)> &adjust)
{
    const auto fleet = core::paperFleet();
    sim::PlanCache cache;
    std::vector<PointHits> hits;
    for (const double dis : kSweepDis) {
        for (const SnapshotId snapshots : order) {
            const auto dg = sweepWorkload(dis, snapshots);
            for (const auto &accel : fleet) {
                SCOPED_TRACE(testing::Message()
                             << "dis=" << dis << " T=" << snapshots << " "
                             << accel->name());
                auto plan = accel->plan(dg, model::DgnnConfig{}, &cache);
                adjust(plan);
                const std::uint64_t before = cache.placementHits();
                const auto run = sim::executePlan(dg, plan, &cache);
                hits.push_back({dis, snapshots, accel->name(),
                                cache.placementHits() - before});
                EXPECT_EQ(render(run), render(sim::executePlan(dg, plan)));
            }
        }
    }
    EXPECT_LE(cache.placementCount(), sim::PlanCache::kPlacementCapacity);
    return hits;
}

class PlacementMemo : public testing::TestWithParam<PlacementCase>
{
  protected:
    void
    SetUp() override
    {
        Tracer::global().reset();
        Tracer::global().enable(false, true);
    }

    void
    TearDown() override
    {
        Tracer::global().reset();
        ThreadPool::setGlobalThreads(1);
    }
};

TEST_P(PlacementMemo, SweepRunsEqualCacheFreeRuns)
{
    for (const int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        for (const auto &order : {std::vector<SnapshotId>{8, 16},
                                  std::vector<SnapshotId>{16, 8}}) {
            SCOPED_TRACE(testing::Message() << "threads=" << threads
                                            << " first T=" << order[0]);
            runSweep(order, GetParam().adjust);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, PlacementMemo,
    testing::Values(
        PlacementCase{"planned", [](sim::ExecutionPlan &) {}},
        PlacementCase{"faulted",
                      [](sim::ExecutionPlan &plan) {
                          plan.faults = sim::FaultSpec::parse(
                              "tile@1:r3c*;dram@2:ch*;hlink@3:r1c2");
                      }},
        PlacementCase{"detailed_tiles",
                      [](sim::ExecutionPlan &plan) {
                          plan.options.detailedTileTiming = true;
                      }},
        PlacementCase{"adaptive_relink",
                      [](sim::ExecutionPlan &plan) {
                          plan.options.adaptiveRelink = true;
                      }},
        PlacementCase{"static_relink",
                      [](sim::ExecutionPlan &plan) {
                          plan.options.adaptiveRelink = false;
                      }}),
    [](const testing::TestParamInfo<PlacementCase> &info) {
        return info.param.name;
    });

TEST(PlacementMemoCount, SweepSharesPrefixesAndSnapshotZero)
{
    // The four accelerators whose mapping does not depend on T place a
    // T=16 point's first eight snapshots from its T=8 sibling (and the
    // reverse), and snapshot 0 from the previous dissimilarity's
    // point. DiTile's mapping follows T and the graph: it never hits.
    const std::vector<std::string> t_free = {"ReaDy", "DGNN-Booster",
                                             "RACE", "MEGA"};
    for (const auto &order : {std::vector<SnapshotId>{8, 16},
                              std::vector<SnapshotId>{16, 8}}) {
        SCOPED_TRACE(testing::Message() << "first T=" << order[0]);
        for (const PointHits &point :
             runSweep(order, [](sim::ExecutionPlan &) {})) {
            SCOPED_TRACE(testing::Message()
                         << "dis=" << point.dis << " T=" << point.snapshots
                         << " " << point.accelerator);
            const bool first_point =
                point.dis == kSweepDis[0] && point.snapshots == order[0];
            std::uint64_t want = 0;
            if (std::find(t_free.begin(), t_free.end(),
                          point.accelerator) != t_free.end()) {
                if (point.snapshots != order[0])
                    want = 8;
                else if (!first_point)
                    want = 1;
            }
            EXPECT_EQ(point.hits, want);
        }
    }
}

/** The plan of `accel` for `dg`, and its cache-free run. */
struct KeyBase
{
    sim::ExecutionPlan plan;
    std::string coldRun;
};

KeyBase
keyBase(const graph::DynamicGraph &dg, const std::string &accel)
{
    KeyBase base;
    base.plan = core::makeAccelerator(accel)->plan(dg, model::DgnnConfig{});
    base.coldRun = render(sim::executePlan(dg, base.plan));
    return base;
}

/** `changed` run through a cache that already placed `base`: equals
 *  its cache-free run, which differs from the base run. */
void
expectKeyed(const graph::DynamicGraph &base_dg, const KeyBase &base,
            const graph::DynamicGraph &dg,
            const sim::ExecutionPlan &changed)
{
    sim::PlanCache cache;
    EXPECT_EQ(render(sim::executePlan(base_dg, base.plan, &cache)),
              base.coldRun);
    const std::string cold = render(sim::executePlan(dg, changed));
    ASSERT_NE(cold, base.coldRun) << "the change does not show";
    EXPECT_EQ(render(sim::executePlan(dg, changed, &cache)), cold);
}

TEST(PlacementMemoKey, ColumnPairIsKeyed)
{
    // One column for every snapshot: no temporal boundary traffic.
    const auto dg = sweepWorkload(0.06, 6);
    const KeyBase base = keyBase(dg, "ready");
    auto changed = base.plan;
    std::fill(changed.mapping.snapshotColumn.begin(),
              changed.mapping.snapshotColumn.end(), 0);
    expectKeyed(dg, base, dg, changed);
}

TEST(PlacementMemoKey, SnapshotVertexSetsAreKeyed)
{
    // Snapshot 2's layer sets shifted by one vertex id: the same sizes
    // and counts, other vertices.
    const auto dg = sweepWorkload(0.06, 6);
    const KeyBase base = keyBase(dg, "race");
    auto plans = *base.plan.snapshots;
    const auto n = dg.numVertices();
    for (model::LayerWork &layer : plans[2].gcn) {
        ASSERT_FALSE(layer.vertices.isAll());
        std::vector<VertexId> ids;
        layer.vertices.forEach(
            [&](VertexId v) { ids.push_back((v + 1) % n); });
        std::sort(ids.begin(), ids.end());
        layer.vertices = model::VertexSet(std::move(ids), n);
    }
    auto changed = base.plan;
    changed.snapshots =
        std::make_shared<const sim::PlanCache::SnapshotPlans>(plans);
    expectKeyed(dg, base, dg, changed);
}

TEST(PlacementMemoKey, PreviousSnapshotIsKeyedUnderFaults)
{
    // Another snapshot 0 before the same snapshot 1: its loads re-deal
    // the dead row differently, and snapshot 1's boundary reads that.
    const auto dg = sweepWorkload(0.06, 3);
    graph::EvolutionConfig other_config;
    other_config.numVertices = dg.numVertices();
    other_config.numEdges = 4800;
    other_config.numSnapshots = 1;
    other_config.featureDim = dg.featureDim();
    other_config.seed = 77;
    const auto other = graph::generateDynamicGraph(other_config);
    std::vector<std::shared_ptr<const graph::Csr>> snapshots = {
        other.sharedSnapshot(0), dg.sharedSnapshot(1),
        dg.sharedSnapshot(2)};
    const graph::DynamicGraph swapped(dg.name(), std::move(snapshots),
                                      {dg.delta(1), dg.delta(2)},
                                      dg.featureDim());
    ASSERT_EQ(swapped.snapshotKey(1), dg.snapshotKey(1));
    ASSERT_NE(swapped.prefixKey(1), dg.prefixKey(1));

    KeyBase base;
    base.plan = core::makeAccelerator("ready")->plan(dg, model::DgnnConfig{});
    base.plan.faults = sim::FaultSpec::parse("tile@0:r3c*");
    base.coldRun = render(sim::executePlan(dg, base.plan));
    expectKeyed(dg, base, swapped, base.plan);
    // Snapshot 1 places differently behind the other snapshot 0.
    ASSERT_NE(sim::executePlan(swapped, base.plan).trace[1].temporalCommCycles,
              sim::executePlan(dg, base.plan).trace[1].temporalCommCycles);
}

TEST(PlacementMemoKey, PartitionIsKeyed)
{
    // Every vertex of row 0 moved to row 1.
    const auto dg = sweepWorkload(0.06, 6);
    const KeyBase base = keyBase(dg, "mega");
    auto changed = base.plan;
    auto &partition = changed.mapping.spatialOnly
        ? changed.mapping.tilePartition
        : changed.mapping.rowPartition;
    for (VertexId v = 0; v < dg.numVertices(); ++v) {
        if (partition.owner(v) == 0)
            partition.assign(v, 1);
    }
    expectKeyed(dg, base, dg, changed);
}

} // namespace
} // namespace ditile
