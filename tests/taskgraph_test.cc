/**
 * @file
 * Tests for the task-graph overlap engine: scheduler invariants
 * (makespan bounds, lane exclusivity, critical-path chaining), the
 * overlap-never-slower-than-staged guarantee on fault-free runs,
 * cross-thread bit-identity of overlap schedules (including degraded
 * faulted plans), the staged DAG against the legacy barrier formulas,
 * and plan-JSON format-2 serialization of the graph.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/fault_model.hh"
#include "sim/scheduler.hh"
#include "sim/task_graph.hh"

namespace ditile {
namespace {

graph::DynamicGraph
taskWorkload()
{
    graph::EvolutionConfig config;
    config.numVertices = 1200;
    config.numEdges = 9600;
    config.numSnapshots = 8;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 11;
    return graph::generateDynamicGraph(config);
}

std::vector<std::unique_ptr<sim::Accelerator>>
fullFleet()
{
    std::vector<std::unique_ptr<sim::Accelerator>> fleet;
    fleet.push_back(sim::makeReady());
    fleet.push_back(sim::makeDgnnBooster());
    fleet.push_back(sim::makeRace());
    fleet.push_back(sim::makeMega());
    fleet.push_back(std::make_unique<core::DiTileAccelerator>());
    return fleet;
}

sim::RunResult
runMode(sim::Accelerator &accel, const graph::DynamicGraph &dg,
        bool overlap)
{
    const model::DgnnConfig mconfig;
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = overlap;
    return sim::executePlan(dg, plan);
}

/** The scheduled task records of one run, grouped per lane name. */
std::map<std::string, std::vector<sim::TaskGraphStats::Task>>
tasksByLane(const sim::RunResult &r)
{
    std::map<std::string, std::vector<sim::TaskGraphStats::Task>> lanes;
    for (const auto &task : r.taskGraph.tasks)
        lanes[task.lane].push_back(task);
    return lanes;
}

// ---------------------------------------------------------------------
// Overlap vs staged: the DAG only relaxes staged barriers, so on a
// fault-free plan the scheduled makespan can never exceed the staged
// end-to-end time — per accelerator family and per snapshot milestone.
// ---------------------------------------------------------------------

TEST(TaskGraphOverlap, NeverSlowerThanStagedOnAnyAccelerator)
{
    const auto dg = taskWorkload();
    for (auto &accel : fullFleet()) {
        const auto staged = runMode(*accel, dg, false);
        const auto overlap = runMode(*accel, dg, true);
        SCOPED_TRACE(staged.acceleratorName);
        // Both timelines report the schedule they ran.
        EXPECT_EQ(staged.taskGraph.makespan, staged.totalCycles);
        EXPECT_EQ(overlap.taskGraph.makespan, overlap.totalCycles);
        EXPECT_LE(overlap.totalCycles, staged.totalCycles);
        // Everything that is not timeline-derived is mode-invariant.
        EXPECT_EQ(overlap.ops.totalArithmetic(),
                  staged.ops.totalArithmetic());
        EXPECT_EQ(overlap.dramTraffic.total(),
                  staged.dramTraffic.total());
        EXPECT_EQ(overlap.nocBytes, staged.nocBytes);
        EXPECT_EQ(overlap.configCycles, staged.configCycles);
        ASSERT_EQ(overlap.trace.size(), staged.trace.size());
        for (std::size_t t = 0; t < overlap.trace.size(); ++t) {
            EXPECT_LE(overlap.trace[t].gnnDone, staged.trace[t].gnnDone)
                << "snapshot " << t;
            EXPECT_LE(overlap.trace[t].rnnDone, staged.trace[t].rnnDone)
                << "snapshot " << t;
        }
    }
}

// ---------------------------------------------------------------------
// Schedule invariants on the reported task records.
// ---------------------------------------------------------------------

TEST(TaskGraphSchedule, MakespanIsLastFinishAndRespectsChainBounds)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    const auto r = runMode(accel, dg, true);
    ASSERT_GT(r.taskGraph.numTasks, 0u);
    ASSERT_EQ(r.taskGraph.tasks.size(), r.taskGraph.numTasks);

    Cycle last_finish = 0;
    Cycle rnn_chain = 0;
    Cycle dram_chain = 0;
    Cycle relink_chain = 0;
    for (const auto &task : r.taskGraph.tasks) {
        EXPECT_LE(task.start, task.finish) << "task " << task.id;
        last_finish = std::max(last_finish, task.finish);
        const Cycle duration = task.finish - task.start;
        if (task.kind == "rnn")
            rnn_chain += duration;
        else if (task.kind == "dram")
            dram_chain += duration;
        else if (task.kind == "relink")
            relink_chain += duration;
    }
    EXPECT_EQ(r.taskGraph.makespan, last_finish);
    EXPECT_EQ(r.taskGraph.makespan, r.totalCycles);
    // The builder chains rnn[t-1]->rnn[t], dram[t-1]->dram[t] and
    // relink[t-1]->relink[t], so each kind's summed duration bounds
    // the makespan from below — the longest chain wins.
    EXPECT_GE(r.taskGraph.makespan, rnn_chain);
    EXPECT_GE(r.taskGraph.makespan, dram_chain);
    EXPECT_GE(r.taskGraph.makespan, relink_chain);
    EXPECT_GT(relink_chain, 0u); // T * perSnapshotConfigCycles.
}

TEST(TaskGraphSchedule, LanesNeverRunTwoTasksAtOnce)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    const auto r = runMode(accel, dg, true);
    ASSERT_GT(r.taskGraph.numTasks, 0u);
    for (auto &[lane, tasks] : tasksByLane(r)) {
        auto sorted = tasks;
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.start < b.start;
                  });
        for (std::size_t i = 1; i < sorted.size(); ++i) {
            EXPECT_LE(sorted[i - 1].finish, sorted[i].start)
                << "lane " << lane << " tasks " << sorted[i - 1].id
                << " and " << sorted[i].id;
        }
    }
    // Lane usage totals match the task records.
    std::uint64_t lane_tasks = 0;
    for (const auto &lane : r.taskGraph.lanes)
        lane_tasks += lane.tasks;
    EXPECT_EQ(lane_tasks, r.taskGraph.numTasks);
}

TEST(TaskGraphSchedule, CriticalPathIsAGaplessChainToMakespan)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    const auto r = runMode(accel, dg, true);
    ASSERT_GT(r.taskGraph.numTasks, 0u);
    std::vector<sim::TaskGraphStats::Task> critical;
    for (const auto &task : r.taskGraph.tasks)
        if (task.critical)
            critical.push_back(task);
    ASSERT_FALSE(critical.empty());
    std::sort(critical.begin(), critical.end(),
              [](const auto &a, const auto &b) {
                  return a.start < b.start;
              });
    // Each critical task starts exactly when its binding predecessor
    // finished; the chain spans cycle 0 through the makespan.
    EXPECT_EQ(critical.front().start, 0u);
    EXPECT_EQ(critical.back().finish, r.taskGraph.makespan);
    for (std::size_t i = 1; i < critical.size(); ++i) {
        EXPECT_EQ(critical[i - 1].finish, critical[i].start)
            << "critical step " << i;
    }
}

// ---------------------------------------------------------------------
// Determinism: the overlap schedule is a pure function of the plan at
// any thread width, healthy or degraded.
// ---------------------------------------------------------------------

void
expectSameSchedule(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    ASSERT_EQ(a.taskGraph.numTasks, b.taskGraph.numTasks);
    EXPECT_EQ(a.taskGraph.makespan, b.taskGraph.makespan);
    EXPECT_EQ(a.taskGraph.numEdges, b.taskGraph.numEdges);
    ASSERT_EQ(a.taskGraph.tasks.size(), b.taskGraph.tasks.size());
    for (std::size_t i = 0; i < a.taskGraph.tasks.size(); ++i) {
        const auto &ta = a.taskGraph.tasks[i];
        const auto &tb = b.taskGraph.tasks[i];
        EXPECT_EQ(ta.id, tb.id);
        EXPECT_EQ(ta.kind, tb.kind);
        EXPECT_EQ(ta.snapshot, tb.snapshot);
        EXPECT_EQ(ta.lane, tb.lane);
        EXPECT_EQ(ta.start, tb.start) << "task " << ta.id;
        EXPECT_EQ(ta.finish, tb.finish) << "task " << ta.id;
        EXPECT_EQ(ta.critical, tb.critical) << "task " << ta.id;
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t t = 0; t < a.trace.size(); ++t) {
        EXPECT_EQ(a.trace[t].gnnDone, b.trace[t].gnnDone);
        EXPECT_EQ(a.trace[t].rnnDone, b.trace[t].rnnDone);
    }
}

TEST(TaskGraphDeterminism, OverlapIdenticalAcrossThreadCounts)
{
    const auto dg = taskWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    ThreadPool::setGlobalThreads(1);
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = true;
    const auto serial = sim::executePlan(dg, plan);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        expectSameSchedule(serial, sim::executePlan(dg, plan));
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(TaskGraphDeterminism, FaultedOverlapIdenticalAcrossThreadCounts)
{
    const auto dg = taskWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    ThreadPool::setGlobalThreads(1);
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = true;
    plan.faults = sim::FaultSpec::parse(
        "tile@1:r3c*;tile@4:r7c2;hlink@0:r2c2;vlink@0:r1c2;"
        "bypass-open@2:c5;dram@3:ch*;seed=5");
    const auto serial = sim::executePlan(dg, plan);
    EXPECT_TRUE(serial.resilience.enabled);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        expectSameSchedule(serial, sim::executePlan(dg, plan));
    }
    ThreadPool::setGlobalThreads(1);
}

// ---------------------------------------------------------------------
// Structural-graph unit coverage, independent of the engine.
// ---------------------------------------------------------------------

TEST(TaskGraphBuild, SnapshotMajorIdsAndAlwaysPresentRelink)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    const auto plan = accel.plan(dg, model::DgnnConfig{});
    const auto g = sim::buildTaskGraph(plan);
    ASSERT_EQ(g.bySnapshot.size(),
              static_cast<std::size_t>(plan.numSnapshots()));
    int prev_id = -1;
    for (const auto &st : g.bySnapshot) {
        // Ids ascend snapshot-major; dram opens and relink closes
        // every snapshot's block.
        ASSERT_GE(st.dram, 0);
        ASSERT_GE(st.relink, 0);
        EXPECT_GT(st.dram, prev_id);
        EXPECT_GT(st.gnn, st.dram);
        EXPECT_GT(st.relink, st.rnn);
        prev_id = st.relink;
    }
    for (const auto &[src, dst] : g.edges) {
        ASSERT_GE(src, 0);
        ASSERT_LT(dst, static_cast<int>(g.nodes.size()));
        EXPECT_LT(src, dst) << "edges must point forward in id order";
    }
}

TEST(TaskGraphBuild, SchedulerHonorsDurationsOnHandBuiltGraph)
{
    // Two lanes, three tasks: a->c dependency across lanes, b sharing
    // a's lane. The lane serializes a and b; c waits for a.
    sim::TaskGraph g;
    const int lane0 = g.addLane(sim::LaneKind::TileColumn, 0);
    const int lane1 = g.addLane(sim::LaneKind::NocColumn, 0);
    const int a = g.addTask(sim::TaskKind::GnnCompute, 0, lane0);
    const int b = g.addTask(sim::TaskKind::GnnCompute, 1, lane0);
    const int c = g.addTask(sim::TaskKind::SpatialComm, 0, lane1);
    g.addDep(a, c);
    g.nodes[static_cast<std::size_t>(a)].duration = 10;
    g.nodes[static_cast<std::size_t>(b)].duration = 5;
    g.nodes[static_cast<std::size_t>(c)].duration = 7;
    const auto s = sim::scheduleTaskGraph(g);
    EXPECT_EQ(s.tasks[static_cast<std::size_t>(a)].start, 0u);
    EXPECT_EQ(s.tasks[static_cast<std::size_t>(b)].start, 10u);
    EXPECT_EQ(s.tasks[static_cast<std::size_t>(c)].start, 10u);
    EXPECT_EQ(s.makespan, 17u);
    EXPECT_EQ(s.lanes[static_cast<std::size_t>(lane0)].tasks, 2u);
    EXPECT_EQ(s.lanes[static_cast<std::size_t>(lane0)].busyCycles, 15u);
    EXPECT_EQ(s.lanes[static_cast<std::size_t>(lane1)].busyCycles, 7u);
    // Critical path: a (binding dep of c) then c.
    ASSERT_EQ(s.criticalPath.size(), 2u);
    EXPECT_EQ(s.criticalPath[0], a);
    EXPECT_EQ(s.criticalPath[1], c);
}

// ---------------------------------------------------------------------
// Staged timeline oracle: the staged DAG (overlap off) scheduled over
// random per-snapshot durations must reproduce the legacy barrier
// formulas it replaced, milestone for milestone.
// ---------------------------------------------------------------------

/** One snapshot sequence's placement and per-task durations. */
struct StagedCase
{
    bool spatialOnly = false;
    bool globalGnnBarrier = false;
    int tileCols = 1;
    std::vector<int> column;       ///< Snapshot -> column.
    std::vector<Cycle> dramDone;   ///< Cumulative, non-decreasing.
    std::vector<Cycle> gnn, spatial, temporal, rnn;
    Cycle perSnapshotConfig = 0;

    SnapshotId
    snapshots() const
    {
        return static_cast<SnapshotId>(column.size());
    }
};

struct Timeline
{
    std::vector<Cycle> gnnDone, rnnDone;
    Cycle total = 0;
};

/**
 * The hand-written staged timeline the engine used before the task
 * graph became its only scheduler, kept as the reference model.
 */
Timeline
stagedReference(const StagedCase &c)
{
    const SnapshotId n = c.snapshots();
    Timeline out;
    out.gnnDone.resize(static_cast<std::size_t>(n));
    out.rnnDone.resize(static_cast<std::size_t>(n));
    const Cycle config =
        static_cast<Cycle>(n) * c.perSnapshotConfig;
    if (c.spatialOnly) {
        // Snapshots run sequentially over the whole grid: GNN compute
        // overlaps spatial communication, then the local RNN phase.
        Cycle prev_done = 0;
        for (SnapshotId t = 0; t < n; ++t) {
            const auto i = static_cast<std::size_t>(t);
            const Cycle gnn_done = std::max(
                prev_done + std::max(c.gnn[i], c.spatial[i]),
                c.dramDone[i]);
            const Cycle done = gnn_done + c.rnn[i];
            out.gnnDone[i] = gnn_done;
            out.rnnDone[i] = done;
            prev_done = done;
        }
        out.total = prev_done + config;
        return out;
    }
    // Pass 1: GNN phases with column occupancy and DRAM gating.
    std::vector<Cycle> col_free(static_cast<std::size_t>(c.tileCols), 0);
    for (SnapshotId t = 0; t < n; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const auto col = static_cast<std::size_t>(c.column[i]);
        const Cycle done = std::max(
            col_free[col] + std::max(c.gnn[i], c.spatial[i]),
            c.dramDone[i]);
        out.gnnDone[i] = done;
        col_free[col] = done;
    }
    // Pass 2: the RNN chain (temporal dependency across snapshots).
    Cycle barrier = 0;
    if (c.globalGnnBarrier) {
        for (const Cycle d : out.gnnDone)
            barrier = std::max(barrier, d);
    }
    Cycle last_done = 0;
    Cycle rnn_prev = 0;
    for (SnapshotId t = 0; t < n; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const Cycle start = std::max(
            {out.gnnDone[i], barrier, rnn_prev + c.temporal[i]});
        const Cycle done = start + c.rnn[i];
        out.rnnDone[i] = done;
        rnn_prev = done;
        last_done = std::max(last_done, done);
    }
    out.total = last_done + config;
    return out;
}

/** A plan carrying just what buildTaskGraph reads. */
sim::ExecutionPlan
stagedPlan(const StagedCase &c)
{
    sim::ExecutionPlan plan;
    plan.mapping.spatialOnly = c.spatialOnly;
    plan.mapping.snapshotColumn = c.column;
    plan.options.globalGnnBarrier = c.globalGnnBarrier;
    plan.options.overlap = false;
    plan.snapshots = std::make_shared<std::vector<model::SnapshotPlan>>(
        c.column.size());
    return plan;
}

/** The staged DAG, annotated the way executePlan annotates it. */
Timeline
stagedDag(const StagedCase &c, sim::TaskGraph *graph_out = nullptr)
{
    const SnapshotId n = c.snapshots();
    sim::TaskGraph g = sim::buildTaskGraph(stagedPlan(c));
    auto node = [&](int id) -> sim::TaskNode & {
        return g.nodes[static_cast<std::size_t>(id)];
    };
    for (SnapshotId t = 0; t < n; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const auto &st = g.bySnapshot[i];
        node(st.dram).duration =
            c.dramDone[i] - (t > 0 ? c.dramDone[i - 1] : 0);
        node(st.gnn).duration = c.gnn[i];
        node(st.spatial).duration = c.spatial[i];
        if (st.temporal != -1)
            node(st.temporal).duration = c.temporal[i];
        node(st.rnn).duration = c.rnn[i];
        if (t + 1 == n) {
            node(st.relink).duration =
                static_cast<Cycle>(n) * c.perSnapshotConfig;
        }
    }
    const auto sched = sim::scheduleTaskGraph(g);
    Timeline out;
    for (SnapshotId t = 0; t < n; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const auto &st = g.bySnapshot[i];
        auto finish = [&](int id) {
            return sched.tasks[static_cast<std::size_t>(id)].finish;
        };
        out.gnnDone.push_back(std::max(
            {finish(st.gnn), finish(st.spatial), c.dramDone[i]}));
        out.rnnDone.push_back(finish(st.rnn));
    }
    out.total = sched.makespan;
    if (graph_out)
        *graph_out = std::move(g);
    return out;
}

/**
 * Random placement and durations. Columns come from a small grid so
 * they repeat; DRAM-bound cases stream far longer than they compute
 * and compute-bound ones the reverse, so both sides of every max()
 * in the reference bind somewhere.
 */
StagedCase
randomStagedCase(Rng &rng)
{
    StagedCase c;
    c.spatialOnly = rng.bernoulli(0.25);
    c.globalGnnBarrier = !c.spatialOnly && rng.bernoulli(0.3);
    c.tileCols = static_cast<int>(rng.uniformInt(1, 5));
    const auto n = static_cast<std::size_t>(rng.uniformInt(0, 24));
    const bool wrap = rng.bernoulli(0.5);
    const bool dram_bound = rng.bernoulli(0.5);
    const Cycle dram_max = dram_bound ? 4000 : 300;
    const Cycle compute_max = dram_bound ? 300 : 4000;
    auto draw = [&](Cycle hi) {
        // One draw in eight is zero: empty phases are legal.
        return rng.bernoulli(0.125)
            ? Cycle{0}
            : static_cast<Cycle>(rng.uniformInt(
                  1, static_cast<std::int64_t>(hi)));
    };
    Cycle dram = 0;
    for (std::size_t i = 0; i < n; ++i) {
        c.column.push_back(
            c.spatialOnly ? 0
            : wrap ? static_cast<int>(i % static_cast<std::size_t>(
                                              c.tileCols))
                   : static_cast<int>(rng.uniformInt(0, c.tileCols - 1)));
        dram += draw(dram_max);
        c.dramDone.push_back(dram);
        c.gnn.push_back(draw(compute_max));
        c.spatial.push_back(draw(compute_max));
        c.rnn.push_back(draw(compute_max / 2));
        // Temporal traffic exists only where the column changes.
        const bool boundary =
            !c.spatialOnly && i > 0 && c.column[i] != c.column[i - 1];
        c.temporal.push_back(boundary ? draw(compute_max / 2) : 0);
    }
    c.perSnapshotConfig = static_cast<Cycle>(rng.uniformInt(0, 64));
    return c;
}

void
expectSameTimeline(const Timeline &want, const Timeline &got)
{
    ASSERT_EQ(want.gnnDone.size(), got.gnnDone.size());
    for (std::size_t i = 0; i < want.gnnDone.size(); ++i) {
        ASSERT_EQ(want.gnnDone[i], got.gnnDone[i]) << "snapshot " << i;
        ASSERT_EQ(want.rnnDone[i], got.rnnDone[i]) << "snapshot " << i;
    }
    ASSERT_EQ(want.total, got.total);
}

TEST(StagedTimelineOracle, DagMatchesLegacyFormulasOnRandomDurations)
{
    constexpr int kCases = 5000;
    std::uint64_t column_chain_binds = 0;
    std::uint64_t barrier_cases = 0;
    std::uint64_t spatial_only_cases = 0;
    for (int k = 0; k < kCases; ++k) {
        Rng rng(0x5eed0000ull + static_cast<std::uint64_t>(k));
        const StagedCase c = randomStagedCase(rng);
        SCOPED_TRACE(testing::Message() << "case " << k);
        sim::TaskGraph g;
        const Timeline dag = stagedDag(c, &g);
        const Timeline ref = stagedReference(c);
        expectSameTimeline(ref, dag);
        if (HasFatalFailure())
            return;

        // Without the global barrier every edge points forward.
        if (!c.globalGnnBarrier) {
            for (const auto &[src, dst] : g.edges)
                ASSERT_LT(src, dst) << "edge " << src << "->" << dst;
        }
        barrier_cases += c.globalGnnBarrier ? 1 : 0;
        spatial_only_cases += c.spatialOnly ? 1 : 0;
        // Count snapshots whose GNN phase the column predecessor (not
        // the DRAM stream) held back: the case the chain edges model.
        if (!c.spatialOnly) {
            std::vector<Cycle> col_free(
                static_cast<std::size_t>(c.tileCols), 0);
            for (std::size_t i = 0; i < c.column.size(); ++i) {
                const auto col = static_cast<std::size_t>(c.column[i]);
                if (col_free[col] > 0 &&
                    col_free[col] + std::max(c.gnn[i], c.spatial[i]) >
                        c.dramDone[i])
                    ++column_chain_binds;
                col_free[col] = ref.gnnDone[i];
            }
        }
    }
    // The sample really exercises every staged rule.
    EXPECT_GT(column_chain_binds, 10000u);
    EXPECT_GT(barrier_cases, 500u);
    EXPECT_GT(spatial_only_cases, 500u);
}

TEST(StagedTimelineOracle, EmptyAndSingleSnapshotRuns)
{
    for (const bool spatial_only : {false, true}) {
        SCOPED_TRACE(spatial_only ? "spatial-only" : "temporal");
        StagedCase empty;
        empty.spatialOnly = spatial_only;
        empty.perSnapshotConfig = 7;
        const Timeline none = stagedDag(empty);
        EXPECT_TRUE(none.gnnDone.empty());
        EXPECT_EQ(none.total, 0u);
        expectSameTimeline(stagedReference(empty), none);

        StagedCase one = empty;
        one.column = {0};
        one.dramDone = {500};
        one.gnn = {120};
        one.spatial = {80};
        one.temporal = {0};
        one.rnn = {40};
        const Timeline single = stagedDag(one);
        expectSameTimeline(stagedReference(one), single);
        // DRAM-gated GNN, then RNN, then the 1 x 7 config tail.
        EXPECT_EQ(single.total, 500u + 40u + 7u);
    }
}

TEST(StagedTimelineOracle, StagedGraphExtendsOverlapGraphOnEveryAccelerator)
{
    // 20 snapshots on a 16-column grid: DiTile's columns wrap, so the
    // column-chain edges are present alongside the config tail.
    graph::EvolutionConfig config;
    config.numVertices = 400;
    config.numEdges = 2400;
    config.numSnapshots = 20;
    config.dissimilarity = 0.1;
    config.featureDim = 32;
    config.seed = 5;
    const auto dg = graph::generateDynamicGraph(config);
    bool any_column_chain = false;
    for (auto &accel : fullFleet()) {
        SCOPED_TRACE(accel->name());
        auto plan = accel->plan(dg, model::DgnnConfig{});
        plan.options.overlap = true;
        const auto overlap = sim::buildTaskGraph(plan);
        plan.options.overlap = false;
        const auto staged = sim::buildTaskGraph(plan);

        ASSERT_EQ(staged.lanes.size(), overlap.lanes.size());
        for (std::size_t i = 0; i < staged.lanes.size(); ++i)
            EXPECT_EQ(staged.lanes[i].name(), overlap.lanes[i].name());
        ASSERT_EQ(staged.nodes.size(), overlap.nodes.size());
        for (std::size_t i = 0; i < staged.nodes.size(); ++i) {
            EXPECT_EQ(staged.nodes[i].kind, overlap.nodes[i].kind);
            EXPECT_EQ(staged.nodes[i].snapshot,
                      overlap.nodes[i].snapshot);
            EXPECT_EQ(staged.nodes[i].lane, overlap.nodes[i].lane);
        }
        auto sorted = [](std::vector<std::pair<int, int>> e) {
            std::sort(e.begin(), e.end());
            return e;
        };
        const auto se = sorted(staged.edges);
        const auto oe = sorted(overlap.edges);
        EXPECT_TRUE(std::includes(se.begin(), se.end(), oe.begin(),
                                  oe.end()))
            << "staged edges must be a superset of the overlap edges";
        // At least the config-tail edge is staged-only.
        EXPECT_GT(se.size(), oe.size());
        for (const auto &[src, dst] : se) {
            if (staged.nodes[static_cast<std::size_t>(src)].kind ==
                    sim::TaskKind::GnnCompute &&
                staged.nodes[static_cast<std::size_t>(dst)].kind ==
                    sim::TaskKind::GnnCompute)
                any_column_chain = true;
        }
    }
    EXPECT_TRUE(any_column_chain);
}

// ---------------------------------------------------------------------
// Plan JSON format 2: the serialized task graph and back-compat.
// ---------------------------------------------------------------------

TEST(TaskGraphJson, Format2EmbedsGraphAndRoundTripsByteStable)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, model::DgnnConfig{});
    plan.options.overlap = true;
    const std::string json = plan.toJson();
    EXPECT_NE(json.find("\"plan_format\":2"), std::string::npos);
    EXPECT_NE(json.find("\"overlap\":true"), std::string::npos);
    EXPECT_NE(json.find("\"task_graph\":"), std::string::npos);
    const auto parsed = sim::ExecutionPlan::fromJson(json);
    EXPECT_TRUE(parsed.options.overlap);
    EXPECT_EQ(parsed.toJson(), json);
    EXPECT_EQ(parsed.contentHash(), plan.contentHash());

    // The embedded section mirrors buildTaskGraph on the same plan.
    const auto g = sim::buildTaskGraph(plan);
    EXPECT_NE(json.find("\"edges\":["), std::string::npos);
    for (const auto &lane : g.lanes) {
        std::string quoted = "\"";
        quoted += lane.name();
        quoted += '"';
        EXPECT_NE(json.find(quoted), std::string::npos) << lane.name();
    }
}

TEST(TaskGraphJson, Format1DocumentsLoadWithOverlapOff)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, model::DgnnConfig{});
    plan.options.overlap = true;
    std::string json = plan.toJson();

    // Surgically rewrite the document to what a format-1 writer would
    // have produced: no format-2 keys at all.
    auto erase_span = [&](std::size_t from, std::size_t to) {
        json.erase(from, to - from);
    };
    const auto fmt = json.find("\"plan_format\":2");
    ASSERT_NE(fmt, std::string::npos);
    json.replace(fmt, std::string("\"plan_format\":2").size(),
                 "\"plan_format\":1");
    const auto ov = json.find(",\"overlap\":true");
    ASSERT_NE(ov, std::string::npos);
    erase_span(ov, ov + std::string(",\"overlap\":true").size());
    const auto tg = json.find(",\"task_graph\":{");
    ASSERT_NE(tg, std::string::npos);
    // The section holds no nested objects-in-strings; scan to its
    // matching close brace.
    std::size_t depth = 0;
    std::size_t end = json.find('{', tg);
    for (; end < json.size(); ++end) {
        if (json[end] == '{')
            ++depth;
        else if (json[end] == '}' && --depth == 0)
            break;
    }
    ASSERT_LT(end, json.size());
    erase_span(tg, end + 1);

    const auto parsed = sim::ExecutionPlan::fromJson(json);
    EXPECT_FALSE(parsed.options.overlap);
    // Timing-relevant content survives: re-executing the degraded
    // document matches the original plan run with overlap off.
    auto staged = plan;
    staged.options.overlap = false;
    EXPECT_EQ(sim::executePlan(dg, parsed).totalCycles,
              sim::executePlan(dg, staged).totalCycles);
}

} // namespace
} // namespace ditile
