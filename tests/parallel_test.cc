/**
 * @file
 * Tests for the parallel execution layer: thread-pool semantics
 * (exception propagation, nested regions, shutdown draining) and the
 * engine's determinism guarantee — any --threads width must produce
 * bit-identical RunResults.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/scratch_lease.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "sim/baselines.hh"
#include "sim/plan_cache.hh"
#include "workload/digest.hh"

namespace ditile {
namespace {

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.async([&counter, i] {
            counter.fetch_add(1);
            return i * i;
        }));
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
    }
    // The pool must not drop work on shutdown.
    EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, AsyncExceptionReachesFuture)
{
    ThreadPool pool(2);
    auto future = pool.async(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 10000;
    std::vector<int> hits(n, 0);
    parallelFor(n, [&](std::size_t i) { ++hits[i]; }, &pool);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, PropagatesBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        parallelFor(256, [](std::size_t i) {
            if (i == 97)
                throw std::runtime_error("index 97");
        }, &pool),
        std::runtime_error);
}

TEST(ParallelFor, NestedRegionsComplete)
{
    ThreadPool pool(3);
    constexpr std::size_t outer = 16;
    constexpr std::size_t inner = 32;
    std::vector<std::vector<int>> grid(
        outer, std::vector<int>(inner, 0));
    parallelFor(outer, [&](std::size_t o) {
        parallelFor(inner, [&](std::size_t i) {
            grid[o][i] = static_cast<int>(o * inner + i);
        }, &pool);
    }, &pool);
    for (std::size_t o = 0; o < outer; ++o)
        for (std::size_t i = 0; i < inner; ++i)
            ASSERT_EQ(grid[o][i], static_cast<int>(o * inner + i));
}

TEST(ParallelFor, SubmitFromWorkerDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    parallelFor(8, [&](std::size_t) {
        // A pool task enqueueing more pool work must not wedge the
        // region even when every worker is already busy in it.
        counter.fetch_add(1);
    }, &pool);
    for (int i = 0; i < 8; ++i) {
        futures.push_back(pool.async([&counter, &pool] {
            pool.submit([&counter] { counter.fetch_add(1); });
            counter.fetch_add(1);
        }));
    }
    for (auto &future : futures)
        future.get();
    // Submitted grandchildren drain at destruction at the latest.
}

TEST(ScratchLease, NestedLeasesOnOneThreadAreDistinct)
{
    struct Arena
    {
        int value = 0;
    };
    const Arena *outer_arena = nullptr;
    {
        const ScratchLease<Arena> outer;
        outer_arena = &*outer;
        const ScratchLease<Arena> inner;
        EXPECT_NE(&*inner, outer_arena);
        {
            const ScratchLease<Arena> innermost;
            EXPECT_NE(&*innermost, &*inner);
            EXPECT_NE(&*innermost, outer_arena);
        }
        // A re-entrant lease sees its own arena, never the holder's.
        outer->value = 1;
        inner->value = 2;
        EXPECT_EQ(outer->value, 1);
    }
    // Released arenas are reused, outermost first.
    const ScratchLease<Arena> again;
    EXPECT_EQ(&*again, outer_arena);
    EXPECT_EQ(again->value, 1);
    const Arena *other_thread = nullptr;
    std::thread([&other_thread] {
        const ScratchLease<Arena> lease;
        other_thread = &*lease;
    }).join();
    EXPECT_NE(other_thread, &*again);
}

TEST(ThreadPool, GlobalPoolResizes)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::globalThreads(), 3);
    EXPECT_EQ(ThreadPool::global().numThreads(), 3);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::global().numThreads(), 1);
}

// ---------------------------------------------------------------------
// Engine determinism across thread counts.
// ---------------------------------------------------------------------

graph::DynamicGraph
ctdgWorkload()
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

/** Field-by-field equality of two runs, with readable failures. */
void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.onChipCommCycles, b.onChipCommCycles);
    EXPECT_EQ(a.offChipCycles, b.offChipCycles);
    EXPECT_EQ(a.configCycles, b.configCycles);
    EXPECT_EQ(a.ops.totalMacs(), b.ops.totalMacs());
    EXPECT_EQ(a.ops.totalArithmetic(), b.ops.totalArithmetic());
    EXPECT_EQ(a.dramTraffic.total(), b.dramTraffic.total());
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_EQ(a.nocBytesSpatial, b.nocBytesSpatial);
    EXPECT_EQ(a.nocBytesTemporal, b.nocBytesTemporal);
    EXPECT_EQ(a.nocBytesReuse, b.nocBytesReuse);
    // Utilization and energy derive from integer totals through the
    // same expressions, so they must match to the last bit.
    EXPECT_EQ(a.peUtilization, b.peUtilization);
    EXPECT_EQ(a.energy.totalPj(), b.energy.totalPj());
    EXPECT_EQ(a.energyEvents.dramBytes, b.energyEvents.dramBytes);
    EXPECT_EQ(a.energyEvents.dramActivates,
              b.energyEvents.dramActivates);
    EXPECT_EQ(a.energyEvents.reconfigEvents,
              b.energyEvents.reconfigEvents);
    EXPECT_EQ(a.energyEvents.localBufferBytes,
              b.energyEvents.localBufferBytes);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const auto &ta = a.trace[i];
        const auto &tb = b.trace[i];
        EXPECT_EQ(ta.dramDone, tb.dramDone) << "snapshot " << i;
        EXPECT_EQ(ta.gnnComputeCycles, tb.gnnComputeCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.rnnComputeCycles, tb.rnnComputeCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.spatialCommCycles, tb.spatialCommCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.temporalCommCycles, tb.temporalCommCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.gnnDone, tb.gnnDone) << "snapshot " << i;
        EXPECT_EQ(ta.rnnDone, tb.rnnDone) << "snapshot " << i;
    }
}

/** Run one accelerator at a given global width. */
sim::RunResult
runAt(int threads, sim::Accelerator &accel,
      const graph::DynamicGraph &dg, const model::DgnnConfig &mconfig)
{
    ThreadPool::setGlobalThreads(threads);
    auto result = accel.run(dg, mconfig);
    ThreadPool::setGlobalThreads(1);
    return result;
}

TEST(EngineDeterminism, DiTileIdenticalAcrossThreadCounts)
{
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto serial = runAt(1, accel, dg, mconfig);
    for (int threads : {2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        expectIdentical(serial, runAt(threads, accel, dg, mconfig));
    }
}

TEST(EngineDeterminism, DetailedTileTimingIdentical)
{
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileOptions options;
    options.detailedTileTiming = true;
    core::DiTileAccelerator accel(sim::AcceleratorConfig::defaults(),
                                  options);
    const auto serial = runAt(1, accel, dg, mconfig);
    expectIdentical(serial, runAt(8, accel, dg, mconfig));
}

TEST(EngineDeterminism, DetailedTileTimingRepeatedIdentical)
{
    // Detailed timing nests a per-tile parallelFor inside each
    // snapshot's evaluation; a blocked caller helps with other pool
    // tasks, possibly another snapshot. Repeat the wide run so an
    // arena shared between the two would show up as a mismatch.
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileOptions options;
    options.detailedTileTiming = true;
    core::DiTileAccelerator accel(sim::AcceleratorConfig::defaults(),
                                  options);
    const auto serial = runAt(1, accel, dg, mconfig);
    for (int rep = 0; rep < 20 && !HasFailure(); ++rep) {
        SCOPED_TRACE(testing::Message() << "repetition " << rep);
        expectIdentical(serial, runAt(8, accel, dg, mconfig));
    }
}

TEST(EngineDeterminism, BaselinesIdenticalAcrossThreadCounts)
{
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    std::vector<std::unique_ptr<sim::Accelerator>> fleet;
    fleet.push_back(sim::makeReady());
    fleet.push_back(sim::makeDgnnBooster());
    fleet.push_back(sim::makeRace());
    fleet.push_back(sim::makeMega());
    for (auto &accel : fleet) {
        const auto serial = runAt(1, *accel, dg, mconfig);
        SCOPED_TRACE(serial.acceleratorName);
        expectIdentical(serial, runAt(8, *accel, dg, mconfig));
    }
}

// ---------------------------------------------------------------------
// Plan construction and plan execution are independently deterministic
// across thread counts (the plan/execute split must not smuggle a
// schedule dependence into either half).
// ---------------------------------------------------------------------

TEST(PlanDeterminism, ConstructionIdenticalAcrossThreadCounts)
{
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    ThreadPool::setGlobalThreads(1);
    const auto serial = accel.plan(dg, mconfig);
    const std::string serial_json = serial.toJson();
    for (int threads : {2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        const auto parallel = accel.plan(dg, mconfig);
        EXPECT_EQ(parallel.toJson(), serial_json);
        EXPECT_EQ(parallel.contentHash(), serial.contentHash());
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(PlanDeterminism, ExecutionOfOnePlanIdenticalAcrossThreadCounts)
{
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    ThreadPool::setGlobalThreads(1);
    // One frozen plan, replayed at every width: execution-side
    // parallelism alone is exercised (construction ran once).
    const auto plan = accel.plan(dg, mconfig);
    const auto serial = sim::executePlan(dg, plan);
    for (int threads : {2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        expectIdentical(serial, sim::executePlan(dg, plan));
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(PlanDeterminism, FaultedExecutionIdenticalAcrossThreadCounts)
{
    // Degraded-mode execution (tile re-deal, NoC reroutes, seeded
    // DRAM retries) must stay bit-identical at any width: all fault
    // state is pure per-snapshot data resolved before the parallel
    // stages.
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    ThreadPool::setGlobalThreads(1);
    auto plan = accel.plan(dg, mconfig);
    plan.faults = sim::FaultSpec::parse(
        "tile@1:r3c*;tile@4:r7c2;hlink@0:r2c2;vlink@0:r1c2;"
        "bypass-open@2:c5;dram@3:ch*;seed=5");
    const auto serial = sim::executePlan(dg, plan);
    EXPECT_TRUE(serial.resilience.enabled);
    EXPECT_GT(serial.resilience.remappedVertices, 0u);
    for (int threads : {2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        const auto parallel = sim::executePlan(dg, plan);
        expectIdentical(serial, parallel);
        EXPECT_EQ(serial.resilience.remappedVertices,
                  parallel.resilience.remappedVertices);
        EXPECT_EQ(serial.resilience.reroutedMessages,
                  parallel.resilience.reroutedMessages);
        EXPECT_EQ(serial.resilience.retriedMessages,
                  parallel.resilience.retriedMessages);
        EXPECT_EQ(serial.resilience.dramRetryRequests,
                  parallel.resilience.dramRetryRequests);
        EXPECT_EQ(serial.resilience.dramRetryCycles,
                  parallel.resilience.dramRetryCycles);
        EXPECT_EQ(serial.resilience.degradedCapacityFraction,
                  parallel.resilience.degradedCapacityFraction);
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(PlanDeterminism, OverlapExecutionIdenticalAcrossThreadCounts)
{
    // The task-graph scheduler consumes the parallel stages' outputs
    // from one serial priority queue, so overlap mode carries the same
    // any-width bit-identity guarantee as the staged timeline.
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    ThreadPool::setGlobalThreads(1);
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = true;
    const auto serial = sim::executePlan(dg, plan);
    EXPECT_GT(serial.taskGraph.numTasks, 0u);
    for (int threads : {2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        expectIdentical(serial, sim::executePlan(dg, plan));
    }
    ThreadPool::setGlobalThreads(1);
}

// ---------------------------------------------------------------------
// Cache stat accessors under concurrent traffic, and structured-trace
// determinism across thread widths.
// ---------------------------------------------------------------------

TEST(PlanCache, StatsAccessorsSafeUnderConcurrentObtain)
{
    // Hammer obtain() from the pool while another thread polls the
    // hit/miss/size accessors; under TSan this pins the lock coverage
    // of both sides (the counters and the entry map share one mutex).
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> polled{0};
    std::thread poller([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            polled.fetch_add(cache.hits() + cache.misses() +
                             cache.size());
        }
    });
    // Race and DiTile are layer-set siblings, so their misses also
    // race the derivation from a resident sibling.
    const model::AlgoKind algos[] = {model::AlgoKind::ReAlg,
                                     model::AlgoKind::RaceAlg,
                                     model::AlgoKind::DiTileAlg};
    ThreadPool::setGlobalThreads(8);
    parallelFor(64, [&](std::size_t i) {
        const auto algo = algos[i % 3];
        auto plans = cache.obtain(dg, mconfig, algo);
        EXPECT_NE(plans, nullptr);
        EXPECT_EQ(plans->size(),
                  static_cast<std::size_t>(dg.numSnapshots()));
    });
    stop.store(true);
    poller.join();
    ThreadPool::setGlobalThreads(1);
    // Every obtain() counted exactly once; racing first builds may
    // each count a miss, but the same key never misses after its
    // entry landed, so at most one extra build per algo survives.
    EXPECT_EQ(cache.hits() + cache.misses(), 64u);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_GE(cache.misses(), 3u);
}

TEST(SharedCache, RacingColdMissesShareOnePublishedValue)
{
    // Four workers look up one cold key at once. However many of them
    // miss and build, every caller gets the one published value, one
    // entry lands, and each lookup counts exactly once.
    constexpr std::size_t kWorkers = 4;
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache plans;
    workload::DigestCache digests;
    std::vector<std::shared_ptr<const sim::PlanCache::SnapshotPlans>>
        plan_sets(kWorkers);
    std::vector<std::shared_ptr<const workload::LoadDigest>> loads(
        kWorkers);
    ThreadPool::setGlobalThreads(kWorkers);
    parallelFor(kWorkers, [&](std::size_t i) {
        plan_sets[i] =
            plans.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
    });
    parallelFor(kWorkers, [&](std::size_t i) {
        loads[i] = digests.loads(dg, mconfig.numGcnLayers());
    });
    ThreadPool::setGlobalThreads(1);
    for (std::size_t i = 0; i < kWorkers; ++i) {
        EXPECT_EQ(plan_sets[i], plan_sets[0]) << i;
        EXPECT_EQ(loads[i], loads[0]) << i;
    }
    EXPECT_NE(plan_sets[0], nullptr);
    EXPECT_NE(loads[0], nullptr);
    EXPECT_EQ(plans.size(), 1u);
    EXPECT_EQ(plans.hits() + plans.misses(), kWorkers);
    EXPECT_GE(plans.misses(), 1u);
    EXPECT_EQ(digests.size(), 1u);
    EXPECT_EQ(digests.hits() + digests.misses(), kWorkers);
    EXPECT_GE(digests.misses(), 1u);
}

TEST(ConcurrentRunner, RacingInfersOnOneKeyAgreeAndMemoizeOnce)
{
    // The server never races one key (it groups batches by structure),
    // but a direct caller may: every racing miss executes and
    // publishes, the memo keeps one entry, and all callers agree.
    graph::EvolutionConfig config;
    config.numVertices = 160;
    config.numEdges = 640;
    config.numSnapshots = 3;
    config.featureDim = 8;
    config.seed = 5;
    const auto dg = graph::generateDynamicGraph(config);
    const model::DgnnConfig mconfig;
    sim::ConcurrentRunner runner([] {
        return std::unique_ptr<sim::Accelerator>(
            std::make_unique<core::DiTileAccelerator>());
    });
    std::vector<sim::QueryOutcome> outcomes(16);
    ThreadPool::setGlobalThreads(8);
    parallelFor(outcomes.size(), [&](std::size_t i) {
        outcomes[i] = runner.infer(dg, mconfig);
    });
    ThreadPool::setGlobalThreads(1);
    for (const sim::QueryOutcome &o : outcomes) {
        EXPECT_EQ(o.totalCycles, outcomes[0].totalCycles);
        EXPECT_EQ(o.ops, outcomes[0].ops);
        EXPECT_EQ(o.dramBytes, outcomes[0].dramBytes);
        EXPECT_EQ(o.nocBytes, outcomes[0].nocBytes);
    }
    EXPECT_GT(outcomes[0].totalCycles, 0u);
    EXPECT_EQ(runner.memoizedKeys(), 1u);
}

TEST(EngineDeterminism, ChromeTraceIdenticalAcrossThreadCounts)
{
    const auto dg = ctdgWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    auto capture = [&](int threads) {
        // The process-wide digest cache outlives runs; clear it so
        // every capture sees the same hit/miss sequence.
        workload::DigestCache::global().clear();
        sim::Tracer &tracer = sim::Tracer::global();
        tracer.reset();
        tracer.enable(true, true);
        sim::Tracer::setTrackBase(0);
        ThreadPool::setGlobalThreads(threads);
        accel.run(dg, mconfig);
        ThreadPool::setGlobalThreads(1);
        std::string out = tracer.toChromeJson();
        out += "\n-- metrics --\n";
        for (const auto &[name, value] : tracer.metrics())
            out += name + "=" + std::to_string(value) + "\n";
        tracer.reset();
        return out;
    };
    const std::string serial = capture(1);
    EXPECT_NE(serial.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(serial.find("engine.runs=1"), std::string::npos);
    for (int threads : {2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        EXPECT_EQ(capture(threads), serial);
    }
}

TEST(ServeDeterminism, ConcurrentTenantsIdenticalAcrossThreadCounts)
{
    // The serving tier's contract extends the engine guarantee to a
    // whole multi-tenant replay: per-request responses (modeled
    // costs), the end-of-run summary, and the metrics registry must
    // be byte-identical at any batch-execution width under the
    // virtual clock — including the serial-predicted plan hit/miss
    // counts that guard against shared-cache races.
    serve::LoadGenConfig config;
    config.tenants = 4;
    config.requests = 150;
    config.vertices = 48;
    config.edges = 96;
    config.features = 4;
    config.window = 2;
    config.seed = 23;
    const auto schedule = serve::LoadGen(config).schedule();

    auto capture = [&](int threads) {
        workload::DigestCache::global().clear();
        sim::Tracer &tracer = sim::Tracer::global();
        tracer.reset();
        tracer.enable(false, true);
        ThreadPool::setGlobalThreads(threads);
        serve::ServerOptions options;
        options.queueCapacity = 8;
        options.batchMax = 4;
        serve::Server server(options, [] {
            return std::unique_ptr<sim::Accelerator>(
                std::make_unique<core::DiTileAccelerator>());
        });
        std::vector<std::string> responses;
        server.replay(schedule, &responses);
        ThreadPool::setGlobalThreads(1);
        std::string out = server.summary().toTable();
        for (const auto &response : responses) {
            out += response;
            out += '\n';
        }
        out += "-- metrics --\n";
        for (const auto &[name, value] : tracer.metrics())
            out += name + "=" + std::to_string(value) + "\n";
        tracer.reset();
        return out;
    };

    const std::string serial = capture(1);
    EXPECT_NE(serial.find("serve summary"), std::string::npos);
    EXPECT_NE(serial.find("serve.completed="), std::string::npos);
    EXPECT_NE(serial.find("cache.result.hits="), std::string::npos);
    for (int threads : {2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        EXPECT_EQ(capture(threads), serial);
    }
}

} // namespace
} // namespace ditile
