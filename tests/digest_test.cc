/**
 * @file
 * Tests for the SnapshotDigest layer: delta-incremental construction
 * must be bit-identical to the scratch passes, digest-backed engine
 * runs must reproduce the non-digest path byte-for-byte across the
 * whole fleet and thread widths, and the content-addressed cache must
 * share one construction across variants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <memory>
#include <ostream>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/trace.hh"
#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"
#include "workload/balance.hh"
#include "workload/digest.hh"
#include "workload/slot_arrays.hh"

namespace ditile {
namespace {

graph::DynamicGraph
digestWorkload(double dissimilarity = 0.08, std::uint64_t seed = 13)
{
    graph::EvolutionConfig config;
    config.name = "digest-ctdg";
    config.numVertices = 600;
    config.numEdges = 4200;
    config.numSnapshots = 6;
    config.dissimilarity = dissimilarity;
    config.featureDim = 48;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

/** RAII: force the digest gate for a scope, restore enabled after. */
class DigestGate
{
  public:
    explicit DigestGate(bool enabled)
    {
        workload::setDigestEnabled(enabled);
    }
    ~DigestGate() { workload::setDigestEnabled(true); }
};

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
    EXPECT_EQ(a.peUtilization, b.peUtilization);
    EXPECT_EQ(a.energy.totalPj(), b.energy.totalPj());
    EXPECT_EQ(a.energyEvents.dramBytes, b.energyEvents.dramBytes);
    EXPECT_EQ(a.energyEvents.localBufferBytes,
              b.energyEvents.localBufferBytes);
    EXPECT_EQ(a.energyEvents.reconfigEvents,
              b.energyEvents.reconfigEvents);
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

// ---------------------------------------------------------------------
// Incremental construction == scratch construction.
// ---------------------------------------------------------------------

TEST(LoadDigest, IncrementalMatchesScratchBitwise)
{
    for (const double dis : {0.04, 0.35}) {
        SCOPED_TRACE(dis);
        const auto dg = digestWorkload(dis);
        // The generated CTDG must exercise both edge additions and
        // removals, or the incremental patch is only half-tested.
        std::size_t added = 0;
        std::size_t removed = 0;
        for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
            added += dg.delta(t).addedEdges().size();
            removed += dg.delta(t).removedEdges().size();
        }
        EXPECT_GT(added, 0u);
        EXPECT_GT(removed, 0u);

        for (const int layers : {2, 3}) {
            SCOPED_TRACE(layers);
            const auto digest =
                workload::buildLoadDigest(dg, layers);
            EXPECT_EQ(digest.incrementalSnapshots +
                          digest.scratchSnapshots,
                      static_cast<std::uint64_t>(dg.numSnapshots()));
            std::vector<double> total(
                static_cast<std::size_t>(dg.numVertices()), 0.0);
            for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
                const auto scratch = workload::computeSnapshotLoads(
                    dg.snapshot(t), layers);
                const auto &snap = *digest.snapshotLoads[
                    static_cast<std::size_t>(t)];
                ASSERT_EQ(snap.size(), scratch.size());
                for (std::size_t v = 0; v < scratch.size(); ++v) {
                    ASSERT_EQ(snap[v], scratch[v])
                        << "snapshot " << t << " vertex " << v;
                }
                for (std::size_t v = 0; v < scratch.size(); ++v)
                    total[v] += scratch[v];
            }
            for (std::size_t v = 0; v < total.size(); ++v)
                ASSERT_EQ(digest.totalLoads[v], total[v]);
        }
    }
}

TEST(LoadDigest, SmallDeltasTakeTheIncrementalPath)
{
    const auto dg = digestWorkload(0.03);
    const auto digest = workload::buildLoadDigest(dg, 2);
    // Snapshot 0 is always scratch; small deltas should patch.
    EXPECT_GT(digest.incrementalSnapshots, 0u);
}

TEST(PartitionDigest, MatchesBruteForceCounts)
{
    const auto dg = digestWorkload(0.06, 29);
    const int slots = 16;
    std::vector<double> loads(
        static_cast<std::size_t>(dg.numVertices()), 0.0);
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const auto snap =
            workload::computeSnapshotLoads(dg.snapshot(t), 2);
        for (std::size_t v = 0; v < loads.size(); ++v)
            loads[v] += snap[v];
    }
    const auto partition = workload::balancedPartition(loads, slots);
    std::vector<int> owners(
        static_cast<std::size_t>(dg.numVertices()));
    for (VertexId v = 0; v < dg.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] = partition.owner(v);

    const auto digest =
        workload::buildPartitionDigest(dg, owners, slots);
    EXPECT_GT(digest.incrementalSnapshots, 0u);
    EXPECT_EQ(digest.incrementalSnapshots + digest.scratchSnapshots,
              static_cast<std::uint64_t>(dg.numSnapshots()));

    std::vector<std::uint64_t> count(
        static_cast<std::size_t>(slots), 0);
    for (const int o : owners)
        ++count[static_cast<std::size_t>(o)];
    ASSERT_EQ(std::vector<std::uint64_t>(
                  digest.slotVertexCount().begin(),
                  digest.slotVertexCount().end()),
              count);

    const auto s_slots = static_cast<std::size_t>(slots);
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        SCOPED_TRACE(t);
        const graph::Csr &g = dg.snapshot(t);
        std::vector<std::uint64_t> deg_sum(s_slots, 0);
        std::vector<std::uint64_t> cross(s_slots * s_slots, 0);
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            const auto ov = static_cast<std::size_t>(
                owners[static_cast<std::size_t>(v)]);
            deg_sum[ov] += static_cast<std::uint64_t>(g.degree(v));
            for (VertexId u : g.neighbors(v)) {
                const auto ou = static_cast<std::size_t>(
                    owners[static_cast<std::size_t>(u)]);
                if (ou != ov)
                    ++cross[ou * s_slots + ov];
            }
        }
        const auto row_deg = digest.slotDegreeSum(t);
        const auto row_cross = digest.crossRow(t);
        ASSERT_EQ(std::vector<std::uint64_t>(row_deg.begin(),
                                             row_deg.end()),
                  deg_sum);
        ASSERT_EQ(std::vector<std::uint64_t>(row_cross.begin(),
                                             row_cross.end()),
                  cross);
    }
}

/**
 * A dynamic graph whose deltas flip cross-owner cells both ways: each
 * step removes every edge between one connected slot pair (n -> 0)
 * and adds two edges between one unconnected pair (0 -> 2). Owners
 * are v % slots; intra-slot edges keep each delta small enough for
 * the digest's patch path.
 */
graph::DynamicGraph
flippingWorkload(int slots, std::vector<int> &owners)
{
    const VertexId n = 8 * slots;
    owners.resize(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v)
        owners[static_cast<std::size_t>(v)] = v % slots;
    std::set<graph::Edge> edges;
    for (VertexId v = 0; v + slots < n; ++v)
        edges.emplace(v, v + slots); // same owner
    Rng rng(static_cast<std::uint64_t>(slots));
    auto vertex_of = [&](int slot) {
        return static_cast<VertexId>(
            slot + slots * rng.uniformInt(0, 7));
    };
    auto connect = [&](int a, int b) {
        const VertexId u = vertex_of(a);
        const VertexId v = vertex_of(b);
        edges.emplace(std::min(u, v), std::max(u, v));
    };
    for (int i = 0; i < slots / 2; ++i) {
        connect(i, (i + 1 + i % 3) % slots);
        connect(i, (i + 1 + i % 3) % slots);
    }

    std::vector<graph::Csr> snapshots;
    snapshots.push_back(graph::Csr::fromEdges(
        n, {edges.begin(), edges.end()}));
    for (int step = 0; step < 6; ++step) {
        auto slot_of = [&](VertexId v) {
            return owners[static_cast<std::size_t>(v)];
        };
        // Drop one connected pair entirely.
        int a = -1, b = -1;
        for (const auto &[u, v] : edges) {
            if (slot_of(u) != slot_of(v)) {
                a = slot_of(u);
                b = slot_of(v);
                break;
            }
        }
        std::erase_if(edges, [&](const graph::Edge &e) {
            const int su = slot_of(e.first), sv = slot_of(e.second);
            return (su == a && sv == b) || (su == b && sv == a);
        });
        // Connect one pair that has no edge.
        std::set<std::pair<int, int>> linked;
        for (const auto &[u, v] : edges)
            linked.emplace(slot_of(u), slot_of(v));
        int c = 0, d = 1;
        while (linked.count({c, d}) != 0 || linked.count({d, c}) != 0 ||
               (c == a && d == b) || (c == b && d == a)) {
            d = (d + 1) % slots;
            if (d == c) {
                c = (c + 1) % slots;
                d = (c + 1) % slots;
            }
        }
        edges.emplace(std::min<VertexId>(c, d), std::max<VertexId>(c, d));
        edges.emplace(std::min<VertexId>(c + slots, d + slots),
                      std::max<VertexId>(c + slots, d + slots));
        snapshots.push_back(graph::Csr::fromEdges(
            n, {edges.begin(), edges.end()}));
    }
    return graph::DynamicGraph("flipping", std::move(snapshots), 8);
}

TEST(PartitionDigest, PatchedCrossRowsMatchRecount)
{
    for (const int slots : {8, 256}) {
        SCOPED_TRACE(slots);
        std::vector<int> owners;
        const auto dg = flippingWorkload(slots, owners);
        const auto digest =
            workload::buildPartitionDigest(dg, owners, slots);
        EXPECT_EQ(digest.incrementalSnapshots,
                  static_cast<std::uint64_t>(dg.numSnapshots() - 1));

        const auto s_slots = static_cast<std::size_t>(slots);
        std::size_t rises = 0;
        std::size_t falls = 0;
        for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
            SCOPED_TRACE(t);
            std::vector<std::int32_t> edge_owner;
            workload::buildEdgeOwnerIndex(dg.snapshot(t), owners,
                                          edge_owner);
            std::vector<std::uint64_t> deg(s_slots, ~0ull);
            std::vector<std::uint64_t> want(s_slots * s_slots, ~0ull);
            workload::countSlotEdges(dg.snapshot(t), owners,
                                     edge_owner.data(), slots,
                                     deg.data(), want.data());
            const auto cross = digest.crossRow(t);
            EXPECT_EQ(std::vector<std::uint64_t>(cross.begin(),
                                                 cross.end()),
                      want);
            const auto deg_row = digest.slotDegreeSum(t);
            EXPECT_EQ(std::vector<std::uint64_t>(deg_row.begin(),
                                                 deg_row.end()),
                      deg);
            if (t == 0)
                continue;
            const auto prev = digest.crossRow(t - 1);
            for (std::size_t i = 0; i < cross.size(); ++i) {
                rises += prev[i] == 0 && cross[i] != 0 ? 1 : 0;
                falls += prev[i] != 0 && cross[i] == 0 ? 1 : 0;
            }
        }
        // The deltas really flipped cells both ways.
        EXPECT_GT(rises, 0u);
        EXPECT_GT(falls, 0u);
    }
}

std::vector<std::uint64_t>
rowOf(std::span<const std::uint64_t> row)
{
    return {row.begin(), row.end()};
}

/**
 * Snapshots 0-1 of one graph, then 2-5 of another: snapshot 2's delta
 * swaps the whole edge set, so the digest rebuilds its row from
 * scratch between patched ones.
 */
graph::DynamicGraph
restartingWorkload()
{
    const auto a = digestWorkload(0.06, 29);
    const auto b = digestWorkload(0.06, 31);
    std::vector<graph::Csr> snapshots;
    for (SnapshotId t = 0; t < 6; ++t)
        snapshots.push_back(t < 2 ? a.snapshot(t) : b.snapshot(t));
    return graph::DynamicGraph("restarting", std::move(snapshots), 48);
}

TEST(PartitionDigest, CoverageIsAPrefixOfTheFullBuild)
{
    const auto dg = restartingWorkload();
    const SnapshotId t_count = dg.numSnapshots();
    const int slots = 16;
    std::vector<int> owners(static_cast<std::size_t>(dg.numVertices()));
    for (VertexId v = 0; v < dg.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] = (v * 7) % slots;
    const auto full = workload::buildPartitionDigest(dg, owners, slots);
    ASSERT_EQ(full.covered(), t_count);
    EXPECT_EQ(full.scratchSnapshots, 2u);
    EXPECT_EQ(full.incrementalSnapshots,
              static_cast<std::uint64_t>(t_count - 2));

    const auto s_slots = static_cast<std::size_t>(slots);
    for (const SnapshotId n : {SnapshotId{0}, SnapshotId{1},
                               t_count / 2, t_count}) {
        SCOPED_TRACE(n);
        const auto part =
            workload::buildPartitionDigest(dg, owners, slots, n);
        ASSERT_EQ(part.covered(), n);
        EXPECT_EQ(part.scratchSnapshots + part.incrementalSnapshots,
                  static_cast<std::uint64_t>(n));
        // The planes hold the covered rows and nothing more.
        EXPECT_EQ(part.arrays.degreeSum.size(),
                  static_cast<std::size_t>(n) * s_slots);
        EXPECT_EQ(part.arrays.cross.size(),
                  static_cast<std::size_t>(n) * s_slots * s_slots);
        EXPECT_EQ(rowOf(part.slotVertexCount()),
                  rowOf(full.slotVertexCount()));
        for (SnapshotId t = 0; t < n; ++t) {
            SCOPED_TRACE(t);
            EXPECT_EQ(rowOf(part.slotDegreeSum(t)),
                      rowOf(full.slotDegreeSum(t)));
            EXPECT_EQ(rowOf(part.crossRow(t)), rowOf(full.crossRow(t)));
        }
    }
    // A coverage past the last snapshot is every snapshot.
    EXPECT_EQ(workload::buildPartitionDigest(dg, owners, slots,
                                             t_count + 5).covered(),
              t_count);
}

TEST(PartitionDigestDeathTest, UncoveredRowPanics)
{
    const auto dg = digestWorkload();
    const std::vector<int> owners(
        static_cast<std::size_t>(dg.numVertices()), 0);
    const auto digest = workload::buildPartitionDigest(dg, owners, 1, 1);
    EXPECT_EQ(digest.crossRow(0).size(), 1u);
    EXPECT_DEATH(digest.crossRow(1), "coverage");
    EXPECT_DEATH(digest.slotDegreeSum(1), "coverage");
    EXPECT_DEATH(digest.crossRow(-1), "coverage");
}

// ---------------------------------------------------------------------
// Digest-backed runs == scratch-path runs, fleet-wide.
// ---------------------------------------------------------------------

sim::RunResult
runVariant(const std::string &which, const graph::DynamicGraph &dg,
           const model::DgnnConfig &mconfig)
{
    if (which == "ReaDy")
        return sim::makeReady()->run(dg, mconfig);
    if (which == "DGNN-Booster")
        return sim::makeDgnnBooster()->run(dg, mconfig);
    if (which == "RACE")
        return sim::makeRace()->run(dg, mconfig);
    if (which == "MEGA")
        return sim::makeMega()->run(dg, mconfig);
    if (which == "DiTile")
        return core::DiTileAccelerator().run(dg, mconfig);
    core::DiTileAccelerator ablated(
        sim::AcceleratorConfig::defaults(),
        core::DiTileOptions::fromVariant(which));
    return ablated.run(dg, mconfig);
}

TEST(DigestIdentity, FleetByteIdenticalAcrossThreadWidths)
{
    const auto dg = digestWorkload();
    const model::DgnnConfig mconfig;
    const std::vector<std::string> variants = {
        "ReaDy", "DGNN-Booster", "RACE",    "MEGA",    "DiTile",
        "NoPs",  "NoWos",        "NoRa",    "OnlyPs",  "OnlyWos",
        "OnlyRa"};
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        for (const auto &variant : variants) {
            SCOPED_TRACE(variant);
            sim::RunResult off;
            {
                DigestGate gate(false);
                off = runVariant(variant, dg, mconfig);
            }
            workload::DigestCache::global().clear();
            const auto on = runVariant(variant, dg, mconfig);
            expectIdentical(off, on);
        }
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(DigestIdentity, FaultedRunsMatchScratchPath)
{
    // The fault pre-pass re-deals vertices off dead slots using the
    // digest's per-snapshot loads; the degraded run must match the
    // scratch path bit-for-bit.
    const auto dg = digestWorkload(0.1, 17);
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, mconfig);
    plan.faults = sim::FaultSpec::parse("tile@1:r3c*;tile@2:r5c1");
    sim::RunResult off;
    {
        DigestGate gate(false);
        off = sim::executePlan(dg, plan);
    }
    workload::DigestCache::global().clear();
    const auto on = sim::executePlan(dg, plan);
    expectIdentical(off, on);
    EXPECT_GT(on.resilience.remappedVertices, 0u);
}

/** The six modeled fields of one ditile_sweep CSV row. */
struct SweepRow
{
    std::uint64_t cycles = 0;
    std::uint64_t ops = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t nocBytes = 0;
    double energyPj = 0.0;
    double peUtilization = 0.0;

    bool operator==(const SweepRow &) const = default;
};

/** ditile_sweep's WD scale-0.3 grid points: (dissimilarity, T). */
const std::vector<std::pair<double, SnapshotId>> kSweepPoints = {
    {0.02, 4}, {0.02, 8}, {0.10, 4}, {0.10, 8}};

graph::DynamicGraph
sweepGraph(const std::pair<double, SnapshotId> &point)
{
    graph::DatasetOptions options;
    options.scale = 0.3;
    options.dissimilarity = point.first;
    options.numSnapshots = point.second;
    return graph::makeDataset("WD", options);
}

/** The sweep's --all-accels fleet, in CSV row order. */
std::vector<std::unique_ptr<sim::Accelerator>>
sweepFleet()
{
    std::vector<std::unique_ptr<sim::Accelerator>> fleet;
    fleet.push_back(sim::makeReady());
    fleet.push_back(sim::makeDgnnBooster());
    fleet.push_back(sim::makeRace());
    fleet.push_back(sim::makeMega());
    fleet.push_back(std::make_unique<core::DiTileAccelerator>());
    return fleet;
}

/**
 * ditile_sweep's WD scale-0.3 grid (dis {0.02, 0.10} x T {4, 8}, every
 * accelerator), its points run concurrently through one shared
 * PlanCache as the tool runs them, so prefix extension and the
 * seed-draw memo take part. Rows come back in grid order.
 */
std::vector<SweepRow>
sweepGrid(bool digests, int threads)
{
    DigestGate gate(digests);
    ThreadPool::setGlobalThreads(threads);
    workload::DigestCache::global().clear();
    graph::clearGenerationMemo();
    const auto &points = kSweepPoints;
    const std::size_t fleet_size = 5;
    std::vector<SweepRow> rows(points.size() * fleet_size);
    sim::PlanCache plan_cache;
    parallelFor(points.size(), [&](std::size_t j) {
        const auto dg = sweepGraph(points[j]);
        const model::DgnnConfig mconfig;
        const auto fleet = sweepFleet();
        for (std::size_t a = 0; a < fleet_size; ++a) {
            const auto r = sim::executePlan(
                dg, fleet[a]->plan(dg, mconfig, &plan_cache), &plan_cache);
            rows[j * fleet_size + a] = {
                r.totalCycles, r.ops.totalArithmetic(), r.dramTraffic.total(),
                r.nocBytes, r.energy.totalPj(), r.peUtilization};
        }
    });
    ThreadPool::setGlobalThreads(1);
    return rows;
}

void
PrintTo(const SweepRow &r, std::ostream *os)
{
    *os << std::setprecision(17) << r.cycles << ',' << r.ops << ','
        << r.dramBytes << ',' << r.nocBytes << ',' << r.energyPj << ','
        << r.peUtilization;
}

TEST(DigestIdentity, SweepGridMatchesScratchPath)
{
    const auto reference = sweepGrid(false, 1);
    ASSERT_EQ(reference.size(), 20u);
    EXPECT_EQ(sweepGrid(true, 1), reference);
    EXPECT_EQ(sweepGrid(false, 4), reference);
    EXPECT_EQ(sweepGrid(true, 4), reference);
}

TEST(DigestIdentity, SweepGridDigestsCoverTheirLastFullRecompute)
{
    // After the grid, each cached partition digest covers exactly 1 +
    // the last full-recompute snapshot of the plans that asked for it
    // (the largest, when plans share the assignment), and no more.
    sweepGrid(true, 4);
    const model::DgnnConfig mconfig;
    // One digest the engine asked for: its assignment and the rows.
    struct Asked
    {
        std::vector<int> owners;
        int slots = 0;
        SnapshotId rows = 0;
    };
    // Per grid point, content key -> the widest ask.
    using Wanted = std::map<std::uint64_t, Asked>;
    std::vector<std::pair<graph::DynamicGraph, Wanted>> points;
    for (const auto &point : kSweepPoints) {
        auto dg = sweepGraph(point);
        Wanted wanted;
        for (const auto &accel : sweepFleet()) {
            const auto plan = accel->plan(dg, mconfig);
            bool asks = false;
            SnapshotId rows = 0;
            for (SnapshotId t = 0; t < plan.numSnapshots(); ++t) {
                const auto &sp =
                    (*plan.snapshots)[static_cast<std::size_t>(t)];
                asks = asks || sp.fullRecompute || sp.rnnVertices.isAll();
                if (sp.fullRecompute)
                    rows = t + 1;
            }
            if (!asks)
                continue;
            const auto &mapping = plan.mapping;
            const int slots = mapping.spatialOnly ? plan.hw.totalTiles()
                                                  : plan.hw.tileRows;
            std::vector<int> owners(
                static_cast<std::size_t>(dg.numVertices()));
            for (VertexId v = 0; v < dg.numVertices(); ++v) {
                owners[static_cast<std::size_t>(v)] = mapping.spatialOnly
                    ? mapping.tilePartition.owner(v)
                    : mapping.rowPartition.owner(v);
            }
            Asked &asked =
                wanted[workload::partitionDigestKey(dg, owners, slots)];
            asked.owners = std::move(owners);
            asked.slots = slots;
            asked.rows = std::max(asked.rows, rows);
        }
        points.emplace_back(std::move(dg), std::move(wanted));
    }

    auto &cache = workload::DigestCache::global();
    const auto misses = cache.misses();
    const auto hits = cache.hits();
    std::size_t checked = 0;
    std::set<SnapshotId> coverages;
    for (const auto &[dg, wanted] : points) {
        for (const auto &[key, asked] : wanted) {
            // A 0-snapshot lookup is served by whatever is cached.
            const auto digest =
                cache.partition(dg, asked.owners, asked.slots, 0);
            EXPECT_EQ(digest->covered(), asked.rows) << "key " << key;
            coverages.insert(asked.rows);
            ++checked;
        }
    }
    EXPECT_EQ(cache.misses(), misses); // every checked digest was cached
    EXPECT_EQ(cache.hits(), hits + checked);
    EXPECT_GE(checked, kSweepPoints.size());
    // ReaDy recomputes every snapshot, so some digest has T rows;
    // MEGA recomputes only snapshot 0, so its digests have one.
    EXPECT_EQ(coverages.count(1), 1u);
    EXPECT_EQ(coverages.count(8), 1u);
    cache.clear();
}

TEST(DigestIdentity, PlanJsonUnaffectedByDigestGate)
{
    const auto dg = digestWorkload();
    const model::DgnnConfig mconfig;
    std::string with_digest;
    std::string without_digest;
    {
        DigestGate gate(true);
        with_digest =
            core::DiTileAccelerator().plan(dg, mconfig).toJson();
    }
    {
        DigestGate gate(false);
        without_digest =
            core::DiTileAccelerator().plan(dg, mconfig).toJson();
    }
    EXPECT_EQ(with_digest, without_digest);
    // The digest key is present and populated either way.
    EXPECT_NE(with_digest.find("workload_digest"), std::string::npos);
    const auto parsed = sim::ExecutionPlan::fromJson(with_digest);
    EXPECT_EQ(parsed.workloadDigest,
              workload::loadDigestKey(dg, mconfig.numGcnLayers()));
}

// ---------------------------------------------------------------------
// Cache accounting.
// ---------------------------------------------------------------------

TEST(DigestCacheTest, VariantsShareOneConstruction)
{
    DigestGate gate(true);
    auto &cache = workload::DigestCache::global();
    cache.clear();
    const auto dg = digestWorkload();
    const model::DgnnConfig mconfig;

    runVariant("DiTile", dg, mconfig);
    const auto first_misses = cache.misses();
    EXPECT_GT(first_misses, 0u);
    EXPECT_EQ(cache.size(), first_misses);

    // NoRa shares both the load digest and the balanced partition;
    // NoWos shares the loads but maps contiguously, so only the
    // partition digest may miss again.
    runVariant("NoRa", dg, mconfig);
    const auto after_nora = cache.hits();
    EXPECT_GT(after_nora, 0u);
    EXPECT_EQ(cache.misses(), first_misses);

    runVariant("NoWos", dg, mconfig);
    EXPECT_GT(cache.hits(), after_nora);
    EXPECT_LE(cache.misses(), first_misses + 1);
    EXPECT_EQ(cache.size(), cache.misses());
}

TEST(DigestCacheTest, WiderLookupRepublishesUnderOneKey)
{
    Tracer::global().reset();
    Tracer::global().enable(true, true);
    auto &cache = workload::DigestCache::global();
    cache.clear();
    const auto dg = digestWorkload();
    const SnapshotId t_count = dg.numSnapshots();
    const int slots = 16;
    std::vector<int> owners(static_cast<std::size_t>(dg.numVertices()));
    for (VertexId v = 0; v < dg.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] = v % slots;

    const auto narrow = cache.partition(dg, owners, slots, 1);
    EXPECT_EQ(narrow->covered(), 1);
    const auto wide = cache.partition(dg, owners, slots, t_count);
    const auto oracle = workload::buildPartitionDigest(dg, owners, slots);
    ASSERT_EQ(wide->covered(), t_count);
    EXPECT_EQ(wide->arrays.slotVertexCount, oracle.arrays.slotVertexCount);
    EXPECT_EQ(wide->arrays.degreeSum, oracle.arrays.degreeSum);
    EXPECT_EQ(wide->arrays.cross, oracle.arrays.cross);
    // The rebuild republished under the same key: a narrower lookup
    // now gets the wide digest.
    EXPECT_EQ(cache.partition(dg, owners, slots, 1), wide);

    // One miss, then hits, exactly as without coverage.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.size(), 1u);
    std::map<std::string, long long> registry;
    for (const auto &[path, value] : Tracer::global().metrics())
        registry[path] = value;
    EXPECT_EQ(registry["cache.digest_partition.misses"], 1);
    EXPECT_EQ(registry["cache.digest_partition.hits"], 2);
    EXPECT_EQ(registry["cache.digest_partition.evictions"], 0);
    std::map<std::string, std::uint64_t> instants;
    for (const auto &row : Tracer::global().rollup())
        instants[row.name] += row.count;
    EXPECT_EQ(instants["digest-partition miss"], 1u);
    EXPECT_EQ(instants["digest-partition hit"], 2u);
    Tracer::global().reset();
    cache.clear();
}

TEST(DigestCacheTest, KeysSeparateGraphsAndShapes)
{
    const auto a = digestWorkload(0.08, 13);
    const auto b = digestWorkload(0.08, 14);
    EXPECT_NE(graph::structureHash(a), graph::structureHash(b));
    EXPECT_NE(workload::loadDigestKey(a, 2),
              workload::loadDigestKey(a, 3));
    EXPECT_NE(workload::loadDigestKey(a, 2),
              workload::loadDigestKey(b, 2));
    const std::vector<int> owners(
        static_cast<std::size_t>(a.numVertices()), 0);
    EXPECT_NE(workload::partitionDigestKey(a, owners, 1),
              workload::partitionDigestKey(b, owners, 1));
}

} // namespace
} // namespace ditile
