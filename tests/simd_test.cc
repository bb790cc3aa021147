/**
 * @file
 * Tests for the SoA/SIMD hot-path rework: the elementwise f64 kernels
 * must round like a separately rounded reference, the flat SlotArrays
 * census kernels must reproduce the retired map-based walks on
 * adds+removes deltas, the DenseTraffic touched-cell drain must match
 * a dense reference and a std::sort of its mix64 drain keys, the
 * fused Stage-1 GCN walk must match a per-layer walk, and batch
 * planning (SharedFrontEnd)
 * must emit byte-identical plans to per-accelerator planning at any
 * thread width.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "core/plan_batch.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/engine_internal.hh"
#include "sim/plan_cache.hh"
#include "workload/digest.hh"
#include "workload/slot_arrays.hh"

namespace ditile {
namespace {

/** Deterministic pseudo-random doubles (no libm rounding variance). */
std::vector<double>
patternDoubles(std::size_t n, std::uint64_t seed)
{
    std::vector<double> v(n);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v[i] = static_cast<double>(x >> 11) * 0x1.0p-53 * 100.0 - 50.0;
    }
    return v;
}

graph::DynamicGraph
simdWorkload(double dissimilarity = 0.10, std::uint64_t seed = 29)
{
    graph::EvolutionConfig config;
    config.name = "simd-ctdg";
    config.numVertices = 500;
    config.numEdges = 3500;
    config.numSnapshots = 5;
    config.dissimilarity = dissimilarity;
    config.featureDim = 32;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

// The kernels are elementwise: each result is one multiply and one
// add, each rounded on its own. The axpy reference stores every
// product through a volatile, so a kernel whose multiply-add had been
// contracted into an FMA would differ from it in the last bit.

TEST(SimdKernels, F64AxpyMatchesSeparatelyRoundedReference)
{
    // Odd length exercises a vector body plus a scalar tail.
    const std::size_t n = 1027;
    const auto src = patternDoubles(n, 7);
    auto got = patternDoubles(n, 11);
    auto want = got;
    for (std::size_t i = 0; i < n; ++i) {
        volatile double product = 1.75 * src[i];
        want[i] += product;
    }
    simd::f64Axpy(got.data(), src.data(), 1.75, n);
    ASSERT_EQ(0,
              std::memcmp(got.data(), want.data(), n * sizeof(double)));
}

TEST(SimdKernels, F64AddMatchesElementwiseReference)
{
    const std::size_t n = 513;
    const auto src = patternDoubles(n, 3);
    auto got = patternDoubles(n, 5);
    auto want = got;
    for (std::size_t i = 0; i < n; ++i)
        want[i] = want[i] + src[i];
    simd::f64Add(got.data(), src.data(), n);
    ASSERT_EQ(0,
              std::memcmp(got.data(), want.data(), n * sizeof(double)));
}

// The flat SlotArrays kernels must reproduce the retired map-based
// walks exactly — same per-slot degree sums, same directed cross
// matrix with an empty diagonal — on a workload whose deltas contain
// both additions and removals.

TEST(SlotArraysKernels, MatchMapBasedReferenceOnAddsAndRemoves)
{
    const auto dg = simdWorkload();
    bool saw_adds = false, saw_removes = false;
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        saw_adds = saw_adds || !dg.delta(t).addedEdges().empty();
        saw_removes =
            saw_removes || !dg.delta(t).removedEdges().empty();
    }
    ASSERT_TRUE(saw_adds);
    ASSERT_TRUE(saw_removes);

    const int slots = 6;
    // A deliberately skewed assignment (not round-robin) so the cross
    // matrix is asymmetric.
    std::vector<int> owners(
        static_cast<std::size_t>(dg.numVertices()));
    for (VertexId v = 0; v < dg.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] =
            static_cast<int>((static_cast<std::uint64_t>(v) * v) %
                             slots);

    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const graph::Csr &g = dg.snapshot(t);

        // Reference: the branchy per-vertex walk the SoA kernels
        // replaced, accumulating into maps.
        std::vector<std::uint64_t> ref_deg(slots, 0);
        std::map<std::pair<int, int>, std::uint64_t> ref_cross;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            const int ov = owners[static_cast<std::size_t>(v)];
            ref_deg[static_cast<std::size_t>(ov)] +=
                static_cast<std::uint64_t>(g.degree(v));
            for (VertexId u : g.neighbors(v)) {
                const int ou = owners[static_cast<std::size_t>(u)];
                if (ou != ov)
                    ++ref_cross[{ou, ov}];
            }
        }

        // SoA kernels under test.
        std::vector<std::int32_t> edge_owner;
        workload::buildEdgeOwnerIndex(g, owners, edge_owner);
        ASSERT_EQ(edge_owner.size(),
                  static_cast<std::size_t>(g.numAdjacencies()));
        std::vector<std::uint64_t> deg(slots, ~0ull);
        std::vector<std::uint64_t> cross(
            static_cast<std::size_t>(slots) * slots, ~0ull);
        workload::countSlotEdges(g, owners, edge_owner.data(), slots,
                                 deg.data(), cross.data());

        EXPECT_EQ(ref_deg, deg) << "snapshot " << t;
        for (int s = 0; s < slots; ++s) {
            for (int d = 0; d < slots; ++d) {
                const auto it = ref_cross.find({s, d});
                const std::uint64_t want =
                    it == ref_cross.end() ? 0 : it->second;
                EXPECT_EQ(want,
                          cross[static_cast<std::size_t>(s) * slots +
                                d])
                    << "snapshot " << t << " cross(" << s << ","
                    << d << ")";
            }
            EXPECT_EQ(0u,
                      cross[static_cast<std::size_t>(s) * slots + s]);
        }
    }
}

// The DenseTraffic touched-cell drain: accumulation order must be
// invisible, the diagonal clear must drop exactly the same-slot
// cells, and the arena reset must leave no residue.

TEST(DenseTraffic, TouchedDrainMatchesDenseReference)
{
    const int slots = 9;
    struct Add
    {
        int src, dst;
        ByteCount bytes;
    };
    std::vector<Add> adds;
    std::uint64_t x = 42;
    for (int i = 0; i < 400; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        adds.push_back({static_cast<int>(x % slots),
                        static_cast<int>((x >> 8) % slots),
                        (x >> 16) % 5}); // some zero-byte adds too
    }

    sim::detail::DenseTraffic forward(slots);
    for (const Add &a : adds)
        forward.add(a.src, a.dst, a.bytes);
    forward.clearDiagonal();

    // Same adds in reverse order: the emitted sequence must be
    // byte-identical (mix64 drain order, not insertion order).
    sim::detail::DenseTraffic backward(slots);
    for (auto it = adds.rbegin(); it != adds.rend(); ++it)
        backward.add(it->src, it->dst, it->bytes);
    backward.clearDiagonal();

    const auto tile = [](int s) { return static_cast<TileId>(s); };
    std::vector<noc::Message> fwd_msgs, bwd_msgs;
    forward.emit(fwd_msgs, noc::TrafficClass::Spatial, 7, tile, tile);
    backward.emit(bwd_msgs, noc::TrafficClass::Spatial, 7, tile,
                  tile);
    ASSERT_EQ(fwd_msgs.size(), bwd_msgs.size());
    for (std::size_t i = 0; i < fwd_msgs.size(); ++i) {
        EXPECT_EQ(fwd_msgs[i].src, bwd_msgs[i].src);
        EXPECT_EQ(fwd_msgs[i].dst, bwd_msgs[i].dst);
        EXPECT_EQ(fwd_msgs[i].bytes, bwd_msgs[i].bytes);
    }

    // Dense reference: plain matrix accumulation with a branchy
    // diagonal skip.
    std::map<std::pair<int, int>, ByteCount> ref;
    for (const Add &a : adds)
        if (a.src != a.dst && a.bytes > 0)
            ref[{a.src, a.dst}] += a.bytes;
    EXPECT_EQ(ref.size(), forward.nonzero());
    EXPECT_EQ(ref.size(), fwd_msgs.size());
    for (const noc::Message &m : fwd_msgs) {
        const auto it = ref.find({static_cast<int>(m.src),
                                  static_cast<int>(m.dst)});
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(it->second, m.bytes);
        EXPECT_EQ(noc::TrafficClass::Spatial, m.cls);
        EXPECT_EQ(7u, m.injectCycle);
    }

    // Arena reuse: reset with the same dimension must behave like a
    // fresh matrix (touched-cell zeroing left nothing behind).
    forward.reset(slots);
    EXPECT_EQ(0u, forward.nonzero());
    forward.add(2, 3, 11);
    std::vector<noc::Message> reused;
    forward.emit(reused, noc::TrafficClass::Reuse, 1, tile, tile);
    ASSERT_EQ(1u, reused.size());
    EXPECT_EQ(2, reused[0].src);
    EXPECT_EQ(3, reused[0].dst);
    EXPECT_EQ(11u, reused[0].bytes);
}

// The drain order itself: emit() must produce exactly the messages a
// std::sort by ascending mix64(src tile << 32 | dst tile) produces,
// for empty, tiny and large drains, at several matrix sizes, and with
// distinct src/dst tile maps (as the temporal boundary uses). The
// forward/backward test above only proves the order is stable.

/** A traffic matrix plus a plain map of what was added to it. */
struct TrafficCase
{
    explicit TrafficCase(int slots) : traffic(slots) {}

    void
    add(int src, int dst, ByteCount bytes)
    {
        traffic.add(src, dst, bytes);
        cells[{src, dst}] += bytes;
    }

    sim::detail::DenseTraffic traffic;
    std::map<std::pair<int, int>, ByteCount> cells;
};

/** `adds` random off-diagonal adds to a `slots` x `slots` matrix. */
TrafficCase
randomTraffic(int slots, int adds, std::uint64_t seed)
{
    TrafficCase c(slots);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (int i = 0; i < adds; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const int src = static_cast<int>(x % slots);
        const int dst = static_cast<int>((x >> 20) % slots);
        if (src != dst)
            c.add(src, dst, 1 + (x >> 40) % 9);
    }
    return c;
}

template <typename SrcTile, typename DstTile>
void
expectSortedDrain(const TrafficCase &c, SrcTile src_tile,
                  DstTile dst_tile)
{
    std::vector<noc::Message> got;
    c.traffic.emit(got, noc::TrafficClass::Temporal, 5, src_tile,
                   dst_tile);

    // Reference: every added cell as a message, std::sort-ed by key.
    std::vector<std::pair<std::uint64_t, noc::Message>> want;
    for (const auto &[cell, bytes] : c.cells) {
        noc::Message m;
        m.src = src_tile(cell.first);
        m.dst = dst_tile(cell.second);
        m.bytes = bytes;
        const std::uint64_t key = mix64(
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.src))
             << 32) |
            static_cast<std::uint32_t>(m.dst));
        want.emplace_back(key, m);
    }
    std::sort(want.begin(), want.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(want[i].second.src, got[i].src) << "message " << i;
        EXPECT_EQ(want[i].second.dst, got[i].dst) << "message " << i;
        EXPECT_EQ(want[i].second.bytes, got[i].bytes) << "message " << i;
        EXPECT_EQ(5u, got[i].injectCycle);
        EXPECT_EQ(noc::TrafficClass::Temporal, got[i].cls);
    }
}

TEST(DenseTraffic, DrainOrderMatchesSortedMix64Reference)
{
    const auto same = [](int s) { return static_cast<TileId>(s); };
    // Temporal-boundary style: src and dst slots land in different
    // tile columns of a 16-column grid.
    const auto left = [](int s) {
        return static_cast<TileId>(s * 16 + 3);
    };
    const auto right = [](int s) {
        return static_cast<TileId>(s * 16 + 11);
    };
    for (const int slots : {9, 64, 256}) {
        SCOPED_TRACE(slots);
        for (int n = 0; n <= 3; ++n) {
            TrafficCase c(slots);
            for (int i = 0; i < n; ++i)
                c.add(i, i + 1, static_cast<ByteCount>(10 + i));
            ASSERT_EQ(static_cast<std::size_t>(n), c.traffic.nonzero());
            expectSortedDrain(c, same, same);
            expectSortedDrain(c, left, right);
        }
        // Thousands of cells (every off-diagonal cell at 9 slots).
        const auto big =
            randomTraffic(slots, 6000, static_cast<std::uint64_t>(slots));
        const auto all_cells = static_cast<std::size_t>(slots) *
            static_cast<std::size_t>(slots - 1);
        EXPECT_EQ(big.cells.size(), big.traffic.nonzero());
        EXPECT_GE(big.cells.size(), std::min<std::size_t>(1000, all_cells));
        expectSortedDrain(big, same, same);
        expectSortedDrain(big, left, right);
    }
}

// The fused Stage-1 GCN walk: one adjacency walk per distinct vertex
// must drain the same messages, slot MACs and tile tasks as a walk of
// every layer's adjacency, whatever layer sets a plan document carries
// (strictly ascending lists and all(n) bounds, overlapping or not).

/** The per-layer walk walkGcnLayers replaced. */
void
perLayerWalk(const graph::Csr &g,
             const std::vector<model::LayerWork> &layers,
             const model::DgnnConfig &mc, int feature_dim, ByteCount bpv,
             const std::vector<int> &owner, std::vector<OpCount> &slot_gnn,
             std::vector<std::vector<sim::VertexTask>> &slot_tasks,
             sim::detail::DenseTraffic &traffic)
{
    for (int l = 0; l < mc.numGcnLayers(); ++l) {
        const auto in_dim =
            static_cast<OpCount>(mc.gcnInputDim(l, feature_dim));
        const auto out_dim = static_cast<OpCount>(mc.gcnOutputDim(l));
        const ByteCount gather_bytes = static_cast<ByteCount>(in_dim) * bpv;
        layers[static_cast<std::size_t>(l)].vertices.forEach([&](VertexId v) {
            const int ov = owner[static_cast<std::size_t>(v)];
            const auto degree = static_cast<OpCount>(g.degree(v));
            const OpCount macs = (degree + 1) * in_dim + in_dim * out_dim;
            slot_gnn[static_cast<std::size_t>(ov)] += macs;
            sim::VertexTask task;
            task.vertex = v;
            task.macs = macs;
            task.postOps = out_dim;
            task.inputBytes = (static_cast<ByteCount>(degree) + 1) *
                static_cast<ByteCount>(in_dim) * bpv;
            slot_tasks[static_cast<std::size_t>(ov)].push_back(task);
            for (VertexId u : g.neighbors(v))
                traffic.add(owner[static_cast<std::size_t>(u)], ov,
                            gather_bytes);
        });
    }
    traffic.clearDiagonal();
}

TEST(SpatialWalk, FusedWalkMatchesPerLayerWalk)
{
    Rng rng(41);
    const VertexId n = 400;
    const auto g = graph::generateRmat(n, 3000, {}, rng);
    const int slots = 16;
    const int feature_dim = 20;
    const ByteCount bpv = 2;
    model::DgnnConfig mc;
    mc.gcnDims = {24, 12, 6};

    auto random_set = [&](std::size_t size) {
        std::vector<VertexId> set;
        for (std::size_t k = 0; k < size; ++k)
            set.push_back(static_cast<VertexId>(rng.uniformInt(0, n - 1)));
        return set;
    };
    auto sorted_unique = [](std::vector<VertexId> set) {
        std::sort(set.begin(), set.end());
        set.erase(std::unique(set.begin(), set.end()), set.end());
        return set;
    };
    std::vector<VertexId> all(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v)
        all[static_cast<std::size_t>(v)] = v;
    const auto wide = sorted_unique(random_set(300));
    std::vector<VertexId> narrow;
    for (std::size_t k = 0; k < wide.size(); k += 3)
        narrow.push_back(wide[k]);
    std::vector<VertexId> thirds[3];
    for (VertexId v = 0; v < n; ++v)
        thirds[v % 3].push_back(v);

    using Sets = std::vector<std::vector<VertexId>>;
    const std::vector<std::pair<const char *, Sets>> cases = {
        {"random",
         {sorted_unique(random_set(150)), sorted_unique(random_set(90)),
          sorted_unique(random_set(40))}},
        {"all", {all, {all.begin(), all.begin() + 50}, all}},
        {"disjoint", {thirds[0], thirds[1], thirds[2]}},
        {"nested", {wide, narrow, {narrow.begin(), narrow.begin() + 10}}},
        {"nested-growing", {narrow, wide, all}},
        {"identical", {wide, wide, wide}},
        {"empty", {{}, {}, {}}},
        {"some-empty", {{}, wide, {}}},
    };

    std::vector<int> planned(static_cast<std::size_t>(n));
    std::vector<int> remap(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) {
        planned[static_cast<std::size_t>(v)] = v % slots;
        remap[static_cast<std::size_t>(v)] =
            static_cast<int>(rng.uniformInt(0, slots / 2)); // survivors
    }
    const auto tile = [](int s) { return static_cast<TileId>(s); };

    // One scratch accumulator and matrix across every case, as the
    // engine's leased arena is reused across snapshots.
    std::vector<ByteCount> gather;
    sim::detail::DenseTraffic fused(slots);
    for (const auto &[name, sets] : cases) {
        for (const auto *owner : {&planned, &remap}) {
            SCOPED_TRACE(testing::Message()
                         << name << (owner == &remap ? " remap" : ""));
            std::vector<model::LayerWork> layers(sets.size());
            for (std::size_t l = 0; l < sets.size(); ++l)
                layers[l].vertices = model::VertexSet(sets[l], n);

            std::vector<OpCount> want_gnn(slots, 0);
            std::vector<std::vector<sim::VertexTask>> want_tasks(slots);
            sim::detail::DenseTraffic reference(slots);
            perLayerWalk(g, layers, mc, feature_dim, bpv, *owner, want_gnn,
                         want_tasks, reference);
            std::vector<noc::Message> want;
            reference.emit(want, noc::TrafficClass::Spatial, 0, tile, tile);

            std::vector<OpCount> got_gnn(slots, 0);
            std::vector<std::vector<sim::VertexTask>> got_tasks(slots);
            fused.reset(slots);
            sim::detail::walkGcnLayers(g, layers, mc, feature_dim, bpv,
                                       owner->data(), got_gnn, &got_tasks,
                                       gather, fused);
            std::vector<noc::Message> got;
            fused.emit(got, noc::TrafficClass::Spatial, 0, tile, tile);

            EXPECT_EQ(want_gnn, got_gnn);
            ASSERT_EQ(want.size(), got.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(want[i].src, got[i].src) << "message " << i;
                EXPECT_EQ(want[i].dst, got[i].dst) << "message " << i;
                EXPECT_EQ(want[i].bytes, got[i].bytes) << "message " << i;
            }
            for (int sl = 0; sl < slots; ++sl) {
                const auto &w = want_tasks[static_cast<std::size_t>(sl)];
                const auto &o = got_tasks[static_cast<std::size_t>(sl)];
                ASSERT_EQ(w.size(), o.size()) << "slot " << sl;
                for (std::size_t k = 0; k < w.size(); ++k) {
                    EXPECT_EQ(w[k].vertex, o[k].vertex);
                    EXPECT_EQ(w[k].macs, o[k].macs);
                    EXPECT_EQ(w[k].postOps, o[k].postOps);
                    EXPECT_EQ(w[k].inputBytes, o[k].inputBytes);
                }
            }
            EXPECT_EQ(std::count(gather.begin(), gather.end(), ByteCount{0}),
                      static_cast<std::ptrdiff_t>(gather.size()))
                << "the accumulator must be left zero";
            // Same MACs with the tasks off (the engine default).
            std::vector<OpCount> flat_gnn(slots, 0);
            fused.reset(slots);
            sim::detail::walkGcnLayers(g, layers, mc, feature_dim, bpv,
                                       owner->data(), flat_gnn, nullptr,
                                       gather, fused);
            EXPECT_EQ(want_gnn, flat_gnn);
            EXPECT_EQ(want.size(), fused.nonzero());
        }
    }
}

// Batch planning: plans built through a SharedFrontEnd must serialize
// byte-identically to per-accelerator planning, at thread width 1
// and 4.

std::vector<std::unique_ptr<sim::Accelerator>>
makeFleet()
{
    std::vector<std::unique_ptr<sim::Accelerator>> fleet;
    fleet.push_back(sim::makeReady());
    fleet.push_back(sim::makeDgnnBooster());
    fleet.push_back(sim::makeRace());
    fleet.push_back(sim::makeMega());
    fleet.push_back(std::make_unique<core::DiTileAccelerator>());
    return fleet;
}

TEST(BatchPlanning, PlanBatchMatchesPerAccelPlans)
{
    const auto dg = simdWorkload();
    const model::DgnnConfig mconfig;
    for (const int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        workload::DigestCache::global().clear();

        sim::PlanCache solo_cache;
        auto solo_fleet = makeFleet();
        std::vector<std::string> solo_json;
        for (auto &accel : solo_fleet)
            solo_json.push_back(
                accel->plan(dg, mconfig, &solo_cache).toJson());

        // Plan the way ditile_sweep plans a group: DiTile through one
        // shared front end, the baselines on their own.
        workload::DigestCache::global().clear();
        sim::PlanCache batch_cache;
        core::SharedFrontEnd shared;
        auto batch_fleet = makeFleet();
        ASSERT_EQ(solo_json.size(), batch_fleet.size());
        for (std::size_t i = 0; i < batch_fleet.size(); ++i) {
            auto *ditile = dynamic_cast<core::DiTileAccelerator *>(
                batch_fleet[i].get());
            const auto plan = ditile
                ? ditile->plan(dg, mconfig, &batch_cache, &shared)
                : batch_fleet[i]->plan(dg, mconfig, &batch_cache);
            EXPECT_EQ(solo_json[i], plan.toJson())
                << "fleet member " << i << " at threads=" << threads;
        }
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(BatchPlanning, SharedFrontEndIdenticalAcrossAblationVariants)
{
    const auto dg = simdWorkload();
    const model::DgnnConfig mconfig;
    const std::vector<std::string> variants = {
        "full",   "NoPs",    "NoWos",  "NoRa",
        "OnlyPs", "OnlyWos", "OnlyRa",
    };

    core::SharedFrontEnd shared;
    sim::PlanCache shared_cache, solo_cache;
    for (const auto &variant : variants) {
        core::DiTileAccelerator with_shared(
            sim::AcceleratorConfig::defaults(),
            core::DiTileOptions::fromVariant(variant));
        core::DiTileAccelerator without(
            sim::AcceleratorConfig::defaults(),
            core::DiTileOptions::fromVariant(variant));
        const auto a =
            with_shared.plan(dg, mconfig, &shared_cache, &shared);
        const auto b = without.plan(dg, mconfig, &solo_cache);
        EXPECT_EQ(a.contentHash(), b.contentHash()) << variant;
        EXPECT_EQ(a.toJson(), b.toJson()) << variant;
    }
}

} // namespace
} // namespace ditile
