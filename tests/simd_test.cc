/**
 * @file
 * Tests for the SoA/SIMD hot-path rework: the elementwise f64 kernels
 * must round like a separately rounded reference, the flat SlotArrays
 * census kernels must reproduce the retired map-based walks on
 * adds+removes deltas, the DenseTraffic touched-cell drain must match
 * a dense reference and a std::sort of its mix64 drain keys, and batch
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
// matrix with an empty diagonal, same ring-minimal histogram — on a
// workload whose deltas contain both additions and removals.

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
        std::vector<std::uint64_t> ref_hist(
            static_cast<std::size_t>(slots) / 2 + 1, 0);
        // One count per communicating slot pair (the digest bins
        // pairs by ring distance, not edge multiplicity).
        for (const auto &[pair, count] : ref_cross) {
            (void)count;
            const int fwd =
                (pair.second - pair.first + slots) % slots;
            ++ref_hist[static_cast<std::size_t>(
                std::min(fwd, slots - fwd))];
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
        std::vector<std::uint64_t> hist(ref_hist.size(), ~0ull);
        workload::distanceHistogram(cross.data(), slots, hist.data());

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
        EXPECT_EQ(ref_hist, hist) << "snapshot " << t;
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
